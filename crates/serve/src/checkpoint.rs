//! Byte-level job checkpoint serialization.
//!
//! A [`JobCheckpoint`] captures everything a paused training job needs to
//! resume **on a different world size**: the flat model parameters, the
//! first-order optimizer's momentum velocity, the K-FAC preconditioner
//! state (running factor averages stored square, cached decompositions,
//! the optimizer step counter — see `kaisa_core::KfacCheckpoint`), and the
//! global step the job paused at. Data-shard progress needs no state at
//! all: the `ShardSampler` is a pure function of `(world, rank, seed,
//! epoch)`, so the resumed world re-derives its batches from the step
//! index alone.
//!
//! The encoding is a deliberately simple little-endian format with no
//! external dependencies:
//!
//! ```text
//! magic    8 bytes  "KAISAJOB"
//! version  u32      currently 1
//! step     u64
//! params   u64 count, then count × u32   (f32::to_bits, LE)
//! velocity u64 count, then count × u32
//! kfac     u8 flag  (0 = none)
//!   steps  u64
//!   layers u64 count, then per layer:
//!     name    u64 byte-length + UTF-8 bytes
//!     a_dim   u64
//!     g_dim   u64
//!     fields  10 × [u8 flag; if 1: u64 count + count × u32]
//!             order: factor_a factor_g qa qg outer va vg inv_a inv_g
//!             ekfac_scale
//! ```
//!
//! Floats are stored as raw IEEE-754 bit patterns, so encode→decode→encode
//! is bytewise idempotent and restore is bitwise transparent — including
//! for fp16-quantized factor values, which live in `f32` storage whose
//! bits round-trip unchanged.

use kaisa_core::{KfacCheckpoint, LayerCheckpoint};

const MAGIC: &[u8; 8] = b"KAISAJOB";
const VERSION: u32 = 1;

/// A decode failure: the byte stream is not a valid job checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The stream does not start with the checkpoint magic.
    BadMagic,
    /// The stream's format version is not supported by this build.
    UnsupportedVersion(u32),
    /// The stream ended before a declared field finished.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// Extra bytes follow a structurally complete checkpoint.
    TrailingBytes(usize),
    /// A structural invariant failed (e.g. a non-UTF-8 layer name).
    Invalid(&'static str),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a KAISA job checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v} (this build reads {VERSION})")
            }
            CheckpointError::Truncated { needed, remaining } => {
                write!(f, "truncated checkpoint: needed {needed} more bytes, had {remaining}")
            }
            CheckpointError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes after a complete checkpoint")
            }
            CheckpointError::Invalid(what) => write!(f, "invalid checkpoint: {what}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Everything a paused job needs to resume training, possibly at a
/// different world size.
#[derive(Debug, Clone, PartialEq)]
pub struct JobCheckpoint {
    /// Global optimizer step the job paused at (steps completed).
    pub step: u64,
    /// Flat model parameters (`Model::params_flat` order).
    pub params: Vec<f32>,
    /// SGD momentum velocity; empty if momentum never stepped.
    pub velocity: Vec<f32>,
    /// K-FAC preconditioner state; `None` for first-order-only jobs.
    pub kfac: Option<KfacCheckpoint>,
}

impl JobCheckpoint {
    /// Serialize to the stable byte format described in the module docs.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            MAGIC.len()
                + 12
                + 8
                + 4 * self.params.len()
                + 8
                + 4 * self.velocity.len()
                + 1
                + self.kfac.as_ref().map_or(0, |k| 64 + 4 * k.element_count()),
        );
        out.extend_from_slice(MAGIC);
        put_u32(&mut out, VERSION);
        put_u64(&mut out, self.step);
        put_f32s(&mut out, &self.params);
        put_f32s(&mut out, &self.velocity);
        match &self.kfac {
            None => out.push(0),
            Some(kfac) => {
                out.push(1);
                put_u64(&mut out, kfac.steps);
                put_u64(&mut out, kfac.layers.len() as u64);
                for layer in &kfac.layers {
                    put_u64(&mut out, layer.name.len() as u64);
                    out.extend_from_slice(layer.name.as_bytes());
                    put_u64(&mut out, layer.a_dim as u64);
                    put_u64(&mut out, layer.g_dim as u64);
                    for field in layer_fields(layer) {
                        match field {
                            None => out.push(0),
                            Some(data) => {
                                out.push(1);
                                put_f32s(&mut out, data);
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Decode a byte stream produced by [`JobCheckpoint::to_bytes`]. Every
    /// present layer field's length is checked against the layer's
    /// `a_dim`/`g_dim`, so a restore never sees a mis-shaped field.
    pub fn from_bytes(bytes: &[u8]) -> Result<JobCheckpoint, CheckpointError> {
        let mut r = Reader { buf: bytes, pos: 0 };
        if r.take(MAGIC.len())? != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let step = r.u64()?;
        let params = r.f32s()?;
        let velocity = r.f32s()?;
        let kfac = match r.u8()? {
            0 => None,
            1 => {
                let steps = r.u64()?;
                let layer_count = r.len()?;
                let mut layers = Vec::with_capacity(layer_count.min(1 << 16));
                for _ in 0..layer_count {
                    let name_len = r.len()?;
                    let name = std::str::from_utf8(r.take(name_len)?)
                        .map_err(|_| CheckpointError::Invalid("layer name is not UTF-8"))?
                        .to_string();
                    let a_dim = r.len()?;
                    let g_dim = r.len()?;
                    let mut fields: [Option<Vec<f32>>; 10] = Default::default();
                    for slot in fields.iter_mut() {
                        *slot = match r.u8()? {
                            0 => None,
                            1 => Some(r.f32s()?),
                            _ => return Err(CheckpointError::Invalid("field flag is not 0/1")),
                        };
                    }
                    check_field_lengths(&fields, a_dim, g_dim)?;
                    let [factor_a, factor_g, qa, qg, outer, va, vg, inv_a, inv_g, ekfac_scale] =
                        fields;
                    layers.push(LayerCheckpoint {
                        name,
                        a_dim,
                        g_dim,
                        factor_a,
                        factor_g,
                        qa,
                        qg,
                        outer,
                        va,
                        vg,
                        inv_a,
                        inv_g,
                        ekfac_scale,
                    });
                }
                Some(KfacCheckpoint { steps, layers })
            }
            _ => return Err(CheckpointError::Invalid("kfac flag is not 0/1")),
        };
        if r.pos != bytes.len() {
            return Err(CheckpointError::TrailingBytes(bytes.len() - r.pos));
        }
        Ok(JobCheckpoint { step, params, velocity, kfac })
    }
}

/// The ten optional per-layer state fields in wire order.
fn layer_fields(layer: &LayerCheckpoint) -> [Option<&Vec<f32>>; 10] {
    [
        layer.factor_a.as_ref(),
        layer.factor_g.as_ref(),
        layer.qa.as_ref(),
        layer.qg.as_ref(),
        layer.outer.as_ref(),
        layer.va.as_ref(),
        layer.vg.as_ref(),
        layer.inv_a.as_ref(),
        layer.inv_g.as_ref(),
        layer.ekfac_scale.as_ref(),
    ]
}

/// Reject a present field whose length does not match its shape class:
/// `a_dim²` (factor_a, qa, inv_a), `g_dim²` (factor_g, qg, inv_g),
/// `g_dim·a_dim` (outer, ekfac_scale), `a_dim` (va) or `g_dim` (vg).
/// Restore would otherwise panic on a square field, or silently install a
/// wrong-length eigenvalue vector or packed factor.
fn check_field_lengths(
    fields: &[Option<Vec<f32>>; 10],
    a_dim: usize,
    g_dim: usize,
) -> Result<(), CheckpointError> {
    let overflow = CheckpointError::Invalid("factor dimensions overflow");
    let a_sq = a_dim.checked_mul(a_dim).ok_or(overflow.clone())?;
    let g_sq = g_dim.checked_mul(g_dim).ok_or(overflow.clone())?;
    let ga = g_dim.checked_mul(a_dim).ok_or(overflow)?;
    let a_sq_len = (a_sq, "factor_a/qa/inv_a length is not a_dim²");
    let g_sq_len = (g_sq, "factor_g/qg/inv_g length is not g_dim²");
    let ga_len = (ga, "outer/ekfac_scale length is not g_dim·a_dim");
    let expected = [
        a_sq_len,
        g_sq_len,
        a_sq_len,
        g_sq_len,
        ga_len,
        (a_dim, "va length is not a_dim"),
        (g_dim, "vg length is not g_dim"),
        a_sq_len,
        g_sq_len,
        ga_len,
    ];
    for (field, (len, what)) in fields.iter().zip(expected) {
        if field.as_ref().is_some_and(|f| f.len() != len) {
            return Err(CheckpointError::Invalid(what));
        }
    }
    Ok(())
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f32s(out: &mut Vec<u8>, data: &[f32]) {
    put_u64(out, data.len() as u64);
    for &x in data {
        put_u32(out, x.to_bits());
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let remaining = self.buf.len() - self.pos;
        if n > remaining {
            return Err(CheckpointError::Truncated { needed: n, remaining });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4-byte slice")))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8-byte slice")))
    }

    /// A u64 that will be used as an in-memory length: reject values that
    /// could not possibly be backed by the remaining bytes, so corrupt
    /// streams fail cleanly instead of attempting huge allocations.
    fn len(&mut self) -> Result<usize, CheckpointError> {
        let v = self.u64()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        if v > remaining {
            return Err(CheckpointError::Truncated {
                needed: v as usize,
                remaining: remaining as usize,
            });
        }
        Ok(v as usize)
    }

    fn f32s(&mut self) -> Result<Vec<f32>, CheckpointError> {
        let count = {
            let v = self.u64()?;
            let remaining = (self.buf.len() - self.pos) as u64;
            if v.saturating_mul(4) > remaining {
                return Err(CheckpointError::Truncated {
                    needed: v.saturating_mul(4) as usize,
                    remaining: remaining as usize,
                });
            }
            v as usize
        };
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(f32::from_bits(self.u32()?));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JobCheckpoint {
        JobCheckpoint {
            step: 42,
            params: vec![1.5, -2.25, f32::MIN_POSITIVE, 0.0, -0.0],
            velocity: vec![0.125, 3.0],
            kfac: Some(KfacCheckpoint {
                steps: 42,
                layers: vec![LayerCheckpoint {
                    name: "fc0".to_string(),
                    a_dim: 2,
                    g_dim: 1,
                    factor_a: Some(vec![1.0, 0.5, 0.5, 2.0]),
                    factor_g: Some(vec![3.0]),
                    qa: None,
                    qg: None,
                    outer: Some(vec![0.25, 0.75]),
                    va: None,
                    vg: None,
                    inv_a: None,
                    inv_g: None,
                    ekfac_scale: None,
                }],
            }),
        }
    }

    #[test]
    fn roundtrip_is_bytewise_stable() {
        let ckpt = sample();
        let bytes = ckpt.to_bytes();
        let decoded = JobCheckpoint::from_bytes(&bytes).unwrap();
        assert_eq!(decoded, ckpt);
        // save → load → save is the identity on bytes.
        assert_eq!(decoded.to_bytes(), bytes);
    }

    #[test]
    fn no_kfac_roundtrips() {
        let ckpt = JobCheckpoint { step: 7, params: vec![1.0], velocity: vec![], kfac: None };
        let bytes = ckpt.to_bytes();
        assert_eq!(JobCheckpoint::from_bytes(&bytes).unwrap(), ckpt);
        assert_eq!(JobCheckpoint::from_bytes(&bytes).unwrap().to_bytes(), bytes);
    }

    #[test]
    fn nonfinite_bit_patterns_survive() {
        let mut ckpt = sample();
        ckpt.params = vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        let bytes = ckpt.to_bytes();
        let decoded = JobCheckpoint::from_bytes(&bytes).unwrap();
        for (a, b) in ckpt.params.iter().zip(&decoded.params) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(decoded.to_bytes(), bytes);
    }

    #[test]
    fn corruption_is_detected() {
        let bytes = sample().to_bytes();
        assert_eq!(JobCheckpoint::from_bytes(b"NOTAJOB!rest"), Err(CheckpointError::BadMagic));
        // Truncation anywhere fails cleanly.
        for cut in [bytes.len() / 3, bytes.len() / 2, bytes.len() - 1] {
            assert!(matches!(
                JobCheckpoint::from_bytes(&bytes[..cut]),
                Err(CheckpointError::Truncated { .. })
            ));
        }
        // Trailing garbage is rejected, not silently ignored.
        let mut long = bytes.clone();
        long.extend_from_slice(&[0, 1, 2]);
        assert_eq!(JobCheckpoint::from_bytes(&long), Err(CheckpointError::TrailingBytes(3)));
        // A declared length far past the end of the stream must not allocate.
        let mut huge = bytes.clone();
        let params_off = MAGIC.len() + 4 + 8;
        huge[params_off..params_off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(JobCheckpoint::from_bytes(&huge), Err(CheckpointError::Truncated { .. })));
    }

    /// Encode `sample()` with one layer field replaced, then decode.
    fn decode_with(
        edit: impl FnOnce(&mut LayerCheckpoint),
    ) -> Result<JobCheckpoint, CheckpointError> {
        let mut ckpt = sample();
        edit(&mut ckpt.kfac.as_mut().unwrap().layers[0]);
        JobCheckpoint::from_bytes(&ckpt.to_bytes())
    }

    #[test]
    fn a_square_field_length_is_checked() {
        // a_dim = 2, so a² = 4.
        let err = decode_with(|l| l.qa = Some(vec![1.0; 3])).unwrap_err();
        assert_eq!(err, CheckpointError::Invalid("factor_a/qa/inv_a length is not a_dim²"));
    }

    #[test]
    fn g_square_field_length_is_checked() {
        // g_dim = 1, so g² = 1.
        let err = decode_with(|l| l.inv_g = Some(vec![1.0; 2])).unwrap_err();
        assert_eq!(err, CheckpointError::Invalid("factor_g/qg/inv_g length is not g_dim²"));
    }

    #[test]
    fn outer_shaped_field_length_is_checked() {
        // g·a = 2.
        let err = decode_with(|l| l.ekfac_scale = Some(vec![1.0; 4])).unwrap_err();
        assert_eq!(err, CheckpointError::Invalid("outer/ekfac_scale length is not g_dim·a_dim"));
    }

    #[test]
    fn a_vector_field_length_is_checked() {
        let err = decode_with(|l| l.va = Some(vec![1.0])).unwrap_err();
        assert_eq!(err, CheckpointError::Invalid("va length is not a_dim"));
        assert!(decode_with(|l| l.va = Some(vec![1.0, 2.0])).is_ok());
    }

    #[test]
    fn g_vector_field_length_is_checked() {
        let err = decode_with(|l| l.vg = Some(vec![1.0, 2.0])).unwrap_err();
        assert_eq!(err, CheckpointError::Invalid("vg length is not g_dim"));
        assert!(decode_with(|l| l.vg = Some(vec![3.0])).is_ok());
    }

    #[test]
    fn overflowing_dims_are_rejected() {
        // A dim whose square overflows usize must fail cleanly, not wrap.
        let fields: [Option<Vec<f32>>; 10] = Default::default();
        let huge = 1usize << (usize::BITS / 2);
        assert_eq!(
            check_field_lengths(&fields, huge, 1),
            Err(CheckpointError::Invalid("factor dimensions overflow"))
        );
    }

    #[test]
    fn version_gate() {
        let mut bytes = sample().to_bytes();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(JobCheckpoint::from_bytes(&bytes), Err(CheckpointError::UnsupportedVersion(99)));
    }
}
