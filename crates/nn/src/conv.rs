//! 2-D convolution lowered to GEMM via im2col, with K-FAC capture.
//!
//! The K-FAC `A` factor of a Conv2d layer is the second moment of the im2col
//! patch rows (dimension `c_in·kh·kw (+1)`), and `G` is the second moment of
//! the per-location pre-activation gradients (dimension `c_out`) — the KFC
//! construction of Grosse & Martens that the paper's implementation uses for
//! all convolutional layers of ResNet and U-Net.

use kaisa_tensor::{
    col2im, im2col, im2col_rows, init, syrk_chunk_rows, syrk_mode, syrk_tn, Conv2dGeom, Matrix,
    Rng, SyrkMode, Tensor4,
};

use crate::capture::{CaptureMode, KfacAble, KfacCapture};

/// A 2-D convolution layer with weight shape `(c_out, c_in·kh·kw)`.
#[derive(Debug, Clone)]
pub struct Conv2d {
    name: String,
    /// Flattened kernel weights: row `o` is output channel `o`'s kernel in
    /// channel-major, row-major order (matching im2col's patch layout).
    pub weight: Matrix,
    /// Optional per-output-channel bias.
    pub bias: Option<Vec<f32>>,
    /// Weight gradient (same shape as `weight`).
    pub grad_weight: Matrix,
    /// Bias gradient.
    pub grad_bias: Option<Vec<f32>>,
    /// K-FAC capture state.
    pub kfac: KfacCapture,
    /// Convolution geometry.
    pub geom: Conv2dGeom,
    c_in: usize,
    c_out: usize,
    patch_cache: Option<Matrix>,
    in_shape: Option<(usize, usize, usize, usize)>,
    /// Reused streamed-capture chunk buffer (`chunk x a_dim`): allocated on
    /// the first factor update and kept across updates, so capture never
    /// re-materializes (or copies, for the bias ones-column) the full patch
    /// matrix.
    capture_scratch: Option<Matrix>,
}

impl Conv2d {
    /// Kaiming-initialized square convolution.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        c_in: usize,
        c_out: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        bias: bool,
        rng: &mut Rng,
    ) -> Self {
        let patch = c_in * kernel * kernel;
        Conv2d {
            name: name.into(),
            weight: init::kaiming_normal(c_out, patch, rng),
            bias: bias.then(|| vec![0.0; c_out]),
            grad_weight: Matrix::zeros(c_out, patch),
            grad_bias: bias.then(|| vec![0.0; c_out]),
            kfac: KfacCapture::new(),
            geom: Conv2dGeom::square(kernel, stride, pad),
            c_in,
            c_out,
            patch_cache: None,
            in_shape: None,
            capture_scratch: None,
        }
    }

    /// Input channel count.
    pub fn c_in(&self) -> usize {
        self.c_in
    }

    /// Output channel count.
    pub fn c_out(&self) -> usize {
        self.c_out
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.weight.numel() + self.bias.as_ref().map_or(0, |b| b.len())
    }

    /// Forward pass over an NCHW batch.
    pub fn forward(&mut self, x: &Tensor4, train: bool) -> Tensor4 {
        assert_eq!(x.c(), self.c_in, "{}: channel mismatch", self.name);
        let (n, _, h, w) = x.shape();
        let (oh, ow) = self.geom.out_shape(h, w);
        let patches = im2col(x, &self.geom);
        // (rows, c_out)
        let mut out_mat = patches.matmul_nt(&self.weight);
        if let Some(b) = &self.bias {
            for r in 0..out_mat.rows() {
                for (v, bi) in out_mat.row_mut(r).iter_mut().zip(b) {
                    *v += *bi;
                }
            }
        }
        if train {
            if self.kfac.enabled {
                if self.kfac.mode == CaptureMode::Accumulate && syrk_mode() == SyrkMode::On {
                    // Streamed chunked im2col: accumulate aᵀa over bounded
                    // row chunks through the reused scratch — never
                    // materializing the (rows x a_dim) augmented matrix.
                    // Chunks partition the rows in ascending input order,
                    // so the sum is bitwise identical to the one-shot path.
                    let contrib = self.streamed_a_contrib(x, syrk_chunk_rows());
                    self.kfac.record_forward_stat(contrib, n);
                } else if self.bias.is_some() {
                    let aug = patches.append_ones_column();
                    self.kfac.record_forward(&aug, n);
                } else {
                    self.kfac.record_forward(&patches, n);
                }
            }
            self.patch_cache = Some(patches);
            self.in_shape = Some(x.shape());
        }
        // Scatter (rows, c_out) -> NCHW.
        let mut out = Tensor4::zeros(n, self.c_out, oh, ow);
        for img in 0..n {
            for oy in 0..oh {
                for ox in 0..ow {
                    let row = out_mat.row((img * oh + oy) * ow + ox);
                    for (co, &v) in row.iter().enumerate() {
                        out.set(img, co, oy, ox, v);
                    }
                }
            }
        }
        out
    }

    /// Backward pass: consumes the cached patches, accumulates parameter
    /// gradients, records the K-FAC `G` statistic, and returns the input
    /// gradient.
    pub fn backward(&mut self, grad_out: &Tensor4) -> Tensor4 {
        let patches = self
            .patch_cache
            .take()
            .unwrap_or_else(|| panic!("{}: backward without forward", self.name));
        let (n, c_in, h, w) = self.in_shape.take().expect("input shape cached");
        let (gn, gc, oh, ow) = grad_out.shape();
        assert_eq!(gn, n, "{}: batch mismatch", self.name);
        assert_eq!(gc, self.c_out, "{}: grad channel mismatch", self.name);

        // Gather NCHW grads into (rows, c_out) with im2col row order.
        let mut g_mat = Matrix::zeros(n * oh * ow, self.c_out);
        for img in 0..n {
            for oy in 0..oh {
                for ox in 0..ow {
                    let row = g_mat.row_mut((img * oh + oy) * ow + ox);
                    for (co, v) in row.iter_mut().enumerate() {
                        *v = grad_out.get(img, co, oy, ox);
                    }
                }
            }
        }

        if self.kfac.enabled {
            self.kfac.record_backward(&g_mat, n);
        }

        // dW += gᵀ patches
        let dw = g_mat.matmul_tn(&patches);
        self.grad_weight.add_assign(&dw);
        if let Some(db) = &mut self.grad_bias {
            for r in 0..g_mat.rows() {
                for (dbi, gi) in db.iter_mut().zip(g_mat.row(r)) {
                    *dbi += *gi;
                }
            }
        }
        // dpatches = g W; dx = col2im(dpatches)
        let dpatches = g_mat.matmul(&self.weight);
        col2im(&dpatches, n, c_in, h, w, &self.geom)
    }

    /// Unscaled `aᵀa` over the (augmented) patch matrix of `x`, computed by
    /// streaming im2col row chunks through `capture_scratch` and
    /// accumulating SYRK contributions. The scratch holds `chunk x a_dim`
    /// floats (at most `chunk_rows` rows) with the bias ones-column written
    /// once per allocation — `im2col_rows` only touches the patch columns.
    fn streamed_a_contrib(&mut self, x: &Tensor4, chunk_rows: usize) -> Matrix {
        let (n, _, h, w) = x.shape();
        let (oh, ow) = self.geom.out_shape(h, w);
        let rows = n * oh * ow;
        let patch_len = self.weight.cols();
        let a_dim = patch_len + usize::from(self.bias.is_some());
        let chunk = chunk_rows.min(rows.max(1));
        let fits = matches!(&self.capture_scratch, Some(s) if s.shape() == (chunk, a_dim));
        if !fits {
            let mut s = Matrix::zeros(chunk, a_dim);
            if a_dim > patch_len {
                for r in 0..chunk {
                    s.row_mut(r)[patch_len] = 1.0;
                }
            }
            self.capture_scratch = Some(s);
        }
        let scratch = self.capture_scratch.as_mut().expect("allocated above");
        let mut c = Matrix::zeros(a_dim, a_dim);
        let mut r0 = 0;
        while r0 < rows {
            let len = chunk.min(rows - r0);
            im2col_rows(x, &self.geom, r0, len, scratch);
            syrk_tn(a_dim, len, &scratch.as_slice()[..len * a_dim], c.as_mut_slice());
            r0 += len;
        }
        c
    }

    /// Zero the parameter gradients.
    pub fn zero_grad(&mut self) {
        self.grad_weight.fill_zero();
        if let Some(db) = &mut self.grad_bias {
            db.iter_mut().for_each(|v| *v = 0.0);
        }
    }
}

impl KfacAble for Conv2d {
    fn layer_name(&self) -> &str {
        &self.name
    }

    fn a_dim(&self) -> usize {
        self.weight.cols() + usize::from(self.bias.is_some())
    }

    fn g_dim(&self) -> usize {
        self.c_out
    }

    fn capture_mut(&mut self) -> &mut KfacCapture {
        &mut self.kfac
    }

    fn capture_scratch_bytes(&self) -> usize {
        self.capture_scratch.as_ref().map_or(0, |m| m.numel() * std::mem::size_of::<f32>())
    }

    #[allow(clippy::needless_range_loop)]
    fn combined_grad(&self) -> Matrix {
        match &self.grad_bias {
            None => self.grad_weight.clone(),
            Some(db) => {
                let (out, inp) = self.grad_weight.shape();
                let mut m = Matrix::zeros(out, inp + 1);
                for r in 0..out {
                    m.row_mut(r)[..inp].copy_from_slice(self.grad_weight.row(r));
                    m.row_mut(r)[inp] = db[r];
                }
                m
            }
        }
    }

    #[allow(clippy::needless_range_loop)]
    fn set_combined_grad(&mut self, grad: &Matrix) {
        let (out, inp) = self.grad_weight.shape();
        assert_eq!(grad.rows(), out, "{}: combined grad rows", self.name);
        match &mut self.grad_bias {
            None => {
                assert_eq!(grad.cols(), inp);
                self.grad_weight = grad.clone();
            }
            Some(db) => {
                assert_eq!(grad.cols(), inp + 1);
                for r in 0..out {
                    self.grad_weight.row_mut(r).copy_from_slice(&grad.row(r)[..inp]);
                    db[r] = grad.row(r)[inp];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shape() {
        let mut rng = Rng::seed_from_u64(81);
        let mut conv = Conv2d::new("c", 3, 8, 3, 1, 1, true, &mut rng);
        let x = Tensor4::randn(2, 3, 6, 6, 1.0, &mut rng);
        let y = conv.forward(&x, false);
        assert_eq!(y.shape(), (2, 8, 6, 6));
        let mut strided = Conv2d::new("s", 3, 4, 3, 2, 1, false, &mut rng);
        let y2 = strided.forward(&x, false);
        assert_eq!(y2.shape(), (2, 4, 3, 3));
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = Rng::seed_from_u64(82);
        let mut conv = Conv2d::new("fd", 2, 3, 3, 1, 1, true, &mut rng);
        let x = Tensor4::randn(2, 2, 4, 4, 1.0, &mut rng);

        let loss =
            |c: &mut Conv2d, x: &Tensor4| -> f32 { c.forward(x, false).as_slice().iter().sum() };

        conv.zero_grad();
        let y = conv.forward(&x, true);
        let g = Tensor4::from_vec(y.n(), y.c(), y.h(), y.w(), vec![1.0; y.numel()]);
        let dx = conv.backward(&g);

        let h = 1e-3;
        for &(r, c) in &[(0usize, 0usize), (1, 7), (2, 17)] {
            let orig = conv.weight.get(r, c);
            conv.weight.set(r, c, orig + h);
            let lp = loss(&mut conv, &x);
            conv.weight.set(r, c, orig - h);
            let lm = loss(&mut conv, &x);
            conv.weight.set(r, c, orig);
            let fd = (lp - lm) / (2.0 * h);
            let an = conv.grad_weight.get(r, c);
            assert!((fd - an).abs() < 0.05, "dW[{r},{c}] fd={fd} an={an}");
        }
        // Input gradient at a few positions.
        let mut x2 = x.clone();
        for &(n, ch, yy, xx) in &[(0usize, 0usize, 0usize, 0usize), (1, 1, 3, 2)] {
            let orig = x2.get(n, ch, yy, xx);
            x2.set(n, ch, yy, xx, orig + h);
            let lp = loss(&mut conv, &x2);
            x2.set(n, ch, yy, xx, orig - h);
            let lm = loss(&mut conv, &x2);
            x2.set(n, ch, yy, xx, orig);
            let fd = (lp - lm) / (2.0 * h);
            let an = dx.get(n, ch, yy, xx);
            assert!((fd - an).abs() < 0.05, "dx fd={fd} an={an}");
        }
        // Bias grad = number of output positions.
        for g in conv.grad_bias.as_ref().unwrap() {
            assert!((g - (2 * 4 * 4) as f32).abs() < 1e-2);
        }
    }

    #[test]
    fn kfac_factor_dims() {
        let mut rng = Rng::seed_from_u64(83);
        let conv = Conv2d::new("k", 16, 32, 3, 1, 1, false, &mut rng);
        assert_eq!(conv.a_dim(), 16 * 9);
        assert_eq!(conv.g_dim(), 32);
        let with_bias = Conv2d::new("kb", 16, 32, 3, 1, 1, true, &mut rng);
        assert_eq!(with_bias.a_dim(), 16 * 9 + 1);
    }

    #[test]
    fn streamed_capture_matches_full_path_bitwise() {
        // The streamed chunked-im2col SYRK capture must reproduce the
        // one-shot augmented-patch-matrix path bit for bit, for every
        // chunk size and with/without bias. Chunk sizes go straight to the
        // streaming helper, so no process-wide state is touched.
        let mut rng = Rng::seed_from_u64(85);
        let x = Tensor4::randn(2, 2, 5, 4, 1.0, &mut rng);
        for has_bias in [true, false] {
            let reference = Conv2d::new("ref", 2, 3, 3, 1, 1, has_bias, &mut rng);
            // Reference: the pre-SYRK full path, computed explicitly.
            let patches = im2col(&x, &reference.geom);
            let aug = if has_bias { patches.append_ones_column() } else { patches };
            let expect = aug.matmul_tn(&aug);
            for chunk in [1usize, 3, 16, 1 << 20] {
                let mut conv = reference.clone();
                let got = conv.streamed_a_contrib(&x, chunk);
                for (a, b) in got.as_slice().iter().zip(expect.as_slice()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "bias={has_bias} chunk={chunk}");
                }
            }
            // And end to end through `forward`, scaled by 1/batch.
            let mut conv = reference.clone();
            conv.kfac.enabled = true;
            let y = conv.forward(&x, true);
            let _ = conv.backward(&Tensor4::randn(y.n(), y.c(), y.h(), y.w(), 0.1, &mut rng));
            let stats = conv.kfac.take_stats().unwrap();
            for (a, b) in stats.a_stat.as_slice().iter().zip(expect.as_slice()) {
                assert_eq!(a.to_bits(), (b / 2.0).to_bits(), "bias={has_bias} forward");
            }
        }
    }

    #[test]
    fn capture_scratch_is_reused_between_updates() {
        // The streamed path must allocate its chunk buffer once and keep it
        // across factor updates instead of re-materializing per call.
        let mut rng = Rng::seed_from_u64(86);
        let mut conv = Conv2d::new("scratch", 2, 3, 3, 1, 1, true, &mut rng);
        conv.kfac.enabled = true;
        let x = Tensor4::randn(2, 2, 4, 4, 1.0, &mut rng);
        assert_eq!(conv.capture_scratch_bytes(), 0);
        let _ = conv.forward(&x, true);
        let after_first = conv.capture_scratch_bytes();
        if kaisa_tensor::syrk_mode() == SyrkMode::On {
            let rows = 2 * 4 * 4;
            let chunk = syrk_chunk_rows().min(rows);
            assert_eq!(after_first, chunk * conv.a_dim() * std::mem::size_of::<f32>());
            let ptr_first = conv.capture_scratch.as_ref().unwrap().as_slice().as_ptr();
            conv.patch_cache = None;
            let _ = conv.forward(&x, true);
            assert_eq!(conv.capture_scratch_bytes(), after_first);
            let ptr_second = conv.capture_scratch.as_ref().unwrap().as_slice().as_ptr();
            assert_eq!(ptr_first, ptr_second, "scratch must be reused, not reallocated");
        }
    }

    #[test]
    fn capture_produces_stats() {
        let mut rng = Rng::seed_from_u64(84);
        let mut conv = Conv2d::new("cap", 2, 3, 3, 1, 1, true, &mut rng);
        conv.kfac.enabled = true;
        let x = Tensor4::randn(2, 2, 4, 4, 1.0, &mut rng);
        let y = conv.forward(&x, true);
        let g = Tensor4::randn(y.n(), y.c(), y.h(), y.w(), 0.1, &mut rng);
        let _ = conv.backward(&g);
        let stats = conv.kfac.take_stats().unwrap();
        assert_eq!(stats.a_stat.shape(), (19, 19));
        assert_eq!(stats.g_stat.shape(), (3, 3));
        assert!(stats.a_stat.is_finite() && stats.g_stat.is_finite());
    }
}
