//! Batched symmetric eigensolves: workers drain a shared queue of factor
//! decompositions with per-worker reused scratch.
//!
//! A K-FAC decomposition step hands each rank a *set* of independent factor
//! eigendecompositions (one per Kronecker factor the rank owns — many of
//! them equal-`n`, since a network repeats layer shapes). Solving them one
//! [`crate::sym_eig`] call at a time leaves cores idle and reallocates the
//! `f64` workspace per call. Here the whole set drains through an atomic
//! work queue instead: jobs are claimed largest-first (LPT over the O(n³)
//! cost model, so the expensive solves can't strand at the tail), each
//! worker reuses one [`EigScratch`] across every job it claims (equal-`n`
//! runs never touch the allocator), and results land in input order.
//!
//! **Determinism contract:** each solve is bitwise identical to
//! [`crate::sym_eig`] on the same input — the workspace is fully
//! overwritten per job, so sharing it changes nothing — and the output
//! permutation is fixed by input order, so the worker count and claim
//! interleaving are unobservable. The equivalence suites in `kaisa-core`
//! gate this across every executor.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use kaisa_tensor::Matrix;

use crate::eigen::{sym_eig_with_scratch, EigScratch, EigenError, SymEig};

/// One worker's claimed results: `(input index, solve result, seconds)`.
type WorkerResults = Vec<(usize, Result<SymEig, EigenError>, f64)>;

/// Worker cap from the `KAISA_EIG_BATCH` environment variable, read once
/// per process. `0` (or unset, or unparsable) means one worker per
/// available core; `1` drains the queue inline on the calling thread.
pub fn eig_batch_workers() -> usize {
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("KAISA_EIG_BATCH").ok().and_then(|v| v.parse().ok()).unwrap_or(0)
    })
}

/// Resolve an effective worker count: an explicit `requested` cap wins,
/// `0` defers to [`eig_batch_workers`] and then the core count, and the
/// result never exceeds the number of jobs.
fn resolve_workers(requested: usize, jobs: usize) -> usize {
    let cap = match requested {
        0 => match eig_batch_workers() {
            0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            env => env,
        },
        explicit => explicit,
    };
    cap.clamp(1, jobs.max(1))
}

/// Batch-solve every matrix in `inputs`, returning `(result, seconds)` per
/// input **in input order**. `max_workers` caps the queue workers (`0` =
/// auto via `KAISA_EIG_BATCH` / core count). The per-job wall-clock lets
/// callers attribute compute time to the owning layer.
pub fn sym_eig_batch_timed(
    inputs: &[&Matrix],
    max_workers: usize,
) -> Vec<(Result<SymEig, EigenError>, f64)> {
    let jobs = inputs.len();
    if jobs == 0 {
        return Vec::new();
    }
    // LPT claim order: largest n first (ties keep input order), so the
    // O(n³)-dominant solves start immediately and equal-n jobs drain
    // consecutively from one worker's scratch.
    let mut order: Vec<usize> = (0..jobs).collect();
    order.sort_by(|&x, &y| inputs[y].rows().cmp(&inputs[x].rows()).then(x.cmp(&y)));
    let workers = resolve_workers(max_workers, jobs);

    let mut out: Vec<Option<(Result<SymEig, EigenError>, f64)>> = (0..jobs).map(|_| None).collect();
    if workers == 1 {
        let mut scratch = EigScratch::new();
        for &j in &order {
            let start = Instant::now();
            let result = sym_eig_with_scratch(inputs[j], &mut scratch);
            out[j] = Some((result, start.elapsed().as_secs_f64()));
        }
    } else {
        let next = AtomicUsize::new(0);
        let solved: Vec<WorkerResults> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let next = &next;
                    let order = &order;
                    scope.spawn(move || {
                        let mut scratch = EigScratch::new();
                        let mut local = Vec::new();
                        loop {
                            let slot = next.fetch_add(1, Ordering::Relaxed);
                            if slot >= order.len() {
                                break;
                            }
                            let j = order[slot];
                            let start = Instant::now();
                            let result = sym_eig_with_scratch(inputs[j], &mut scratch);
                            local.push((j, result, start.elapsed().as_secs_f64()));
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("eigensolve batch worker panicked"))
                .collect()
        });
        for worker_results in solved {
            for (j, result, seconds) in worker_results {
                out[j] = Some((result, seconds));
            }
        }
    }
    out.into_iter().map(|slot| slot.expect("every queued job solved exactly once")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sym_eig;
    use kaisa_tensor::Rng;

    fn random_symmetric(n: usize, rng: &mut Rng) -> Matrix {
        let a = Matrix::randn(n, n, 1.0, rng);
        let mut s = a.matmul_tn(&a);
        s.scale(1.0 / n as f32);
        s
    }

    #[test]
    fn batch_is_bitwise_identical_to_serial() {
        let mut rng = Rng::seed_from_u64(7);
        // Mixed sizes with equal-n runs, like a real layer inventory.
        let mats: Vec<Matrix> = [5usize, 16, 16, 3, 16, 8, 8, 1, 24]
            .iter()
            .map(|&n| random_symmetric(n, &mut rng))
            .collect();
        let refs: Vec<&Matrix> = mats.iter().collect();
        for workers in [0usize, 1, 2, 5] {
            let batched = sym_eig_batch_timed(&refs, workers);
            assert_eq!(batched.len(), mats.len());
            for (m, (result, seconds)) in mats.iter().zip(&batched) {
                let serial = sym_eig(m).unwrap();
                let eig = result.as_ref().unwrap();
                assert_eq!(eig.values.len(), serial.values.len());
                for (a, b) in eig.values.iter().zip(&serial.values) {
                    assert_eq!(a.to_bits(), b.to_bits(), "workers={workers}");
                }
                assert_eq!(
                    eig.vectors.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    serial.vectors.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "workers={workers}"
                );
                assert!(*seconds >= 0.0);
            }
        }
    }

    #[test]
    fn scratch_reuse_is_bitwise_stable() {
        // Solving B after a larger A through one scratch must equal a fresh
        // solve of B: the workspace is fully overwritten per job.
        let mut rng = Rng::seed_from_u64(8);
        let big = random_symmetric(32, &mut rng);
        let small = random_symmetric(7, &mut rng);
        let mut scratch = EigScratch::new();
        let _ = sym_eig_with_scratch(&big, &mut scratch).unwrap();
        let reused = sym_eig_with_scratch(&small, &mut scratch).unwrap();
        let fresh = sym_eig(&small).unwrap();
        assert_eq!(
            reused.vectors.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            fresh.vectors.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_and_single_batches() {
        assert!(sym_eig_batch_timed(&[], 0).is_empty());
        let mut rng = Rng::seed_from_u64(9);
        let m = random_symmetric(6, &mut rng);
        let one = sym_eig_batch_timed(&[&m], 0);
        assert_eq!(one.len(), 1);
        assert!(one[0].0.is_ok());
    }
}
