//! # kaisa-linalg
//!
//! Dense linear algebra kernels used by the KAISA K-FAC preconditioner:
//!
//! * [`sym_eig`] — symmetric eigendecomposition (Householder tridiagonal
//!   reduction + implicit-shift QL), the paper's replacement for matrix
//!   inversion (Section 2.1.3). Factor eigendecompositions produce real
//!   eigenvalues and orthogonal eigenvectors because the Kronecker factors
//!   `A = aᵀa` and `G = gᵀg` are symmetric positive semi-definite.
//! * [`sym_eig_batch_timed`] — queue-drained batched
//!   solves of many independent factors with per-worker reused
//!   [`EigScratch`], bitwise identical to per-call [`sym_eig`]; worker cap
//!   via `KAISA_EIG_BATCH` or the caller.
//! * [`cholesky`] / [`cholesky_solve`] / [`spd_inverse`] — SPD factorizations
//!   for the direct damped-inverse preconditioning baseline (Eq. 12–14),
//!   implemented so the eigendecomposition-vs-inverse ablation in the paper
//!   can be reproduced.
//! * [`lu_inverse`] — general matrix inverse with partial pivoting.
//! * [`pack_upper`] / [`unpack_upper`] — symmetric triangular packing used by
//!   KAISA's triangular factor communication (Section 4.3).
//!
//! All decompositions compute internally in `f64` for stability (mirroring
//! the paper's practice of casting half-precision factors to single precision
//! before eigendecomposition) and return `f32` results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod cholesky;
mod eigen;
mod inverse;
mod triangular;

pub use batch::{eig_batch_workers, sym_eig_batch_timed};
pub use cholesky::{cholesky, cholesky_solve, spd_inverse, CholeskyError};
pub use eigen::{sym_eig, sym_eig_with_scratch, EigScratch, EigenError, SymEig};
pub use inverse::lu_inverse;
pub use triangular::{pack_upper, packed_len, unpack_upper};
