//! Per-rank cooperative task runtime with cross-iteration phase overlap.
//!
//! `Kfac::step` has two executors: the serial reference
//! (`crate::preconditioner`), which walks each layer through its stages
//! and blocks at every collective, and this runtime, the one fast path.
//! Stage work becomes polled task units on a per-rank ready-queue
//! [`scheduler::Scheduler`]. A task blocked on an in-flight collective
//! *parks*, yielding the rank to any runnable task. `Kfac::step` runs the
//! whole DAG at once; with `KfacConfig::async_runtime` the caller drives
//! the [`crate::Kfac::step_begin`]/[`crate::Kfac::step_finish`] split
//! itself, so the next iteration's factor-accumulation collectives launch
//! before the current DDP allreduce, overlapping phases across the
//! iteration boundary. Collective begin order is pinned per communication
//! group by plan-time gates (phases in order, layers `0..n` within a
//! phase), so the runtime stays bitwise identical to the serial executor.
//! A stall watchdog converts a mismatched collective into a per-rank
//! task-state diagnostic panic instead of a hang; it fires only once every
//! rank of the world sits idle, so a slow peer never trips it.
//!
//! With `KfacConfig::cross_iter_depth` beyond 1, the lookahead generalizes
//! to a **depth-D scheduling window**: `step_finish` may retire a
//! factor-update step whose deferred fold completes are still in flight,
//! holding the residue DAG in a window ring that drains opportunistically
//! under later iterations' compute — force-drained before the next
//! factor-update step (EMA fold ordering) and after `D - 1` iterations
//! (age bound). Only ungated complete-side tasks ever defer, so the
//! per-group collective begin order — the bitwise-equivalence mechanism —
//! is untouched.
//!
//! [`model::CrossIterModel`] extends the cost model across an
//! `iterations`-long window at any depth to predict the overlap win;
//! `kaisa-sim`, the `fig7` bench and `bench_report` consume it. The depth
//! itself is always the caller's fixed `KfacConfig::cross_iter_depth`.
//!
//! The runtime's per-layer {A, G} eigensolve pair-batch
//! (`kaisa_linalg::sym_eig_batch_timed`) is the only batched eigensolve
//! site; the serial reference solves each factor inline, so the
//! equivalence suites check the batch against an unbatched oracle.

pub mod executor;
pub mod model;
pub mod scheduler;

pub use model::{
    modeled_cross_iter_makespans, modeled_depth_makespans, CrossIterModel, CrossStage, Interval,
    OverlapMode, WindowSpec,
};
pub use scheduler::{Scheduler, TaskPoll};
