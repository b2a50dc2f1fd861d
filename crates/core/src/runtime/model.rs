//! Cross-iteration overlap cost model.
//!
//! The within-step [`crate::pipeline::StepModel`] ends at the KL-clip
//! scale, so it cannot express the runtime's headline trick: on steps where
//! the factor folds feed nothing until the *next* eigendecomposition
//! update, the task runtime lets a still-in-flight factor reduction (and
//! its fold) drift past the scale barrier and overlap the next iteration's
//! forward/backward pass. [`CrossIterModel`] models a two-iteration window
//! of the full training loop — forward/backward, DDP gradient allreduce,
//! and the K-FAC factor/precondition/scale phases — under both executors'
//! dependency structures:
//!
//! - [`OverlapMode::Pipelined`]: `step()` is a barrier. Factor finalize
//!   waits for the DDP allreduce (the trainer calls `step` after it),
//!   preconditioning waits for every factor fold, and the next iteration's
//!   forward pass waits for the scale — nothing crosses the step edge.
//! - [`OverlapMode::Runtime`]: `step_begin` issues factor reductions right
//!   after the backward pass, and preconditioning needs only the (cached)
//!   decompositions plus the DDP-averaged gradients — so factor
//!   communication and folds are free to run concurrently with the next
//!   iteration's forward/backward compute.
//!
//! Tasks, durations, and resources are identical in both modes; only the
//! dependency edges differ. Makespans come from the same greedy
//! earliest-start list schedule used by the within-step model.

use kaisa_comm::{ClusterNetwork, CollectiveCostModel};

use crate::pipeline::ComputeRates;
use crate::state::factor_payload_len;

/// Which executor's dependency structure the model applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverlapMode {
    /// Monolithic `step()`: a barrier at each iteration boundary.
    Pipelined,
    /// Task runtime with the `step_begin`/`step_finish` lookahead split.
    Runtime,
}

/// Shape of a depth-D cross-iteration window for
/// [`CrossIterModel::windowed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpec {
    /// Maximum in-flight step DAGs: a factor-update iteration's comm/fold
    /// residue may drain under up to `depth - 1` later iterations (its
    /// folds must land by the scale of iteration `k + depth - 1`). Depth 1
    /// is the barrier semantics of the monolithic `step()`.
    pub depth: usize,
    /// Iterations between factor updates (`KfacConfig::factor_update_freq`)
    /// — iterations out of phase carry no factor tasks at all, which is
    /// what lets a deep window drain between updates.
    pub factor_update_freq: usize,
    /// Number of iterations in the modeled window.
    pub iterations: usize,
}

/// Stage label of one modeled task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrossStage {
    /// Forward and backward passes of one rank's micro-batch.
    FwdBwd,
    /// Data-parallel gradient allreduce.
    DdpAllreduce,
    /// Per-rank finalization/packing of captured factor statistics.
    FactorFinalize,
    /// One layer's factor allreduce on the network.
    FactorComm,
    /// One layer's fold of the averaged factors into the running state.
    FactorFold,
    /// Per-rank gradient preconditioning.
    Precondition,
    /// Preconditioned-gradient broadcast on the network.
    GradBcast,
    /// KL-clip scale and write-back.
    ScaleUpdate,
}

/// One modeled task: a stage instance within an iteration, pinned to a
/// rank's compute stream or the shared network.
#[derive(Debug, Clone)]
pub struct CrossTask {
    /// Stage label.
    pub stage: CrossStage,
    /// Iteration index within the window (0 or 1).
    pub iter: usize,
    /// Executing rank for compute tasks; `None` for network tasks.
    pub rank: Option<usize>,
    /// Layer index for per-layer tasks.
    pub layer: Option<usize>,
    /// Modeled duration in seconds.
    pub duration: f64,
    deps: Vec<usize>,
}

/// A scheduled task's `[start, finish)` interval.
#[derive(Debug, Clone, Copy)]
pub struct Interval {
    /// Start time in seconds.
    pub start: f64,
    /// Finish time in seconds.
    pub finish: f64,
}

/// Cost model of an `iterations`-long training-loop window under one
/// executor's dependency structure.
pub struct CrossIterModel {
    tasks: Vec<CrossTask>,
    world: usize,
    iterations: usize,
}

impl CrossIterModel {
    /// Build the classic two-iteration window for `dims` (per-layer
    /// `(a, g)` factor dimensions) on `world` ranks over `network`, with
    /// per-rank batch size `batch`. Equivalent to
    /// [`CrossIterModel::windowed`] at `factor_update_freq = 1` over two
    /// iterations, with depth 1 (`Pipelined`) or depth 2 (`Runtime`).
    pub fn new(
        dims: &[(usize, usize)],
        world: usize,
        network: ClusterNetwork,
        batch: usize,
        mode: OverlapMode,
    ) -> Self {
        let depth = match mode {
            OverlapMode::Pipelined => 1,
            OverlapMode::Runtime => 2,
        };
        Self::windowed(
            dims,
            world,
            network,
            batch,
            WindowSpec { depth, factor_update_freq: 1, iterations: 2 },
        )
    }

    /// Build a depth-D cross-iteration window: `spec.iterations` iterations
    /// at `spec.factor_update_freq`, holding up to `spec.depth` in-flight
    /// step DAGs. Depth 1 reproduces the monolithic step's barriers (factor
    /// finalize behind the DDP allreduce, preconditioning behind every
    /// fold, nothing crossing the scale). Depth D ≥ 2 issues factor work
    /// right after the backward pass and lets a factor iteration's
    /// comm/fold residue drain under later iterations, constrained by the
    /// live window's two drain rules: folds of iteration `k` must land
    /// before the scale of iteration `k + D - 1` (age-based force drain)
    /// and before the next factor iteration's finalize (EMA fold ordering).
    pub fn windowed(
        dims: &[(usize, usize)],
        world: usize,
        network: ClusterNetwork,
        batch: usize,
        spec: WindowSpec,
    ) -> Self {
        assert!(world > 0, "world must be non-empty");
        assert!(!dims.is_empty(), "model needs at least one layer");
        assert!(spec.depth >= 1, "window depth must be at least 1");
        assert!(spec.factor_update_freq >= 1, "factor_update_freq must be positive");
        assert!(spec.iterations >= 1, "window needs at least one iteration");
        let cost = CollectiveCostModel::new(network);
        let rates = ComputeRates::default();
        let b = batch.max(1) as f64;
        let depth = spec.depth;

        let fwd_bwd: f64 = dims.iter().map(|&(a, g)| 6.0 * a as f64 * g as f64 * b).sum::<f64>()
            / rates.gemm_flops;
        let finalize: f64 =
            dims.iter().map(|&(a, g)| (a as f64 * a as f64 + g as f64 * g as f64) * b).sum::<f64>()
                / rates.gemm_flops;
        let grad_bytes: usize = dims.iter().map(|&(a, g)| a * g * 4).sum();
        let ddp = cost.allreduce(grad_bytes, world);
        let precond: f64 =
            dims.iter().map(|&(a, g)| 2.0 * a as f64 * g as f64 * (a + g) as f64).sum::<f64>()
                / rates.gemm_flops;
        let grad_bcast = cost.broadcast(grad_bytes, world);
        let scale: f64 = dims.iter().map(|&(a, g)| (a * g) as f64).sum::<f64>() / rates.gemm_flops;

        let mut tasks: Vec<CrossTask> = Vec::new();
        let mut push = |stage, iter, rank, layer, duration, deps: Vec<usize>| -> usize {
            tasks.push(CrossTask { stage, iter, rank, layer, duration, deps });
            tasks.len() - 1
        };

        let mut prev_scale: Vec<Option<usize>> = vec![None; world];
        // Folds of the most recent factor iteration (EMA-order the next
        // factor iteration's finalize behind them at depth ≥ 2).
        let mut last_folds: Vec<usize> = Vec::new();
        // Per-iteration fold deadlines: folds of factor iteration `k` gate
        // the scale of iteration `k + depth - 1` when it lies in-window.
        let mut fold_deadline: Vec<Vec<usize>> = vec![Vec::new(); spec.iterations];
        for iter in 0..spec.iterations {
            let factor_iter = iter % spec.factor_update_freq == 0;
            let fb: Vec<usize> = (0..world)
                .map(|r| {
                    let deps: Vec<usize> = prev_scale[r].into_iter().collect();
                    push(CrossStage::FwdBwd, iter, Some(r), None, fwd_bwd, deps)
                })
                .collect();
            let ddp_id = push(CrossStage::DdpAllreduce, iter, None, None, ddp, fb.clone());
            let mut folds: Vec<usize> = Vec::new();
            if factor_iter {
                let fin: Vec<usize> = (0..world)
                    .map(|r| {
                        let deps = if depth == 1 {
                            // The trainer calls `step()` after the DDP
                            // allreduce; factor work starts behind it.
                            vec![ddp_id]
                        } else {
                            // `step_begin` runs right after the backward
                            // pass — but only once the previous factor
                            // iteration's folds landed (EMA ordering).
                            let mut d = vec![fb[r]];
                            d.extend(&last_folds);
                            d
                        };
                        push(CrossStage::FactorFinalize, iter, Some(r), None, finalize, deps)
                    })
                    .collect();
                for (i, &(a, g)) in dims.iter().enumerate() {
                    let payload = factor_payload_len(a, g, false) * 4;
                    let comm_id = push(
                        CrossStage::FactorComm,
                        iter,
                        None,
                        Some(i),
                        cost.allreduce(payload, world),
                        fin.clone(),
                    );
                    let fold = (a as f64 * a as f64 + g as f64 * g as f64) / rates.gemm_flops;
                    folds.push(push(
                        CrossStage::FactorFold,
                        iter,
                        Some(i % world),
                        Some(i),
                        fold,
                        vec![comm_id],
                    ));
                }
                if depth >= 2 {
                    let deadline = iter + depth - 1;
                    if deadline < spec.iterations {
                        fold_deadline[deadline].extend(&folds);
                    }
                    last_folds = folds.clone();
                }
            }
            let pre: Vec<usize> = (0..world)
                .map(|r| {
                    let deps = if depth == 1 {
                        // `step()` preconditions only after the whole
                        // factor phase drained.
                        let mut d = vec![ddp_id];
                        d.extend(&folds);
                        d
                    } else {
                        // Preconditioning reads cached decompositions and
                        // the DDP-averaged gradients; folds feed only the
                        // *next* eig update and may drift.
                        vec![ddp_id]
                    };
                    push(CrossStage::Precondition, iter, Some(r), None, precond, deps)
                })
                .collect();
            let gb = push(CrossStage::GradBcast, iter, None, None, grad_bcast, pre);
            for (r, slot) in prev_scale.iter_mut().enumerate() {
                let mut deps = vec![gb];
                deps.extend(&fold_deadline[iter]);
                *slot = Some(push(CrossStage::ScaleUpdate, iter, Some(r), None, scale, deps));
            }
        }
        CrossIterModel { tasks, world, iterations: spec.iterations }
    }

    /// The modeled tasks (indices match [`CrossIterModel::schedule`]).
    pub fn tasks(&self) -> &[CrossTask] {
        &self.tasks
    }

    /// Greedy earliest-start schedule over `world` compute streams plus one
    /// shared network resource. Ties break toward *non-deferrable* work
    /// (everything but factor comm/folds) and then toward lower task ids —
    /// the live scheduler's policy of letting the critical DDP/grad-bcast
    /// chain through while deferrable factor traffic fills the gaps.
    pub fn schedule(&self) -> Vec<Interval> {
        fn deferrable(stage: CrossStage) -> usize {
            usize::from(matches!(stage, CrossStage::FactorComm | CrossStage::FactorFold))
        }
        let n = self.tasks.len();
        let mut compute_free = vec![0.0f64; self.world];
        let mut network_free = 0.0f64;
        let mut itv = vec![Interval { start: 0.0, finish: 0.0 }; n];
        let mut done = vec![false; n];
        for _ in 0..n {
            let mut pick: Option<(usize, f64, usize)> = None;
            for (id, task) in self.tasks.iter().enumerate() {
                if done[id] || !task.deps.iter().all(|&d| done[d]) {
                    continue;
                }
                let deps_done = task.deps.iter().map(|&d| itv[d].finish).fold(0.0f64, f64::max);
                let free = match task.rank {
                    Some(r) => compute_free[r],
                    None => network_free,
                };
                let start = deps_done.max(free);
                let class = deferrable(task.stage);
                if pick.map_or(true, |(_, s, c)| start < s || (start == s && class < c)) {
                    pick = Some((id, start, class));
                }
            }
            let (id, start, _) = pick.expect("window DAG is acyclic: some task is always ready");
            let finish = start + self.tasks[id].duration;
            match self.tasks[id].rank {
                Some(r) => compute_free[r] = finish,
                None => network_free = finish,
            }
            itv[id] = Interval { start, finish };
            done[id] = true;
        }
        itv
    }

    /// Makespan of the greedy schedule.
    pub fn makespan(&self) -> f64 {
        self.schedule().iter().map(|t| t.finish).fold(0.0, f64::max)
    }

    /// Makespan divided by the window's iteration count — the modeled
    /// amortized per-iteration time, comparable across window depths.
    pub fn amortized_iteration_seconds(&self) -> f64 {
        self.makespan() / self.iterations as f64
    }

    /// Number of `(iteration-0 factor comm/fold, iteration-1 fwd/bwd)` task
    /// pairs whose scheduled intervals strictly overlap — the modeled
    /// cross-iteration overlap the runtime executor unlocks.
    pub fn cross_iteration_overlap_pairs(&self) -> usize {
        let itv = self.schedule();
        let mut pairs = 0;
        for (i, a) in self.tasks.iter().enumerate() {
            if a.iter != 0 || !matches!(a.stage, CrossStage::FactorComm | CrossStage::FactorFold) {
                continue;
            }
            for (j, b) in self.tasks.iter().enumerate() {
                if b.iter == 1
                    && matches!(b.stage, CrossStage::FwdBwd)
                    && itv[i].start < itv[j].finish
                    && itv[j].start < itv[i].finish
                {
                    pairs += 1;
                }
            }
        }
        pairs
    }
}

/// Modeled two-iteration makespans `(pipelined, runtime)` for a layer set.
/// The runtime figure is clamped to the pipelined one: the live runtime can
/// always fall back to the monolithic step's issue order, so a greedy
/// scheduling anomaly never makes it *slower* in practice.
pub fn modeled_cross_iter_makespans(
    dims: &[(usize, usize)],
    world: usize,
    network: ClusterNetwork,
    batch: usize,
) -> (f64, f64) {
    let pipelined = CrossIterModel::new(dims, world, network, batch, OverlapMode::Pipelined);
    let runtime = CrossIterModel::new(dims, world, network, batch, OverlapMode::Runtime);
    let p = pipelined.makespan();
    (p, runtime.makespan().min(p))
}

/// Modeled amortized per-iteration seconds for window depths `1..=max_depth`
/// at `factor_update_freq`, as `(depth, seconds)` pairs. Each window spans
/// `max(2 * factor_update_freq, depth + 1)` iterations (two factor updates,
/// or enough room for the deepest residue). Values are clamped monotone
/// non-increasing in depth: the live window can always drain eagerly and
/// behave as a shallower one, so a greedy scheduling anomaly never makes a
/// deeper window model *slower* — the same clamp
/// [`modeled_cross_iter_makespans`] applies to runtime vs. pipelined.
pub fn modeled_depth_makespans(
    dims: &[(usize, usize)],
    world: usize,
    network: ClusterNetwork,
    batch: usize,
    factor_update_freq: usize,
    max_depth: usize,
) -> Vec<(usize, f64)> {
    assert!(max_depth >= 1, "need at least depth 1");
    let mut out: Vec<(usize, f64)> = Vec::with_capacity(max_depth);
    for depth in 1..=max_depth {
        let iterations = (2 * factor_update_freq).max(depth + 1);
        let model = CrossIterModel::windowed(
            dims,
            world,
            network,
            batch,
            WindowSpec { depth, factor_update_freq, iterations },
        );
        let mut amortized = model.amortized_iteration_seconds();
        if let Some(&(_, prev)) = out.last() {
            amortized = amortized.min(prev);
        }
        out.push((depth, amortized));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resnet_ish() -> Vec<(usize, usize)> {
        vec![(576, 64), (1152, 128), (2304, 256), (4608, 512), (512, 10)]
    }

    #[test]
    fn runtime_mode_overlaps_factor_work_with_next_forward() {
        let model = CrossIterModel::new(
            &resnet_ish(),
            4,
            ClusterNetwork::ethernet_10g(),
            32,
            OverlapMode::Runtime,
        );
        assert!(
            model.cross_iteration_overlap_pairs() > 0,
            "runtime mode must overlap at least one iteration-0 factor comm/fold \
             with an iteration-1 forward/backward"
        );
    }

    #[test]
    fn pipelined_mode_never_crosses_the_step_barrier() {
        let model = CrossIterModel::new(
            &resnet_ish(),
            4,
            ClusterNetwork::ethernet_10g(),
            32,
            OverlapMode::Pipelined,
        );
        assert_eq!(
            model.cross_iteration_overlap_pairs(),
            0,
            "pipelined mode's scale barrier must forbid cross-iteration overlap"
        );
    }

    #[test]
    fn runtime_makespan_never_exceeds_monolithic_step() {
        for world in [1, 2, 4, 8] {
            for network in [ClusterNetwork::ethernet_10g(), ClusterNetwork::infiniband_edr()] {
                let (pipelined, runtime) =
                    modeled_cross_iter_makespans(&resnet_ish(), world, network, 32);
                assert!(
                    runtime <= pipelined + 1e-12,
                    "world {world}: runtime {runtime} > pipelined {pipelined}"
                );
                assert!(runtime > 0.0 && pipelined.is_finite());
            }
        }
    }

    #[test]
    fn comm_bound_network_shows_a_real_win() {
        // On 10 GbE the factor allreduces dominate; hoisting them across
        // the iteration boundary must shorten the two-iteration window.
        let (pipelined, runtime) =
            modeled_cross_iter_makespans(&resnet_ish(), 8, ClusterNetwork::ethernet_10g(), 32);
        assert!(
            runtime < pipelined * 0.999,
            "expected a strict cross-iteration win, pipelined={pipelined} runtime={runtime}"
        );
    }

    /// The fig7 reference network: the mixed conv/linear ResNetMini layer
    /// dims the fig7 binary's cost-model and depth-sweep tables print.
    fn resnet_mini_dims() -> Vec<(usize, usize)> {
        vec![
            (27, 32),
            (288, 32),
            (288, 32),
            (288, 32),
            (288, 32),
            (288, 64),
            (576, 64),
            (32, 64),
            (576, 64),
            (576, 64),
            (65, 10),
        ]
    }

    #[test]
    fn depth_two_amortized_strictly_beats_depth_one_on_fig7_reference() {
        // The acceptance bar: on the fig7 reference config (ResNetMini at
        // world 8 over 10 GbE, factor_update_freq 5) the window model must
        // predict a strictly lower amortized per-iteration time for every
        // depth ≥ 2 than for depth 1.
        let table = modeled_depth_makespans(
            &resnet_mini_dims(),
            8,
            ClusterNetwork::ethernet_10g(),
            32,
            5,
            4,
        );
        assert_eq!(table[0].0, 1);
        let depth1 = table[0].1;
        for &(depth, amortized) in &table[1..] {
            assert!(
                amortized < depth1,
                "depth {depth} amortized {amortized} must be strictly below \
                 depth 1's {depth1}"
            );
        }
    }

    #[test]
    fn depth_table_is_monotone_non_increasing() {
        for world in [2, 4, 8] {
            let table = modeled_depth_makespans(
                &resnet_ish(),
                world,
                ClusterNetwork::ethernet_10g(),
                32,
                10,
                4,
            );
            for pair in table.windows(2) {
                assert!(
                    pair[1].1 <= pair[0].1 + 1e-15,
                    "world {world}: depth {} ({}) models worse than depth {} ({})",
                    pair[1].0,
                    pair[1].1,
                    pair[0].0,
                    pair[0].1
                );
            }
        }
    }

    #[test]
    fn legacy_two_iteration_window_maps_onto_windowed() {
        let dims = resnet_ish();
        let net = ClusterNetwork::ethernet_10g();
        for (mode, depth) in [(OverlapMode::Pipelined, 1), (OverlapMode::Runtime, 2)] {
            let legacy = CrossIterModel::new(&dims, 4, net, 32, mode);
            let windowed = CrossIterModel::windowed(
                &dims,
                4,
                net,
                32,
                WindowSpec { depth, factor_update_freq: 1, iterations: 2 },
            );
            assert_eq!(legacy.tasks().len(), windowed.tasks().len());
            assert!((legacy.makespan() - windowed.makespan()).abs() < 1e-15);
        }
    }

    #[test]
    fn out_of_phase_iterations_carry_no_factor_tasks() {
        let model = CrossIterModel::windowed(
            &resnet_ish(),
            4,
            ClusterNetwork::ethernet_10g(),
            32,
            WindowSpec { depth: 3, factor_update_freq: 5, iterations: 10 },
        );
        for t in model.tasks() {
            if matches!(
                t.stage,
                CrossStage::FactorFinalize | CrossStage::FactorComm | CrossStage::FactorFold
            ) {
                assert_eq!(t.iter % 5, 0, "factor task planned on out-of-phase iteration");
            }
        }
    }

    #[test]
    fn both_modes_schedule_every_task_exactly_once() {
        let model = CrossIterModel::new(
            &resnet_ish(),
            2,
            ClusterNetwork::dgx_a100(),
            32,
            OverlapMode::Runtime,
        );
        let itv = model.schedule();
        assert_eq!(itv.len(), model.tasks().len());
        for t in &itv {
            assert!(t.finish >= t.start);
        }
    }
}
