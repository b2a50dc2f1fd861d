//! The task runtime's contract: splitting `Kfac::step` into per-layer stage
//! tasks with non-blocking collectives changes *when* work happens, never
//! *what* is computed. The runtime must be bitwise identical to the serial
//! reference — same preconditioned gradients, same trained weights, same
//! logical communication volume — across every distribution strategy, world
//! size, precision, and communication layout.

use kaisa::comm::{
    ClusterNetwork, CollectiveCostModel, CommTag, Communicator, MeterSnapshot, ThreadComm,
};
use kaisa::core::{
    plan_assignments, AssignmentStrategy, ComputeRates, Kfac, KfacConfig, KfacConfigBuilder,
    StepModel,
};
use kaisa::data::{Dataset, GaussianBlobs, ShardSampler};
use kaisa::nn::models::{Mlp, ResNetMini, ResNetMiniConfig};
use kaisa::nn::Model;
use kaisa::optim::{Optimizer, Sgd};
use kaisa::tensor::{Precision, Rng};
use proptest::prelude::*;

/// Train an MLP for `steps` on `world` ranks and return, per rank, the final
/// parameters, the last preconditioned gradients, the logical K-FAC comm
/// bytes, and the rank's meter snapshot.
fn train(
    world: usize,
    steps: usize,
    seed: u64,
    build: impl Fn(KfacConfigBuilder) -> KfacConfigBuilder + Sync,
) -> Vec<(Vec<f32>, Vec<f32>, u64, MeterSnapshot)> {
    let dataset = GaussianBlobs::generate(128, 8, 4, 0.4, seed);
    ThreadComm::run(world, |comm| {
        let mut model = Mlp::new(&[8, 12, 4], &mut Rng::seed_from_u64(seed + 1));
        let mut opt = Sgd::with_momentum(0.9);
        let cfg = build(KfacConfig::builder().factor_update_freq(2).inv_update_freq(4)).build();
        let mut kfac = Kfac::new(cfg, &mut model, comm);
        let sampler = ShardSampler::new(dataset.len(), world, comm.rank(), 8, seed);
        let mut last_grads = Vec::new();
        for step in 0..steps {
            let epoch = step / sampler.batches_per_epoch();
            let batches = sampler.epoch_batches(epoch);
            let indices = &batches[step % sampler.batches_per_epoch()];
            let (x, y) = dataset.batch(indices);
            kfac.prepare(&mut model);
            model.zero_grad();
            let _ = model.forward_backward(&x, &y);
            kaisa::trainer::allreduce_gradients(&mut model, comm, 1);
            kfac.step(&mut model, comm, 0.1);
            last_grads = model.grads_flat();
            opt.step_model(&mut model, 0.1);
        }
        // Drain any depth-D window residue, then quiesce all ranks so every
        // collective of the final step has been recorded in the meter.
        kfac.flush(comm);
        comm.barrier();
        (model.params_flat(), last_grads, kfac.comm_bytes(), comm.meter_snapshot())
    })
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Assert the two runs produced bit-identical training on every rank.
fn assert_bitwise_equal(
    serial: &[(Vec<f32>, Vec<f32>, u64, MeterSnapshot)],
    candidate: &[(Vec<f32>, Vec<f32>, u64, MeterSnapshot)],
    ctx: &str,
) {
    assert_eq!(serial.len(), candidate.len());
    for (rank, (s, p)) in serial.iter().zip(candidate).enumerate() {
        assert_eq!(bits(&s.0), bits(&p.0), "{ctx}: rank {rank} params differ");
        assert_eq!(bits(&s.1), bits(&p.1), "{ctx}: rank {rank} grads differ");
        assert_eq!(s.2, p.2, "{ctx}: rank {rank} logical comm bytes differ");
    }
}

/// A config transform applied on top of a test's base builder.
type Build = fn(KfacConfigBuilder) -> KfacConfigBuilder;

/// The default executor: `pipelined(true)` runs the task runtime's
/// begin/finish back to back inside `Kfac::step` (what the end-to-end
/// benchmark measures).
const PIPELINED: Build = |b| b.pipelined(true);

/// The caller-driven `async_runtime(true)` split, here driven through the
/// monolithic step.
const ASYNC_RUNTIME: Build = |b| b.async_runtime(true);

/// True if `train`'s MLP plan at (`world`, `frac`) has a layer whose A and
/// G eigensolves land on one rank — the case the runtime solves as a
/// batched {A, G} pair while the serial reference solves each inline.
fn plan_colocates_a_layer(world: usize, frac: f64) -> bool {
    ThreadComm::run(world, |comm| {
        let mut model = Mlp::new(&[8, 12, 4], &mut Rng::seed_from_u64(32));
        let cfg = KfacConfig::builder().grad_worker_frac(frac).build();
        let kfac = Kfac::new(cfg, &mut model, comm);
        kfac.plan().layers.iter().any(|l| l.a_worker == l.g_worker)
    })[0]
}

/// Serial reference vs `config` on the full strategy matrix.
fn check_strategies_and_worlds(name: &str, config: Build) {
    let mut pair_batch_cells = 0;
    for world in [1usize, 2, 4, 8] {
        for frac in [1.0 / world as f64, 0.5, 1.0] {
            let serial = train(world, 10, 31, |b| b.grad_worker_frac(frac).pipelined(false));
            let runtime = train(world, 10, 31, |b| config(b.grad_worker_frac(frac)));
            let ctx = format!("{name} world={world} frac={frac}");
            assert_bitwise_equal(&serial, &runtime, &ctx);
            if world >= 2 && plan_colocates_a_layer(world, frac) {
                pair_batch_cells += 1;
            }
        }
    }
    assert!(
        pair_batch_cells > 0,
        "{name}: no dense cell beyond world 1 runs the runtime's {{A, G}} pair-batch"
    );
}

/// Serial reference vs `config` across precision and communication layouts.
fn check_fp16_triangular_and_sharded(name: &str, config: Build) {
    for (precision, triangular, sharded) in [
        (Precision::Fp16, false, false),
        (Precision::Fp32, true, false),
        (Precision::Fp16, true, false),
        (Precision::Fp16, true, true),
        (Precision::Fp32, false, true),
    ] {
        let layout = move |b: KfacConfigBuilder| {
            b.grad_worker_frac(0.5)
                .precision(precision)
                .triangular_comm(triangular)
                .sharded_factors(sharded)
        };
        let serial = train(4, 8, 47, |b| layout(b).pipelined(false));
        let runtime = train(4, 8, 47, |b| config(layout(b)));
        let ctx = format!("{name} precision={precision:?} tri={triangular} sharded={sharded}");
        assert_bitwise_equal(&serial, &runtime, &ctx);
    }
}

/// Serial reference vs `config` on the variant algorithms: the direct-inverse
/// fallback (Eq. 12–14), the outer-product ablation, and EK-FAC exercise
/// different collectives; all must stay bit-exact.
fn check_variant_algorithms(name: &str, config: Build) {
    let variants: [(&str, Build); 3] = [
        ("inverse", |b| b.use_eigen(false)),
        ("no-precompute", |b| b.precompute_outer(false)),
        ("ekfac", |b| b.ekfac(true)),
    ];
    for (variant_name, variant) in variants {
        let serial = train(4, 8, 59, |b| variant(b.grad_worker_frac(0.5)).pipelined(false));
        let runtime = train(4, 8, 59, |b| config(variant(b.grad_worker_frac(0.5))));
        assert_bitwise_equal(&serial, &runtime, &format!("{name} {variant_name}"));
    }
}

#[test]
fn pipelined_is_bitwise_identical_across_strategies_and_worlds() {
    check_strategies_and_worlds("pipelined", PIPELINED);
}

#[test]
fn pipelined_is_bitwise_identical_with_fp16_and_triangular_comm() {
    check_fp16_triangular_and_sharded("pipelined", PIPELINED);
}

#[test]
fn pipelined_is_bitwise_identical_on_variant_algorithms() {
    check_variant_algorithms("pipelined", PIPELINED);
}

#[test]
fn meter_attributes_every_byte_to_an_issuing_stage() {
    // HYBRID-OPT at world 4 (two gradient workers per layer): factor
    // allreduces, eigendecomposition broadcasts, per-step gradient
    // broadcasts, and the DDP allreduce are all live.
    let results = train(4, 8, 71, |b| b.grad_worker_frac(0.5).pipelined(true));
    for (rank, (_, _, _, meter)) in results.iter().enumerate() {
        assert!(meter.tag_bytes(CommTag::Ddp) > 0, "rank {rank}: DDP untagged");
        assert!(meter.tag_bytes(CommTag::FactorComm) > 0, "rank {rank}: factor allreduce untagged");
        assert!(meter.tag_bytes(CommTag::EigComm) > 0, "rank {rank}: eig broadcast untagged");
        assert!(meter.tag_bytes(CommTag::GradComm) > 0, "rank {rank}: grad broadcast untagged");
        assert_eq!(
            meter.tag_bytes(CommTag::Untagged),
            0,
            "rank {rank}: stage attribution must be exhaustive"
        );
        assert_eq!(
            meter.tag_bytes(CommTag::FactorReduce) + meter.tag_bytes(CommTag::FactorGather),
            0,
            "rank {rank}: dense path must not emit sharded-path tags"
        );
        let tagged: u64 = [
            CommTag::Ddp,
            CommTag::FactorComm,
            CommTag::FactorReduce,
            CommTag::FactorGather,
            CommTag::EigComm,
            CommTag::GradComm,
            CommTag::Untagged,
        ]
        .iter()
        .map(|&t| meter.tag_bytes(t))
        .sum();
        assert_eq!(tagged, meter.total_bytes(), "rank {rank}: bytes leaked a tag");
    }
    // Serial execution routes through the same tagged begin/complete pairs,
    // so its attribution must be identical collective-for-collective.
    let serial = train(4, 8, 71, |b| b.grad_worker_frac(0.5).pipelined(false));
    for (rank, (s, p)) in serial.iter().zip(&results).enumerate() {
        for tag in [CommTag::Ddp, CommTag::FactorComm, CommTag::EigComm, CommTag::GradComm] {
            assert_eq!(
                s.3.tag_bytes(tag),
                p.3.tag_bytes(tag),
                "rank {rank}: {tag:?} bytes differ between executors"
            );
        }
    }
}

/// Assert two runs trained identically (params + preconditioned grads) on
/// every rank, *without* comparing logical comm bytes or meters — the
/// sharded path moves different bytes than the dense reference by design.
fn assert_numerics_equal(
    reference: &[(Vec<f32>, Vec<f32>, u64, MeterSnapshot)],
    candidate: &[(Vec<f32>, Vec<f32>, u64, MeterSnapshot)],
    ctx: &str,
) {
    assert_eq!(reference.len(), candidate.len());
    for (rank, (r, c)) in reference.iter().zip(candidate).enumerate() {
        assert_eq!(bits(&r.0), bits(&c.0), "{ctx}: rank {rank} params differ");
        assert_eq!(bits(&r.1), bits(&c.1), "{ctx}: rank {rank} grads differ");
    }
}

#[test]
fn sharded_factors_match_dense_bitwise_across_strategies_and_worlds() {
    // The tentpole contract: reduce-scatter + worker-group regather folds the
    // exact same averaged factors as the dense allreduce, so training is
    // bitwise identical across MEM-OPT / HYBRID-OPT / COMM-OPT.
    for world in [1usize, 2, 4, 8] {
        for frac in [1.0 / world as f64, 0.5, 1.0] {
            for pipelined in [false, true] {
                let dense = train(world, 10, 83, |b| {
                    b.grad_worker_frac(frac).pipelined(pipelined).sharded_factors(false)
                });
                let sharded = train(world, 10, 83, |b| {
                    b.grad_worker_frac(frac).pipelined(pipelined).sharded_factors(true)
                });
                let ctx = format!("world={world} frac={frac} pipelined={pipelined}");
                assert_numerics_equal(&dense, &sharded, &ctx);
            }
        }
    }
}

#[test]
fn sharded_factors_match_dense_with_fp16_and_triangular_comm() {
    // Elementwise quantization + section packing keep the sharded unpack
    // bitwise equal to the dense whole-payload unpack in every layout.
    for (precision, triangular) in
        [(Precision::Fp16, false), (Precision::Fp32, true), (Precision::Fp16, true)]
    {
        let mk = |sharded: bool| {
            train(4, 8, 89, move |b| {
                b.grad_worker_frac(0.5)
                    .precision(precision)
                    .triangular_comm(triangular)
                    .pipelined(true)
                    .sharded_factors(sharded)
            })
        };
        let ctx = format!("precision={precision:?} triangular={triangular}");
        assert_numerics_equal(&mk(false), &mk(true), &ctx);
    }
}

#[test]
fn sharded_serial_and_pipelined_are_bitwise_identical() {
    // Within the sharded path the two executors issue identical collectives,
    // so everything — including logical comm bytes — must match.
    for world in [2usize, 4] {
        let serial = train(world, 10, 97, |b| {
            b.grad_worker_frac(0.5).pipelined(false).sharded_factors(true)
        });
        let pipelined =
            train(world, 10, 97, |b| b.grad_worker_frac(0.5).pipelined(true).sharded_factors(true));
        assert_bitwise_equal(&serial, &pipelined, &format!("sharded world={world}"));
    }
}

#[test]
fn sharded_inverse_fallback_regathers_split_factors() {
    // With use_eigen(false) the direct-inverse solver consumes both factors
    // on one rank, so layers whose A/G shards landed on different workers
    // must regather — and the result still matches the dense fallback.
    let dense = train(4, 8, 101, |b| {
        b.grad_worker_frac(0.5).use_eigen(false).pipelined(true).sharded_factors(false)
    });
    let sharded = train(4, 8, 101, |b| {
        b.grad_worker_frac(0.5).use_eigen(false).pipelined(true).sharded_factors(true)
    });
    assert_numerics_equal(&dense, &sharded, "inverse fallback");
    let gather_bytes: u64 =
        sharded.iter().map(|(_, _, _, m)| m.tag_bytes(CommTag::FactorGather)).sum();
    assert!(gather_bytes > 0, "split-worker layers must regather under the inverse fallback");
    let eigen_path =
        train(4, 8, 101, |b| b.grad_worker_frac(0.5).pipelined(true).sharded_factors(true));
    let eigen_gather: u64 =
        eigen_path.iter().map(|(_, _, _, m)| m.tag_bytes(CommTag::FactorGather)).sum();
    assert_eq!(eigen_gather, 0, "the eigen path folds shards in place and never regathers");
}

#[test]
fn sharded_factors_cut_metered_factor_bytes_at_world_8() {
    // The acceptance bound: at world 8, per-rank metered factor traffic on
    // the sharded path must drop >= 40% vs the dense allreduce.
    let dense = train(8, 10, 103, |b| b.grad_worker_frac(0.5).pipelined(true));
    let sharded =
        train(8, 10, 103, |b| b.grad_worker_frac(0.5).pipelined(true).sharded_factors(true));
    for (rank, (d, s)) in dense.iter().zip(&sharded).enumerate() {
        let dense_factor = d.3.tag_bytes(CommTag::FactorComm);
        let sharded_factor =
            s.3.tag_bytes(CommTag::FactorReduce) + s.3.tag_bytes(CommTag::FactorGather);
        assert!(dense_factor > 0, "rank {rank}: dense factor traffic missing");
        assert!(
            (sharded_factor as f64) <= 0.6 * dense_factor as f64,
            "rank {rank}: sharded factor bytes {sharded_factor} not >=40% below dense {dense_factor}"
        );
        assert_eq!(
            s.3.tag_bytes(CommTag::FactorComm),
            0,
            "rank {rank}: sharded path must not fall back to the dense allreduce"
        );
    }
}

/// Like [`train`], but drives the task runtime through the trainer's
/// two-step lookahead split: `step_begin` launches factor collectives
/// *before* the DDP gradient allreduce, `step_finish` drains them after.
fn train_lookahead(
    world: usize,
    steps: usize,
    seed: u64,
    build: impl Fn(KfacConfigBuilder) -> KfacConfigBuilder + Sync,
) -> Vec<(Vec<f32>, Vec<f32>, u64, MeterSnapshot)> {
    let dataset = GaussianBlobs::generate(128, 8, 4, 0.4, seed);
    ThreadComm::run(world, |comm| {
        let mut model = Mlp::new(&[8, 12, 4], &mut Rng::seed_from_u64(seed + 1));
        let mut opt = Sgd::with_momentum(0.9);
        let cfg = build(
            KfacConfig::builder().factor_update_freq(2).inv_update_freq(4).async_runtime(true),
        )
        .build();
        let mut kfac = Kfac::new(cfg, &mut model, comm);
        let sampler = ShardSampler::new(dataset.len(), world, comm.rank(), 8, seed);
        let mut last_grads = Vec::new();
        for step in 0..steps {
            let epoch = step / sampler.batches_per_epoch();
            let batches = sampler.epoch_batches(epoch);
            let indices = &batches[step % sampler.batches_per_epoch()];
            let (x, y) = dataset.batch(indices);
            kfac.prepare(&mut model);
            model.zero_grad();
            let _ = model.forward_backward(&x, &y);
            kfac.step_begin(&mut model, comm);
            kaisa::trainer::allreduce_gradients(&mut model, comm, 1);
            kfac.step_finish(&mut model, comm, 0.1);
            last_grads = model.grads_flat();
            opt.step_model(&mut model, 0.1);
        }
        kfac.flush(comm);
        comm.barrier();
        (model.params_flat(), last_grads, kfac.comm_bytes(), comm.meter_snapshot())
    })
}

#[test]
fn async_runtime_is_bitwise_identical_across_strategies_and_worlds() {
    // The tentpole contract: the task runtime replays the serial executor's
    // collective order through plan-time gates, so training is bitwise
    // identical to the serial reference on the full strategy matrix.
    check_strategies_and_worlds("async_runtime", ASYNC_RUNTIME);
}

#[test]
fn async_runtime_is_bitwise_identical_with_fp16_triangular_and_sharded() {
    check_fp16_triangular_and_sharded("async_runtime", ASYNC_RUNTIME);
}

#[test]
fn async_runtime_is_bitwise_identical_on_variant_algorithms() {
    check_variant_algorithms("async_runtime", ASYNC_RUNTIME);
}

#[test]
fn lookahead_split_is_bitwise_identical_to_monolithic_step() {
    // step_begin before the DDP allreduce + step_finish after must equal the
    // serial reference exactly: factor collectives and the DDP allreduce are
    // independent, and rank-ordered reductions pin every bit.
    for (frac, sharded) in [(0.5, false), (0.25, false), (0.5, true)] {
        let serial = train(4, 10, 113, |b| {
            b.grad_worker_frac(frac).sharded_factors(sharded).pipelined(false)
        });
        let split =
            train_lookahead(4, 10, 113, |b| b.grad_worker_frac(frac).sharded_factors(sharded));
        let ctx = format!("lookahead frac={frac} sharded={sharded}");
        assert_bitwise_equal(&serial, &split, &ctx);
    }
}

/// Like [`train_lookahead`], but with gradient accumulation: each step's
/// indices split into `grad_accum` micro-batches whose gradients (and K-FAC
/// statistics) accumulate before the split-step K-FAC update.
fn train_lookahead_accum(
    world: usize,
    steps: usize,
    seed: u64,
    grad_accum: usize,
    build: impl Fn(KfacConfigBuilder) -> KfacConfigBuilder + Sync,
) -> Vec<(Vec<f32>, Vec<f32>, u64, MeterSnapshot)> {
    let dataset = GaussianBlobs::generate(128, 8, 4, 0.4, seed);
    ThreadComm::run(world, |comm| {
        let mut model = Mlp::new(&[8, 12, 4], &mut Rng::seed_from_u64(seed + 1));
        let mut opt = Sgd::with_momentum(0.9);
        let cfg = build(
            KfacConfig::builder().factor_update_freq(2).inv_update_freq(4).async_runtime(true),
        )
        .build();
        let mut kfac = Kfac::new(cfg, &mut model, comm);
        let sampler = ShardSampler::new(dataset.len(), world, comm.rank(), 8, seed);
        let mut last_grads = Vec::new();
        for step in 0..steps {
            let epoch = step / sampler.batches_per_epoch();
            let batches = sampler.epoch_batches(epoch);
            let indices = &batches[step % sampler.batches_per_epoch()];
            kfac.prepare(&mut model);
            model.zero_grad();
            let micro = indices.len().div_ceil(grad_accum).max(1);
            for chunk in indices.chunks(micro) {
                let (x, y) = dataset.batch(chunk);
                let _ = model.forward_backward(&x, &y);
            }
            kfac.step_begin(&mut model, comm);
            kaisa::trainer::allreduce_gradients(&mut model, comm, grad_accum);
            kfac.step_finish(&mut model, comm, 0.1);
            last_grads = model.grads_flat();
            opt.step_model(&mut model, 0.1);
        }
        kfac.flush(comm);
        comm.barrier();
        (model.params_flat(), last_grads, kfac.comm_bytes(), comm.meter_snapshot())
    })
}

#[test]
fn depth_window_is_bitwise_identical_across_depths_and_layouts() {
    // The tentpole contract: a depth-D cross-iteration window defers factor
    // completes across iteration boundaries but must not change a single
    // bit of training vs the serial executor, dense or sharded.
    for depth in [1usize, 2, 3] {
        for sharded in [false, true] {
            let serial = train(4, 10, 31, |b| {
                b.grad_worker_frac(0.5).pipelined(false).sharded_factors(sharded)
            });
            let windowed = train(4, 10, 31, |b| {
                b.grad_worker_frac(0.5)
                    .async_runtime(true)
                    .cross_iter_depth(depth)
                    .sharded_factors(sharded)
            });
            let ctx = format!("depth={depth} sharded={sharded}");
            assert_bitwise_equal(&serial, &windowed, &ctx);
        }
    }
}

#[test]
fn depth_window_is_bitwise_identical_with_fp16_triangular_and_grad_accum() {
    // Depth 3 through the lookahead split, with half-precision triangular
    // factor payloads and 2-way gradient accumulation — the layouts that
    // most reshape what the deferred completes unpack and fold.
    for (precision, triangular, sharded) in [
        (Precision::Fp16, true, false),
        (Precision::Fp16, false, true),
        (Precision::Fp32, true, true),
    ] {
        let serial = train(4, 8, 47, move |b| {
            b.grad_worker_frac(0.5)
                .precision(precision)
                .triangular_comm(triangular)
                .sharded_factors(sharded)
                .pipelined(false)
        });
        let deep = train_lookahead_accum(4, 8, 47, 1, move |b| {
            b.grad_worker_frac(0.5)
                .precision(precision)
                .triangular_comm(triangular)
                .sharded_factors(sharded)
                .cross_iter_depth(3)
        });
        let ctx = format!("depth=3 precision={precision:?} tri={triangular} sharded={sharded}");
        assert_bitwise_equal(&serial, &deep, &ctx);
    }
    // Gradient accumulation: micro-batch statistics accumulate identically
    // whether the window runs at depth 1 or depth 3.
    let shallow = train_lookahead_accum(4, 8, 53, 2, |b| {
        b.grad_worker_frac(0.5).sharded_factors(true).cross_iter_depth(1)
    });
    let deep = train_lookahead_accum(4, 8, 53, 2, |b| {
        b.grad_worker_frac(0.5).sharded_factors(true).cross_iter_depth(3)
    });
    assert_bitwise_equal(&shallow, &deep, "depth=3 grad_accum=2");
}

#[test]
fn cost_model_shows_overlap_win_on_comm_bound_resnet() {
    // The acceptance configuration: ResNetMini layer dims, world 8,
    // HYBRID-OPT, on a comm-bound 10GbE network. The list-scheduled pipeline
    // must beat the serial lock-step walk.
    let cfg = ResNetMiniConfig {
        in_channels: 3,
        width: 32,
        blocks_stage1: 2,
        blocks_stage2: 2,
        classes: 10,
    };
    let mut model = ResNetMini::new(cfg, &mut Rng::seed_from_u64(5));
    let dims: Vec<(usize, usize)> =
        model.kfac_layers().iter().map(|l| (l.a_dim(), l.g_dim())).collect();
    assert!(dims.len() >= 5, "ResNetMini should expose several K-FAC layers");
    let world = 8;
    let plan = plan_assignments(&dims, world, 0.5, AssignmentStrategy::ComputeLpt);
    let cost = CollectiveCostModel::new(ClusterNetwork::ethernet_10g());
    let m = StepModel::new(&dims, &plan, &cost, &ComputeRates::default(), 4, false);
    assert!(
        m.pipelined_seconds() < m.serial_seconds(),
        "comm-bound world=8 must overlap: pipelined {} vs serial {}",
        m.pipelined_seconds(),
        m.serial_seconds()
    );
    assert!(
        m.overlap_speedup() > 1.2,
        "speedup {} should be material on a comm-bound network",
        m.overlap_speedup()
    );
    // Sanity: the dependency-only critical path lower-bounds the schedule.
    assert!(m.graph().critical_path() <= m.pipelined_seconds() + 1e-15);
    // The task runtime relaxes the lock-step issue order, so its
    // modeled makespan can never exceed the issue-order schedule.
    assert!(
        m.runtime_seconds() <= m.pipelined_seconds() + 1e-15,
        "runtime {} must not exceed pipelined {}",
        m.runtime_seconds(),
        m.pipelined_seconds()
    );
    // And across the iteration boundary the two-iteration window model must
    // overlap iteration-0 factor traffic with iteration-1 forward/backward.
    let (pipelined_w, runtime_w) =
        kaisa::core::modeled_cross_iter_makespans(&dims, world, ClusterNetwork::ethernet_10g(), 32);
    assert!(
        runtime_w <= pipelined_w + 1e-15,
        "cross-iteration window: runtime {runtime_w} must not exceed pipelined {pipelined_w}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn random_configs_stay_bitwise_identical(
        world in 1usize..5,
        frac in 0.2f64..1.0,
        steps in 3usize..8,
        seed in 100u64..200,
        sharded in any::<bool>(),
        runtime in any::<bool>(),
        depth in 1usize..4,
    ) {
        let serial = train(world, steps, seed, |b| {
            b.grad_worker_frac(frac).pipelined(false).sharded_factors(sharded)
        });
        let pipelined = train(world, steps, seed, |b| {
            b.grad_worker_frac(frac)
                .pipelined(!runtime)
                .async_runtime(runtime)
                .cross_iter_depth(if runtime { depth } else { 1 })
                .sharded_factors(sharded)
        });
        for (rank, (s, p)) in serial.iter().zip(&pipelined).enumerate() {
            prop_assert_eq!(bits(&s.0), bits(&p.0), "rank {} params", rank);
            prop_assert_eq!(bits(&s.1), bits(&p.1), "rank {} grads", rank);
            prop_assert_eq!(s.2, p.2, "rank {} comm bytes", rank);
        }
    }
}
