//! One repetition of a K-FAC training workload, measured from outside the
//! library.
//!
//! ```text
//! kfacbench --workload <name> --seed <n> [--trace 0|1] [--spans <file>]
//!           [--inject panic|hang]
//! ```
//!
//! Sets up the dataset, the rank world and one model + `Kfac` per rank a
//! few times (set-up alone, to time it), then once more to run a fixed
//! number of optimizer steps with the body of
//! `kaisa_trainer::run_step` (one micro-batch per step), timing every call
//! into a crate's public API. It checks the run (loss falls and is finite,
//! parameters agree bit for bit across ranks, step and collective counts
//! match the plan) and prints one JSON object as its last stdout line.
//! `kfacbench/run.py` runs repetitions of this program under a deadline
//! and aggregates them into the benchmark's metrics.

mod host;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::time::Instant;

use kaisa_comm::{CommOptions, CommTag, Communicator, ThreadComm};
use kaisa_core::{Kfac, KfacConfig, MemoryCategory, Stage};
use kaisa_data::{Dataset, MaskedTokenTask, PatternImages, SequenceRules, ShardSampler};
use kaisa_nn::models::{BertMini, BertMiniConfig, ResNetMini, ResNetMiniConfig};
use kaisa_nn::Model;
use kaisa_optim::{Optimizer, Sgd};
use kaisa_tensor::Rng;
use kaisa_trainer::allreduce_gradients;

use trace::{Span, Tracer};
use workload::{ModelKind, Workload, WORLD};

/// Failure to inject into rank 1 at step 1, to exercise the runner's
/// deadline and failure accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Inject {
    Panic,
    Hang,
}

struct Args {
    workload: Workload,
    seed: u64,
    trace: bool,
    spans: Option<String>,
    inject: Option<Inject>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kv = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                kv.insert(k[2..].to_string(), v.clone());
            }
            _ => return Err(format!("expected --key value pairs, got {pair:?}")),
        }
    }
    let name = kv.remove("workload").ok_or("missing --workload")?;
    let workload = Workload::by_name(&name).ok_or(format!("unknown workload {name:?}"))?;
    let seed = kv.remove("seed").ok_or("missing --seed")?;
    let seed = seed.parse().map_err(|_| format!("bad --seed {seed:?}"))?;
    let trace = match kv.remove("trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("bad --trace {other:?}")),
    };
    let spans = kv.remove("spans");
    let inject = match kv.remove("inject").as_deref() {
        None => None,
        Some("panic") => Some(Inject::Panic),
        Some("hang") => Some(Inject::Hang),
        Some(other) => return Err(format!("bad --inject {other:?}")),
    };
    if let Some(k) = kv.keys().next() {
        return Err(format!("unknown option --{k}"));
    }
    Ok(Args { workload, seed, trace, spans, inject })
}

/// Set-up passes per repetition that only build the world and stop, to
/// time set-up, before the one that trains.
const SETUP_PASSES: usize = 8;

/// Everything one rank thread measured.
struct RankOut {
    loop_s: f64,
    step_s: Vec<f64>,
    /// Process CPU seconds (all threads) during each step, read on this
    /// rank's step boundaries.
    step_cpu_s: Vec<f64>,
    step_steal: Vec<f64>,
    losses: Vec<f32>,
    params: Vec<f32>,
    kfac: Kfac,
    dims: Vec<(usize, usize)>,
    cpu_s: f64,
    steal_frac: f64,
    spans: Vec<Span>,
}

/// The K-FAC step kind of the upcoming step, as a span name.
fn step_kind(kfac: &Kfac) -> &'static str {
    if kfac.is_inv_update_step() {
        "core.step_inv"
    } else if kfac.is_factor_update_step() {
        "core.step_factor"
    } else {
        "core.step_plain"
    }
}

/// One rank's state once set up: everything a step needs.
struct RankSetup<M> {
    model: M,
    kfac: Kfac,
    sampler: ShardSampler,
    /// Seconds from the start of the set-up pass until this rank was ready.
    setup_s: f64,
}

/// The set-up a training job does on each rank before its first step:
/// build the model, the preconditioner (`Kfac::new`) and the shard sampler.
fn rank_setup<M: Model>(
    comm: &ThreadComm,
    args: &Args,
    cfg: &KfacConfig,
    data_len: usize,
    make_model: &(impl Fn() -> M + Sync),
    t0: Instant,
) -> RankSetup<M> {
    let mut model = make_model();
    let kfac = Kfac::new(cfg.clone(), &mut model, comm);
    let sampler = ShardSampler::new(
        data_len,
        WORLD,
        comm.rank(),
        args.workload.local_batch,
        args.seed ^ 0x5A,
    );
    RankSetup { model, kfac, sampler, setup_s: t0.elapsed().as_secs_f64() }
}

fn rank_main<M, D>(
    comm: &ThreadComm,
    args: &Args,
    cfg: &KfacConfig,
    data: &D,
    make_model: &(impl Fn() -> M + Sync),
    t0: Instant,
) -> RankOut
where
    M: Model,
    D: Dataset<Input = M::Input, Target = M::Target> + Sync,
{
    let w = &args.workload;
    let rank = comm.rank();
    let RankSetup { mut model, mut kfac, sampler, .. } =
        rank_setup(comm, args, cfg, data.len(), make_model, t0);
    let mut optimizer = Sgd::with_momentum(0.9);
    let dims = model.kfac_layers().iter().map(|l| (l.a_dim(), l.g_dim())).collect();
    let per_epoch = sampler.batches_per_epoch();
    assert!(per_epoch > 0, "dataset too small for one batch per rank");
    let mut tracer = Tracer::new(args.trace, rank, t0);

    let mut step_s = Vec::with_capacity(w.steps);
    let mut step_cpu_s = Vec::with_capacity(w.steps);
    let mut step_steal = Vec::with_capacity(w.steps);
    let mut losses = Vec::with_capacity(w.steps);
    let mut epoch_batches = Vec::new();
    let cpu0 = host::process_cpu_s();
    let jiffies0 = host::cpu_jiffies();
    let loop_start = Instant::now();
    for step in 0..w.steps {
        if step % per_epoch == 0 {
            epoch_batches = sampler.epoch_batches(step / per_epoch);
        }
        let indices = &epoch_batches[step % per_epoch];
        if rank == 1 && step == 1 {
            match args.inject {
                Some(Inject::Panic) => panic!("injected failure on rank 1 at step 1"),
                Some(Inject::Hang) => loop {
                    std::thread::sleep(std::time::Duration::from_secs(1));
                },
                None => {}
            }
        }
        let jiffies = host::cpu_jiffies();
        let cpu = host::process_cpu_s();
        let start = Instant::now();
        tracer.open("step", step);
        // The body of `kaisa_trainer::run_step` (one micro-batch, default
        // synchronous executor), one span per call into a layer.
        let capture = kfac.is_factor_update_step();
        tracer.span("core.prepare", step, || kfac.prepare(&mut model));
        tracer.span("nn.zero_grad", step, || model.zero_grad());
        let (x, y) = tracer.span("data.batch", step, || data.batch(indices));
        let fwd = if capture { "nn.fwd_bwd_capture" } else { "nn.fwd_bwd_plain" };
        let r = tracer.span(fwd, step, || model.forward_backward(&x, &y));
        tracer.span("trainer.ddp", step, || allreduce_gradients(&mut model, comm, 1));
        let kind = step_kind(&kfac);
        tracer.span(kind, step, || kfac.step(&mut model, comm, w.lr));
        tracer.span("optim.step", step, || optimizer.step_model(&mut model, w.lr));
        tracer.close();
        step_s.push(start.elapsed().as_secs_f64());
        step_cpu_s.push(host::process_cpu_s() - cpu);
        step_steal.push(host::steal_frac(jiffies, host::cpu_jiffies()));
        losses.push(r.loss);
    }
    kfac.flush(comm);
    let loop_s = loop_start.elapsed().as_secs_f64();
    let cpu_s = host::process_cpu_s() - cpu0;
    let steal_frac = host::steal_frac(jiffies0, host::cpu_jiffies());
    let params = model.params_flat();
    RankOut {
        loop_s,
        step_s,
        step_cpu_s,
        step_steal,
        losses,
        params,
        kfac,
        dims,
        cpu_s,
        steal_frac,
        spans: tracer.spans,
    }
}

/// Collective calls per tag the workload's plan implies for one
/// repetition (default config: dense factor allreduce, precomputed
/// eigenvalue outer products).
fn planned_calls(w: &Workload, kfac: &Kfac) -> BTreeMap<&'static str, u64> {
    let layers = &kfac.plan().layers;
    let strat = kfac.strategy_plan();
    let (steps, fsteps, isteps) = (w.steps as u64, w.factor_steps() as u64, w.inv_steps() as u64);
    // Per inverse round and layer: the v_A handoff between split A/G
    // workers, then Q_A, Q_G and the outer product to the gradient workers.
    let eig_per_round: u64 = layers
        .iter()
        .map(|a| {
            u64::from(a.a_worker != a.g_worker) + if a.gradient_workers.len() > 1 { 3 } else { 0 }
        })
        .sum();
    // Per step: one broadcast per preconditioned-gradient group.
    let grad_per_step: u64 = if strat.grad_bcast {
        layers.iter().map(|a| a.bcast_groups.iter().filter(|g| g.len() > 1).count() as u64).sum()
    } else {
        0
    };
    let mut calls = BTreeMap::new();
    for tag in CommTag::ALL {
        calls.insert(tag.name(), 0);
    }
    calls.insert(CommTag::Ddp.name(), steps);
    calls.insert(CommTag::FactorComm.name(), layers.len() as u64 * fsteps);
    calls.insert(CommTag::EigComm.name(), eig_per_round * isteps);
    calls.insert(CommTag::GradComm.name(), grad_per_step * steps);
    calls
}

const STAGES: [(Stage, &str); 7] = [
    (Stage::FactorCompute, "factor_compute"),
    (Stage::FactorComm, "factor_comm"),
    (Stage::EigCompute, "eig_compute"),
    (Stage::EigComm, "eig_comm"),
    (Stage::Precondition, "precondition"),
    (Stage::GradComm, "grad_comm"),
    (Stage::Scale, "scale"),
];

const SPAN_NAMES: [&str; 11] = [
    "step",
    "core.prepare",
    "nn.zero_grad",
    "data.batch",
    "nn.fwd_bwd_capture",
    "nn.fwd_bwd_plain",
    "trainer.ddp",
    "core.step_inv",
    "core.step_factor",
    "core.step_plain",
    "optim.step",
];

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_obj(fields: &[(String, String)]) -> String {
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("{}:{}", json_str(k), v)).collect();
    format!("{{{}}}", body.join(","))
}

fn json_arr(items: impl Iterator<Item = String>) -> String {
    format!("[{}]", items.collect::<Vec<_>>().join(","))
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The resolved implementation knobs every row records.
fn knobs(cfg: &KfacConfig, comm: &ThreadComm) -> String {
    let executor = if cfg.async_runtime {
        "runtime"
    } else if cfg.pipelined {
        "pipelined"
    } else {
        "serial"
    };
    #[cfg(target_arch = "x86_64")]
    let avx2 = std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = false;
    let env: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("KAISA_"))
        .map(|(k, v)| (k, json_str(&v)))
        .collect();
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    json_obj(&[
        ("executor".into(), json_str(executor)),
        (
            "gemm_kernel".into(),
            json_str(&format!("{:?}", kaisa_tensor::gemm_kernel()).to_lowercase()),
        ),
        ("avx2".into(), avx2.to_string()),
        ("syrk".into(), json_str(&format!("{:?}", kaisa_tensor::syrk_mode()).to_lowercase())),
        ("syrk_chunk_rows".into(), kaisa_tensor::syrk_chunk_rows().to_string()),
        ("eig_batch_workers".into(), kaisa_linalg::eig_batch_workers().to_string()),
        ("comm_backend".into(), json_str(&comm.backend().to_string())),
        ("cross_iter_depth".into(), json_str(&format!("{:?}", cfg.cross_iter_depth))),
        ("sharded_factors".into(), cfg.sharded_factors.to_string()),
        ("precision".into(), json_str(&format!("{:?}", cfg.precision))),
        ("available_parallelism".into(), cores.to_string()),
        ("env".into(), json_obj(&env)),
    ])
}

fn run<M, D>(args: &Args, make_data: impl Fn() -> D, make_model: impl Fn() -> M + Sync) -> String
where
    M: Model,
    D: Dataset<Input = M::Input, Target = M::Target> + Sync,
{
    let w = &args.workload;
    let cfg = w.kfac_config();
    // One set-up pass: from before the dataset is generated until the last
    // rank is ready to step, in wall seconds and process CPU seconds.
    let (setup_s, setup_cpu_s): (Vec<f64>, Vec<f64>) = (0..SETUP_PASSES)
        .map(|_| {
            let cpu0 = host::process_cpu_s();
            let t0 = Instant::now();
            let data = make_data();
            let comms = ThreadComm::world_with(WORLD, CommOptions::default());
            std::thread::scope(|scope| {
                let handles: Vec<_> = comms
                    .iter()
                    .map(|comm| {
                        let (cfg, n, make_model) = (&cfg, data.len(), &make_model);
                        scope.spawn(move || rank_setup(comm, args, cfg, n, make_model, t0).setup_s)
                    })
                    .collect();
                let wall = handles
                    .into_iter()
                    .map(|h| h.join().expect("rank thread panicked"))
                    .fold(0.0, f64::max);
                (wall, host::process_cpu_s() - cpu0)
            })
        })
        .unzip();
    let t0 = Instant::now();
    let data = make_data();
    let comms = ThreadComm::world_with(WORLD, CommOptions::default());
    let outs: Vec<RankOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = comms
            .iter()
            .map(|comm| {
                let (cfg, data, make_model) = (&cfg, &data, &make_model);
                scope.spawn(move || rank_main(comm, args, cfg, data, make_model, t0))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("rank thread panicked")).collect()
    });
    // All rank threads have joined, so every collective is metered.
    let meter = comms[0].meter_snapshot();
    let rss_peak = host::rss_peak_bytes();
    let r0 = &outs[0];
    let steps = w.steps as f64;
    let world = WORLD as f64;
    let mut errors: Vec<String> = Vec::new();

    // Loss: mean over ranks, first step vs the mean of the last half (one
    // step's batch loss alone spreads too widely across seeds).
    let tail = (w.steps / 2).max(1);
    let mean_over_ranks = |f: &dyn Fn(&RankOut) -> f64| outs.iter().map(f).sum::<f64>() / world;
    let first_loss = mean_over_ranks(&|o| o.losses[0] as f64);
    let final_loss = mean_over_ranks(&|o| {
        o.losses[w.steps - tail..].iter().map(|&l| l as f64).sum::<f64>() / tail as f64
    });
    if !final_loss.is_finite() || !first_loss.is_finite() {
        errors.push(format!("loss not finite: first {first_loss}, final {final_loss}"));
    } else if final_loss >= first_loss {
        errors.push(format!("final loss {final_loss} not below first-step loss {first_loss}"));
    }
    for (rank, o) in outs.iter().enumerate().skip(1) {
        let same = o.params.len() == r0.params.len()
            && o.params.iter().zip(&r0.params).all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            errors.push(format!("rank {rank} parameters differ from rank 0"));
        }
    }
    for (rank, o) in outs.iter().enumerate() {
        if o.kfac.steps() != w.steps as u64 || o.kfac.stage_times().steps != w.steps as u64 {
            errors.push(format!(
                "rank {rank}: {} K-FAC steps ({} timed), plan {}",
                o.kfac.steps(),
                o.kfac.stage_times().steps,
                w.steps
            ));
        }
    }
    let planned = planned_calls(w, &r0.kfac);
    for tag in CommTag::ALL {
        let got = meter.tag_calls(tag);
        if got != planned[tag.name()] {
            errors.push(format!("{} calls {got}, plan {}", tag.name(), planned[tag.name()]));
        }
    }

    let comm_fields: Vec<(String, String)> = CommTag::ALL
        .iter()
        .map(|&t| {
            let v = json_obj(&[
                ("bytes".into(), meter.tag_bytes(t).to_string()),
                ("calls".into(), meter.tag_calls(t).to_string()),
            ]);
            (t.name().to_string(), v)
        })
        .collect();
    let mem_fields: Vec<(String, String)> = MemoryCategory::ALL
        .iter()
        .map(|&c| {
            let peak = outs.iter().map(|o| o.kfac.memory_meter().peak(c)).max().unwrap_or(0);
            (c.name().replace(' ', "_"), peak.to_string())
        })
        .collect();
    let peak_mem = outs.iter().map(|o| o.kfac.memory_meter().peak_total()).max().unwrap_or(0);
    let stage_fields: Vec<(String, String)> = STAGES
        .iter()
        .map(|&(s, name)| {
            (
                name.to_string(),
                json_num(mean_over_ranks(&|o| o.kfac.stage_times().total(s)) / steps),
            )
        })
        .collect();
    // Eigensolves: every inverse round solves each layer's A and G once.
    let inv_steps = w.inv_steps() as f64;
    let eig_solves = 2.0 * r0.dims.len() as f64 * inv_steps / steps;
    let eig_flops =
        r0.dims.iter().map(|&(a, g)| (a as f64).powi(3) + (g as f64).powi(3)).sum::<f64>()
            * inv_steps
            / steps;

    let mut fields: Vec<(String, String)> = vec![
        ("workload".into(), json_str(w.name)),
        ("seed".into(), args.seed.to_string()),
        ("trace".into(), args.trace.to_string()),
        ("world".into(), WORLD.to_string()),
        ("steps".into(), w.steps.to_string()),
        ("global_batch".into(), (WORLD * w.local_batch).to_string()),
        ("lr".into(), json_num(w.lr as f64)),
        ("factor_update_freq".into(), w.factor_update_freq.to_string()),
        ("inv_update_freq".into(), w.inv_update_freq.to_string()),
        ("strategy".into(), json_str(&r0.kfac.strategy().to_string())),
        ("setup_s".into(), json_arr(setup_s.iter().map(|&s| json_num(s)))),
        ("setup_cpu_s".into(), json_arr(setup_cpu_s.iter().map(|&s| json_num(s)))),
        ("loop_s".into(), json_num(r0.loop_s)),
        ("step_s".into(), json_arr(r0.step_s.iter().map(|&s| json_num(s)))),
        ("step_cpu_s".into(), json_arr(r0.step_cpu_s.iter().map(|&s| json_num(s)))),
        ("step_steal".into(), json_arr(r0.step_steal.iter().map(|&s| json_num(s)))),
        ("cpu_s".into(), json_num(r0.cpu_s)),
        ("steal_frac".into(), json_num(r0.steal_frac)),
        ("rss_peak_bytes".into(), rss_peak.to_string()),
        ("first_loss".into(), json_num(first_loss)),
        (
            "loss_curve".into(),
            json_arr((0..w.steps).map(|i| json_num(mean_over_ranks(&|o| o.losses[i] as f64)))),
        ),
        ("final_loss".into(), json_num(final_loss)),
        ("peak_mem_bytes".into(), peak_mem.to_string()),
        ("mem".into(), json_obj(&mem_fields)),
        ("comm".into(), json_obj(&comm_fields)),
        ("comm_modeled_s".into(), json_num(meter.simulated_seconds)),
        ("stage_s".into(), json_obj(&stage_fields)),
        ("eig_solves".into(), json_num(eig_solves)),
        ("eig_flops".into(), json_num(eig_flops)),
        ("factor_dims".into(), json_arr(r0.dims.iter().map(|(a, g)| format!("[{a},{g}]")))),
        ("knobs".into(), knobs(&cfg, &comms[0])),
    ];
    if args.trace {
        // Per-layer self time per optimizer step, averaged over ranks.
        let mut per_name: BTreeMap<&str, f64> = SPAN_NAMES.iter().map(|&n| (n, 0.0)).collect();
        for o in &outs {
            for (span, own) in o.spans.iter().zip(trace::self_times(&o.spans)) {
                *per_name.get_mut(span.name).expect("known span name") += own / world / steps;
            }
        }
        let spans_per_step =
            outs.iter().map(|o| o.spans.len()).sum::<usize>() as f64 / world / steps;
        let layer_fields: Vec<(String, String)> =
            per_name.iter().map(|(k, v)| (k.to_string(), json_num(*v))).collect();
        fields.push(("self_s".into(), json_obj(&layer_fields)));
        fields.push(("spans_per_step".into(), json_num(spans_per_step)));
        if let Some(path) = &args.spans {
            let spans: Vec<Vec<Span>> = outs.iter().map(|o| o.spans.clone()).collect();
            if let Err(e) = std::fs::write(path, trace::chrome_trace(&spans)) {
                errors.push(format!("writing spans to {path}: {e}"));
            }
        }
    }
    fields.push(("errors".into(), json_arr(errors.iter().map(|e| json_str(e)))));
    json_obj(&fields)
}

/// Model initialisation is part of the workload, not of its inputs: only
/// the data and its order come from `--seed`.
const MODEL_SEED: u64 = 0x6B66_6163;

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kfacbench: {e}");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let seed = args.seed;
    // Exactly one epoch of distinct samples per repetition.
    let samples = w.steps * WORLD * w.local_batch;
    let line = match w.model {
        ModelKind::ResNet => {
            let data = || PatternImages::generate(samples, 3, 16, 10, 2.0, seed);
            let cfg = ResNetMiniConfig {
                in_channels: 3,
                width: 32,
                blocks_stage1: 1,
                blocks_stage2: 1,
                classes: 10,
            };
            run(&args, data, || ResNetMini::new(cfg, &mut Rng::seed_from_u64(MODEL_SEED)))
        }
        ModelKind::Bert => {
            let rules = SequenceRules { vocab: 64, mult: 5, offset: 7, rule_probability: 0.9 };
            let data = || MaskedTokenTask::generate(samples, 32, rules, 0.15, seed);
            let cfg = BertMiniConfig {
                vocab: 64,
                d_model: 128,
                heads: 4,
                layers: 2,
                ffn_dim: 256,
                max_seq: 32,
            };
            run(&args, data, || BertMini::new(cfg, &mut Rng::seed_from_u64(MODEL_SEED)))
        }
    };
    println!("{line}");
}
