//! Machine-readable runtime benchmark: the serial reference executor plus a
//! depth sweep of the task runtime's cross-iteration window, written as
//! `BENCH_runtime.json` for CI artifact archival and trend tracking.
//!
//! ```sh
//! cargo run --release -p kaisa-bench --bin bench_report            # full
//! cargo run --release -p kaisa-bench --bin bench_report -- --quick # CI
//! cargo run --release -p kaisa-bench --bin bench_report -- --out path.json
//! cargo run --release -p kaisa-bench --bin bench_report -- --strategy local-opt
//! cargo run --release -p kaisa-bench --bin bench_report -- --comm-backend mutex
//! cargo run --release -p kaisa-bench --bin bench_report -- --gemm-kernel naive
//! cargo run --release -p kaisa-bench --bin bench_report -- --syrk off
//! ```

use std::time::Instant;

use kaisa_comm::{ClusterNetwork, CommOptions, Communicator, ThreadCommBackend};
use kaisa_core::{modeled_depth_makespans, DistStrategy, Kfac, KfacConfig, MemoryCategory};
use kaisa_data::{Dataset, GaussianBlobs, ShardSampler};
use kaisa_nn::models::Mlp;
use kaisa_nn::Model;
use kaisa_optim::{Optimizer, Sgd};
use kaisa_tensor::{GemmKernel, Rng, SyrkMode};

/// Benchmark scale knobs (`--quick` shrinks everything for CI).
struct Scale {
    world: usize,
    epochs: usize,
    samples: usize,
    quick: bool,
    /// Explicit `--strategy` override; `None` keeps the default
    /// HYBRID-OPT configuration (`grad_worker_frac = 0.5`).
    strategy: Option<DistStrategy>,
    /// Communicator backend the world runs on (`--comm-backend`, or the
    /// `KAISA_COMM_BACKEND` default). Recorded per row so archived runs
    /// stay comparable across the ring/mutex engines.
    comm_backend: ThreadCommBackend,
}

struct RunStats {
    /// Wall-clock seconds of the whole training loop (rank-0 thread).
    wall_seconds: f64,
    /// Seconds spent inside K-FAC stage timers, summed over stages.
    kfac_seconds: f64,
    /// Optimizer steps taken.
    steps: u64,
    /// Peak metered resident bytes across all categories.
    peak_memory_bytes: usize,
    /// Peak bytes pinned by retired cross-iteration window steps.
    peak_held_window_bytes: usize,
    /// Distribution strategy the run actually resolved to.
    strategy: &'static str,
}

/// One measured training run on thread ranks: the serial executor, or with
/// `runtime` the task runtime's lookahead split at window `depth`.
fn run(scale: &Scale, runtime: bool, depth: usize) -> RunStats {
    let dataset = GaussianBlobs::generate(scale.samples, 32, 4, 0.4, 130);
    let epochs = scale.epochs;
    let world = scale.world;
    let start = Instant::now();
    let strategy = scale.strategy;
    let opts = CommOptions { backend: scale.comm_backend, ..CommOptions::default() };
    let mut results = kaisa_comm::ThreadComm::run_with(world, opts, |comm| {
        let mut model = Mlp::new(&[32, 64, 48, 4], &mut Rng::seed_from_u64(31));
        let mut builder = KfacConfig::builder()
            .grad_worker_frac(0.5)
            .factor_update_freq(5)
            .inv_update_freq(10)
            .pipelined(runtime)
            // LOCAL-OPT keeps no global factors, so there is nothing to
            // shard; `validate()` rejects the combination.
            .sharded_factors(strategy != Some(DistStrategy::LocalOpt))
            .async_runtime(runtime)
            .cross_iter_depth(if runtime { depth } else { 1 });
        if let Some(s) = strategy {
            builder = builder.strategy(s);
        }
        let mut kfac = Kfac::new(builder.build(), &mut model, comm);
        let sampler = ShardSampler::new(dataset.len(), world, comm.rank(), 8, 3);
        for epoch in 0..epochs {
            for indices in sampler.epoch_batches(epoch) {
                let (x, y) = dataset.batch(&indices);
                kfac.prepare(&mut model);
                model.zero_grad();
                let _ = model.forward_backward(&x, &y);
                if runtime {
                    kfac.step_begin(&mut model, comm);
                }
                kaisa_trainer::allreduce_gradients(&mut model, comm, 1);
                if runtime {
                    kfac.step_finish(&mut model, comm, 0.05);
                } else {
                    kfac.step(&mut model, comm, 0.05);
                }
            }
        }
        kfac.flush(comm);
        comm.barrier();
        let meter = kfac.memory_meter().clone();
        RunStats {
            wall_seconds: 0.0,
            kfac_seconds: kfac.stage_times().total_seconds(),
            steps: kfac.steps(),
            peak_memory_bytes: meter.peak_total(),
            peak_held_window_bytes: meter.peak(MemoryCategory::HeldWindows),
            strategy: kfac.strategy().name(),
        }
    });
    let wall = start.elapsed().as_secs_f64();
    let mut stats = results.swap_remove(0);
    stats.wall_seconds = wall;
    stats
}

/// Curvature-freshness comparison: train the same model/data/seed with
/// DP-KFAC's rank-local factors (LOCAL-OPT) vs globally-reduced factors
/// (COMM-OPT) for the same number of epochs, with real SGD updates, and
/// report the final-epoch mean training loss. LOCAL-OPT trades its zero
/// factor-collective traffic for staler curvature (each owner sees only
/// its own rank's statistics); this row quantifies that loss gap at
/// matched epochs.
fn final_epoch_loss(scale: &Scale, strategy: DistStrategy) -> (f64, u64) {
    let dataset = GaussianBlobs::generate(scale.samples, 32, 4, 0.4, 130);
    let world = scale.world;
    let epochs = scale.epochs;
    let opts = CommOptions { backend: scale.comm_backend, ..CommOptions::default() };
    let mut results = kaisa_comm::ThreadComm::run_with(world, opts, |comm| {
        let mut model = Mlp::new(&[32, 64, 48, 4], &mut Rng::seed_from_u64(31));
        let cfg = KfacConfig::builder()
            .strategy(strategy)
            .factor_update_freq(5)
            .inv_update_freq(10)
            .sharded_factors(strategy != DistStrategy::LocalOpt)
            .build();
        let mut kfac = Kfac::new(cfg, &mut model, comm);
        let mut optimizer = Sgd::with_momentum(0.9);
        let sampler = ShardSampler::new(dataset.len(), world, comm.rank(), 8, 3);
        let mut last_epoch_loss = 0.0f64;
        let mut last_epoch_batches = 0usize;
        for epoch in 0..epochs {
            last_epoch_loss = 0.0;
            last_epoch_batches = 0;
            for indices in sampler.epoch_batches(epoch) {
                let (x, y) = dataset.batch(&indices);
                kfac.prepare(&mut model);
                model.zero_grad();
                let r = model.forward_backward(&x, &y);
                last_epoch_loss += r.loss as f64;
                last_epoch_batches += 1;
                kaisa_trainer::allreduce_gradients(&mut model, comm, 1);
                kfac.step(&mut model, comm, 0.05);
                optimizer.step_model(&mut model, 0.05);
            }
        }
        kfac.flush(comm);
        // Mean final-epoch loss across ranks (each rank sees its own shard).
        let mut loss = [(last_epoch_loss / last_epoch_batches.max(1) as f64) as f32];
        comm.allreduce(&mut loss, kaisa_comm::ReduceOp::Avg);
        (loss[0] as f64, kfac.steps())
    });
    results.swap_remove(0)
}

fn ms_per_step(stats: &RunStats) -> (f64, f64) {
    let steps = stats.steps.max(1) as f64;
    (stats.wall_seconds / steps * 1e3, stats.kfac_seconds / steps * 1e3)
}

/// Minimal JSON string escape (keys/values here are all ASCII, but stay
/// correct on principle).
fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_runtime.json".to_string());
    let strategy: Option<DistStrategy> = args.iter().position(|a| a == "--strategy").map(|i| {
        args.get(i + 1)
            .unwrap_or_else(|| panic!("--strategy needs a value"))
            .parse()
            .unwrap_or_else(|e| panic!("{e}"))
    });
    let comm_backend: ThreadCommBackend = args
        .iter()
        .position(|a| a == "--comm-backend")
        .map(|i| {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("--comm-backend needs a value"))
                .parse()
                .unwrap_or_else(|e| panic!("{e}"))
        })
        .unwrap_or_else(ThreadCommBackend::from_env);
    // `--gemm-kernel` pins the process-wide GEMM kernel for the whole run
    // (otherwise `KAISA_GEMM_KERNEL` / Auto applies); the resolved choice
    // is recorded in every row so archived runs stay comparable across
    // the blocked and naive paths.
    if let Some(i) = args.iter().position(|a| a == "--gemm-kernel") {
        let kernel: GemmKernel = args
            .get(i + 1)
            .unwrap_or_else(|| panic!("--gemm-kernel needs a value (auto|blocked|naive)"))
            .parse()
            .unwrap_or_else(|e| panic!("{e}"));
        kaisa_tensor::set_gemm_kernel(kernel);
    }
    let gemm_kernel = kaisa_tensor::gemm_kernel();
    // `--syrk` pins the factor-statistic SYRK fast path on or off for the
    // whole run (otherwise `KAISA_SYRK` / the On default applies); like the
    // kernel, the resolved mode is recorded per row.
    if let Some(i) = args.iter().position(|a| a == "--syrk") {
        let mode: SyrkMode = args
            .get(i + 1)
            .unwrap_or_else(|| panic!("--syrk needs a value (on|off)"))
            .parse()
            .unwrap_or_else(|e| panic!("{e}"));
        kaisa_tensor::set_syrk_mode(mode);
    }
    let syrk = kaisa_tensor::syrk_mode();
    let scale = if quick {
        Scale { world: 4, epochs: 1, samples: 256, quick, strategy, comm_backend }
    } else {
        Scale { world: 8, epochs: 3, samples: 512, quick, strategy, comm_backend }
    };

    eprintln!(
        "bench_report: world={} epochs={} samples={} strategy={} comm={} gemm={} syrk={} ({})",
        scale.world,
        scale.epochs,
        scale.samples,
        scale.strategy.map(|s| s.name()).unwrap_or("default"),
        scale.comm_backend,
        gemm_kernel,
        syrk,
        if quick { "quick" } else { "full" }
    );

    let serial = run(&scale, false, 1);

    // Depth sweep: the live runtime executor and the window cost model at
    // matching depths. Model dims mirror the fig7 acceptance configuration.
    let dims: Vec<(usize, usize)> = vec![
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
    ];
    let depths = [1usize, 2, 4];
    let modeled = modeled_depth_makespans(
        &dims,
        scale.world,
        ClusterNetwork::ethernet_10g(),
        32,
        5,
        *depths.iter().max().unwrap(),
    );

    let mut depth_entries = Vec::new();
    for &depth in &depths {
        let stats = run(&scale, true, depth);
        let (wall_ms, kfac_ms) = ms_per_step(&stats);
        let amortized =
            modeled.iter().find(|(d, _)| *d == depth).map(|(_, s)| *s).unwrap_or(f64::NAN);
        eprintln!(
            "depth {depth}: wall {wall_ms:.3} ms/step, kfac {kfac_ms:.3} ms/step, modeled {:.3} ms/iter",
            amortized * 1e3
        );
        depth_entries.push(format!(
            concat!(
                "    {{\"depth\": {}, \"strategy\": \"{}\", \"comm_backend\": \"{}\", ",
                "\"gemm_kernel\": \"{}\", \"syrk\": \"{}\", \"wall_ms_per_step\": {:.6}, ",
                "\"kfac_ms_per_step\": {:.6}, \"modeled_amortized_ms\": {:.6}, ",
                "\"peak_memory_bytes\": {}, \"peak_held_window_bytes\": {}}}"
            ),
            depth,
            json_escape(stats.strategy),
            scale.comm_backend,
            gemm_kernel,
            syrk,
            wall_ms,
            kfac_ms,
            amortized * 1e3,
            stats.peak_memory_bytes,
            stats.peak_held_window_bytes,
        ));
    }

    // Curvature-freshness row: LOCAL-OPT vs COMM-OPT loss at matched epochs.
    let (local_loss, local_steps) = final_epoch_loss(&scale, DistStrategy::LocalOpt);
    let (comm_loss, comm_steps) = final_epoch_loss(&scale, DistStrategy::CommOpt);
    assert_eq!(local_steps, comm_steps, "matched-epoch runs must take identical step counts");
    eprintln!(
        "curvature freshness @ {} epochs: LOCAL-OPT loss {local_loss:.4} vs COMM-OPT loss \
         {comm_loss:.4} (gap {:+.4})",
        scale.epochs,
        local_loss - comm_loss
    );

    let (serial_wall, serial_kfac) = ms_per_step(&serial);
    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"kaisa-runtime\",\n",
            "  \"quick\": {},\n",
            "  \"world\": {},\n",
            "  \"comm_backend\": \"{}\",\n",
            "  \"factor_update_freq\": 5,\n",
            "  \"network_model\": \"10GbE\",\n",
            "  \"gemm_kernel\": \"{}\",\n",
            "  \"syrk\": \"{}\",\n",
            "  \"executors\": {{\n",
            "    \"serial\": {{\"strategy\": \"{}\", \"comm_backend\": \"{}\", \"gemm_kernel\": \"{}\", \"syrk\": \"{}\", \"wall_ms_per_step\": {:.6}, \"kfac_ms_per_step\": {:.6}, \"peak_memory_bytes\": {}}}\n",
            "  }},\n",
            "  \"curvature_freshness\": {{\n",
            "    \"epochs\": {},\n",
            "    \"steps\": {},\n",
            "    \"local_opt_final_epoch_loss\": {:.6},\n",
            "    \"comm_opt_final_epoch_loss\": {:.6},\n",
            "    \"loss_gap_local_minus_comm\": {:.6}\n",
            "  }},\n",
            "  \"runtime_depths\": [\n{}\n  ]\n",
            "}}\n"
        ),
        scale.quick,
        scale.world,
        scale.comm_backend,
        gemm_kernel,
        syrk,
        json_escape(serial.strategy),
        scale.comm_backend,
        gemm_kernel,
        syrk,
        serial_wall,
        serial_kfac,
        serial.peak_memory_bytes,
        scale.epochs,
        comm_steps,
        local_loss,
        comm_loss,
        local_loss - comm_loss,
        depth_entries.join(",\n"),
    );
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("writing {}: {e}", json_escape(&out)));
    eprintln!("wrote {out}");
}
