//! The two `Kfac::step` executors head to head at world size 4 — the serial
//! reference and the per-rank task runtime — plus the runtime's two-step
//! lookahead split (`step_begin` before the DDP allreduce, `step_finish`
//! after). All three are bitwise identical (see
//! tests/pipeline_equivalence.rs); this measures the schedule cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kaisa_comm::ThreadComm;
use kaisa_core::{Kfac, KfacConfig};
use kaisa_nn::models::Mlp;
use kaisa_nn::Model;
use kaisa_tensor::{Matrix, Rng};

const WORLD: usize = 4;

#[derive(Clone, Copy)]
enum Executor {
    Serial,
    Runtime,
    RuntimeLookahead,
}

impl Executor {
    fn label(self) -> &'static str {
        match self {
            Executor::Serial => "serial",
            Executor::Runtime => "runtime",
            Executor::RuntimeLookahead => "runtime-lookahead",
        }
    }
}

fn run_steps(executor: Executor) {
    ThreadComm::run(WORLD, |comm| {
        let mut rng = Rng::seed_from_u64(71);
        let x = Matrix::randn(32, 48, 1.0, &mut rng);
        let y: Vec<usize> = (0..32).map(|i| i % 6).collect();
        let mut model = Mlp::new(&[48, 64, 56, 6], &mut Rng::seed_from_u64(72));
        let cfg = KfacConfig::builder()
            .grad_worker_frac(0.5)
            .factor_update_freq(1)
            .inv_update_freq(2)
            .pipelined(!matches!(executor, Executor::Serial))
            .async_runtime(matches!(executor, Executor::RuntimeLookahead))
            .build();
        let mut kfac = Kfac::new(cfg, &mut model, comm);
        for _ in 0..4 {
            kfac.prepare(&mut model);
            model.zero_grad();
            let _ = model.forward_backward(&x, &y);
            if matches!(executor, Executor::RuntimeLookahead) {
                kfac.step_begin(&mut model, comm);
                kfac.step_finish(&mut model, comm, 0.1);
            } else {
                kfac.step(&mut model, comm, 0.1);
            }
        }
    });
}

fn bench_runtime(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime");
    group.sample_size(20);
    for executor in [Executor::Serial, Executor::Runtime, Executor::RuntimeLookahead] {
        group.bench_with_input(
            BenchmarkId::from_parameter(executor.label()),
            &executor,
            |b, &e| b.iter(|| run_steps(e)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_runtime);
criterion_main!(benches);
