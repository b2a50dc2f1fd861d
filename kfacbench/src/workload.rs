//! The benchmark's workloads: the knobs that describe a training job
//! (model, world, strategy, update frequencies, learning rate, batch and
//! step count). Executor, kernels and comm engine are left at their
//! `KfacConfig` / environment defaults, so the benchmark measures what a
//! user of the library gets.

use kaisa_core::KfacConfig;

/// Thread ranks per world.
pub const WORLD: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// `ResNetMini` (width 32, 1+1 blocks) on 3x16x16 `PatternImages`.
    ResNet,
    /// `BertMini` (d_model 128, 4 heads, 2 layers, ffn 256, seq 32,
    /// vocab 64) on `MaskedTokenTask`.
    Bert,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub model: ModelKind,
    /// `grad_worker_frac`: 1 is COMM-OPT, `1/WORLD` is MEM-OPT.
    pub grad_worker_frac: f64,
    pub factor_update_freq: usize,
    pub inv_update_freq: usize,
    pub lr: f32,
    /// Per-rank batch (global batch = `WORLD * local_batch`).
    pub local_batch: usize,
    /// Optimizer steps in one repetition.
    pub steps: usize,
}

pub const WORKLOADS: [Workload; 3] = [
    // Eigensolves (factors up to 576 wide), conv capture on every step and
    // eigenbasis broadcasts dominate; no gradient broadcast.
    Workload {
        name: "resnet-commopt",
        model: ModelKind::ResNet,
        grad_worker_frac: 1.0,
        factor_update_freq: 1,
        inv_update_freq: 5,
        lr: 0.05,
        local_batch: 32,
        steps: 10,
    },
    // The memory-vs-communication mirror of resnet-commopt: eigenbases stay
    // on their owner and preconditioned gradients are broadcast every step.
    Workload {
        name: "resnet-memopt",
        model: ModelKind::ResNet,
        grad_worker_frac: 1.0 / WORLD as f64,
        factor_update_freq: 1,
        inv_update_freq: 5,
        lr: 0.05,
        local_batch: 32,
        steps: 10,
    },
    // Transformer GEMMs, preconditioning and per-step gradient broadcasts
    // dominate; one inverse round and capture on 1 step in 10.
    Workload {
        name: "bert-memopt",
        model: ModelKind::Bert,
        grad_worker_frac: 1.0 / WORLD as f64,
        factor_update_freq: 10,
        inv_update_freq: 100,
        lr: 0.1,
        local_batch: 32,
        steps: 30,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    pub fn kfac_config(&self) -> KfacConfig {
        KfacConfig::builder()
            .grad_worker_frac(self.grad_worker_frac)
            .factor_update_freq(self.factor_update_freq)
            .inv_update_freq(self.inv_update_freq)
            .build()
    }

    /// Steps of one repetition that update factors / recompute inverses.
    pub fn factor_steps(&self) -> usize {
        (0..self.steps).filter(|s| s % self.factor_update_freq == 0).count()
    }

    pub fn inv_steps(&self) -> usize {
        (0..self.steps).filter(|s| s % self.inv_update_freq == 0).count()
    }
}
