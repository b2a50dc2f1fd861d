//! The stage vocabulary of the K-FAC step pipeline.
//!
//! One `(layer x stage)` pair is the pipeline's unit of work. Stages within
//! a layer form a linear dependency chain; across layers they are
//! independent except for sharing rank compute and the network — which is
//! exactly the freedom the task runtime exploits.

use kaisa_comm::CommTag;

use crate::timing::Stage;

/// One stage of a layer's journey through `Kfac::step`, in dependency
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipelineStage {
    /// Finalize captured `aᵀa`/`gᵀg` statistics and fold averaged factors
    /// into the running state (compute; every rank).
    FactorAccumulate,
    /// Allreduce-average the packed factor payload across the world
    /// (communication).
    FactorAllreduce,
    /// Sharded alternative to [`PipelineStage::FactorAllreduce`]:
    /// reduce-scatter the packed payload so the `A` section lands only on
    /// the layer's A-eigendecomposition worker and the `G` section on its
    /// G-worker (communication).
    FactorReduce,
    /// Regather the averaged payload within the layer's eigendecomposition
    /// worker group — only needed by the direct-inverse fallback, whose
    /// solver consumes both factors on one rank (communication).
    FactorGather,
    /// Eigendecompose (or invert) the factors on the LPT-assigned worker,
    /// including the `1/(v_G v_Aᵀ + γ)` outer product (compute).
    EigCompute,
    /// Broadcast eigenvectors / outer product (or inverses) to the layer's
    /// gradient workers, plus the `v_A` pair shuttle (communication).
    EigBcast,
    /// Apply Eq. 15–17 to the layer's gradient on its gradient workers
    /// (compute).
    Precondition,
    /// Broadcast the preconditioned gradient to the layer's receiver group
    /// (communication).
    GradBcast,
    /// KL-clip scale and write the gradient back (compute; every rank).
    ScaleUpdate,
}

impl PipelineStage {
    /// All stages in dependency order. `FactorReduce`/`FactorGather` are the
    /// sharded-path alternative to `FactorAllreduce`; both branches rejoin at
    /// `EigCompute`.
    pub const ALL: [PipelineStage; 9] = [
        PipelineStage::FactorAccumulate,
        PipelineStage::FactorAllreduce,
        PipelineStage::FactorReduce,
        PipelineStage::FactorGather,
        PipelineStage::EigCompute,
        PipelineStage::EigBcast,
        PipelineStage::Precondition,
        PipelineStage::GradBcast,
        PipelineStage::ScaleUpdate,
    ];

    /// The stage this one waits on within the same layer (`None` for the
    /// head of the chain). `EigCompute` names the dense reference chain's
    /// predecessor; on the sharded path it instead follows
    /// `FactorReduce`/`FactorGather`.
    pub fn upstream(self) -> Option<PipelineStage> {
        match self {
            PipelineStage::FactorAccumulate => None,
            PipelineStage::FactorAllreduce => Some(PipelineStage::FactorAccumulate),
            PipelineStage::FactorReduce => Some(PipelineStage::FactorAccumulate),
            PipelineStage::FactorGather => Some(PipelineStage::FactorReduce),
            PipelineStage::EigCompute => Some(PipelineStage::FactorAllreduce),
            PipelineStage::EigBcast => Some(PipelineStage::EigCompute),
            PipelineStage::Precondition => Some(PipelineStage::EigBcast),
            PipelineStage::GradBcast => Some(PipelineStage::Precondition),
            PipelineStage::ScaleUpdate => Some(PipelineStage::GradBcast),
        }
    }

    /// True for the communication stages (scheduled on the network resource;
    /// initiated with a non-blocking handle by the task runtime).
    pub fn is_comm(self) -> bool {
        matches!(
            self,
            PipelineStage::FactorAllreduce
                | PipelineStage::FactorReduce
                | PipelineStage::FactorGather
                | PipelineStage::EigBcast
                | PipelineStage::GradBcast
        )
    }

    /// The Figure 7 timing bucket this stage reports into.
    pub fn timing_stage(self) -> Stage {
        match self {
            PipelineStage::FactorAccumulate => Stage::FactorCompute,
            PipelineStage::FactorAllreduce => Stage::FactorComm,
            PipelineStage::FactorReduce => Stage::FactorComm,
            PipelineStage::FactorGather => Stage::FactorComm,
            PipelineStage::EigCompute => Stage::EigCompute,
            PipelineStage::EigBcast => Stage::EigComm,
            PipelineStage::Precondition => Stage::Precondition,
            PipelineStage::GradBcast => Stage::GradComm,
            PipelineStage::ScaleUpdate => Stage::Scale,
        }
    }

    /// The meter tag this stage's collectives carry (`None` for pure
    /// compute stages).
    pub fn comm_tag(self) -> Option<CommTag> {
        match self {
            PipelineStage::FactorAllreduce => Some(CommTag::FactorComm),
            PipelineStage::FactorReduce => Some(CommTag::FactorReduce),
            PipelineStage::FactorGather => Some(CommTag::FactorGather),
            PipelineStage::EigBcast => Some(CommTag::EigComm),
            PipelineStage::GradBcast => Some(CommTag::GradComm),
            _ => None,
        }
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            PipelineStage::FactorAccumulate => "factor-accumulate",
            PipelineStage::FactorAllreduce => "factor-allreduce",
            PipelineStage::FactorReduce => "factor-reduce-scatter",
            PipelineStage::FactorGather => "factor-allgather",
            PipelineStage::EigCompute => "eig-compute",
            PipelineStage::EigBcast => "eig-bcast",
            PipelineStage::Precondition => "precondition",
            PipelineStage::GradBcast => "grad-bcast",
            PipelineStage::ScaleUpdate => "scale-update",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_is_rooted_and_complete() {
        // Every stage chains back to FactorAccumulate; the dense reference
        // chain has 7 links, the sharded branch rejoins it at EigCompute.
        assert_eq!(PipelineStage::FactorAccumulate.upstream(), None);
        for stage in PipelineStage::ALL {
            let mut cur = stage;
            let mut hops = 0;
            while let Some(up) = cur.upstream() {
                cur = up;
                hops += 1;
                assert!(hops <= PipelineStage::ALL.len(), "upstream cycle at {}", stage.name());
            }
            assert_eq!(cur, PipelineStage::FactorAccumulate);
        }
        let mut dense_len = 1;
        let mut cur = PipelineStage::ScaleUpdate;
        while let Some(up) = cur.upstream() {
            dense_len += 1;
            cur = up;
        }
        assert_eq!(dense_len, 7, "dense reference chain skips the sharded pair");
        assert_eq!(PipelineStage::FactorGather.upstream(), Some(PipelineStage::FactorReduce));
        assert_eq!(PipelineStage::FactorReduce.upstream(), Some(PipelineStage::FactorAccumulate));
    }

    #[test]
    fn comm_stages_carry_tags_compute_stages_do_not() {
        for stage in PipelineStage::ALL {
            assert_eq!(stage.is_comm(), stage.comm_tag().is_some(), "{}", stage.name());
        }
        assert_eq!(PipelineStage::FactorAllreduce.comm_tag(), Some(CommTag::FactorComm));
        assert_eq!(PipelineStage::FactorReduce.comm_tag(), Some(CommTag::FactorReduce));
        assert_eq!(PipelineStage::FactorGather.comm_tag(), Some(CommTag::FactorGather));
        assert_eq!(PipelineStage::GradBcast.comm_tag(), Some(CommTag::GradComm));
    }

    #[test]
    fn timing_buckets_cover_all_seven_figure7_stages() {
        let mut hit = [false; 7];
        for stage in PipelineStage::ALL {
            hit[stage.timing_stage() as usize] = true;
        }
        assert!(hit.iter().all(|h| *h));
    }
}
