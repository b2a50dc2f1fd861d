//! World-shared idle accounting for stall watchdogs.
//!
//! A rank waiting on a collective cannot tell a slow peer from a
//! mismatched one by looking at its own progress alone: a peer that is
//! still computing (or has not yet entered the step) looks exactly like a
//! peer that will never issue the matching collective. The one state that
//! *does* prove a stall is every rank of the world sitting idle at once —
//! nobody is left to make the progress everybody waits for.
//!
//! An [`IdleGauge`] is one rank's handle on that state: a per-rank idle
//! flag plus one counter shared by the whole world. Flipping the flag moves
//! the counter, so [`IdleGauge::world_idle`] is a single atomic load. A rank
//! whose [`crate::ThreadComm::run_with`] thread has returned or unwound
//! counts as idle for good — it will never make progress again.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// One rank's view of the world's idle count (see the module docs).
#[derive(Debug, Clone)]
pub struct IdleGauge {
    /// Ranks of the world currently idle (shared by every rank's gauge).
    idle_ranks: Arc<AtomicUsize>,
    /// World size: the world is stalled when `idle_ranks` reaches it.
    world: usize,
    /// This rank's flag; only transitions touch the shared counter.
    mine: Arc<AtomicBool>,
}

impl IdleGauge {
    /// A gauge for a world of one: the caller *is* the whole world, so the
    /// world is idle exactly when the caller is.
    pub fn solo() -> Self {
        IdleGauge::world(1).pop().expect("one gauge")
    }

    /// One gauge per rank of a world of `n`, all sharing one counter.
    pub fn world(n: usize) -> Vec<IdleGauge> {
        let idle_ranks = Arc::new(AtomicUsize::new(0));
        (0..n)
            .map(|_| IdleGauge {
                idle_ranks: Arc::clone(&idle_ranks),
                world: n,
                mine: Arc::new(AtomicBool::new(false)),
            })
            .collect()
    }

    /// Mark this rank idle (parked with nothing runnable) or busy.
    pub fn set_idle(&self, idle: bool) {
        if self.mine.swap(idle, Ordering::SeqCst) != idle {
            if idle {
                self.idle_ranks.fetch_add(1, Ordering::SeqCst);
            } else {
                self.idle_ranks.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }

    /// True when every rank of the world is idle right now.
    pub fn world_idle(&self) -> bool {
        self.idle_ranks.load(Ordering::SeqCst) == self.world
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_is_idle_only_when_every_rank_is() {
        let gauges = IdleGauge::world(3);
        gauges[0].set_idle(true);
        gauges[1].set_idle(true);
        assert!(!gauges[0].world_idle(), "rank 2 is still busy");
        gauges[2].set_idle(true);
        assert!(gauges.iter().all(IdleGauge::world_idle));
        gauges[1].set_idle(false);
        assert!(!gauges[2].world_idle());
    }

    #[test]
    fn repeated_flips_count_once() {
        let gauges = IdleGauge::world(2);
        for _ in 0..3 {
            gauges[0].set_idle(true);
        }
        assert!(!gauges[1].world_idle(), "one rank idle three times is still one rank");
        gauges[1].set_idle(true);
        assert!(gauges[0].world_idle());
        gauges[0].set_idle(false);
        gauges[0].set_idle(false);
        gauges[0].set_idle(true);
        assert!(gauges[0].world_idle());
    }

    #[test]
    fn solo_gauge_follows_its_only_rank() {
        let g = IdleGauge::solo();
        assert!(!g.world_idle());
        g.set_idle(true);
        assert!(g.world_idle());
    }
}
