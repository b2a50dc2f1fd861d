//! The per-rank cooperative task scheduler.
//!
//! A [`Scheduler`] owns a small DAG of tasks and repeatedly scans it for
//! *runnable* work: tasks whose dependencies are all done and whose *gate*
//! (if any) is open. Two task flavours exist, with different blocking
//! disciplines:
//!
//! - **Gated tasks** issue collectives (`begin_*` calls). Their gate
//!   `(group, seq)` is assigned at plan time in canonical order, and
//!   the scheduler refuses to run a gated task until every earlier gated
//!   task on the same communication group has finished. Because every rank
//!   plans the same per-group task sequence, this pins the per-group begin
//!   order that the rendezvous matching rule requires — which is exactly
//!   what makes the runtime bitwise identical to the serial executor. Begins
//!   never block, so a gated task must finish on its first poll.
//! - **Parkable tasks** consume collectives (`complete` calls). They poll
//!   readiness and return [`TaskPoll::Pending`] while the collective is in
//!   flight; the scheduler *parks* them and hands the rank to any other
//!   runnable task — including tasks of a later phase whose data
//!   dependencies are already satisfied.
//!
//! When a full scan makes no progress the scheduler briefly sleeps (ranks
//! are threads; sleeping yields the core to peer ranks) and checks the
//! stall watchdog. A rank with nothing runnable marks itself idle on the
//! world-shared [`IdleGauge`]; the watchdog fires only once *every* rank of
//! the world has sat idle for the configured timeout, and then panics with
//! a per-task state dump instead of hanging the process — turning a
//! mismatched collective into a failing diagnostic. A peer that is merely
//! slow (computing, or not yet inside its step) keeps the timer reset.

use std::time::{Duration, Instant};

use kaisa_comm::IdleGauge;

/// Result of polling one task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskPoll {
    /// The task ran to completion; its dependents may become runnable.
    Done,
    /// The task is waiting on an in-flight collective: park it and poll it
    /// again on a later pass. Only parkable (ungated) tasks may return this.
    Pending,
}

/// One task in the scheduler's DAG.
struct Node {
    /// Human-readable name, used only by the watchdog diagnostic.
    label: String,
    /// `(group, seq)` issue gate for begin-bearing tasks; `None` for
    /// compute-only and complete-side tasks.
    gate: Option<(usize, u64)>,
    /// Unfinished dependency count; runnable at zero.
    deps_remaining: usize,
    /// Tasks whose `deps_remaining` drops when this one finishes.
    dependents: Vec<usize>,
    /// The task returned `Pending` on its most recent poll.
    parked: bool,
    /// The task finished.
    done: bool,
    /// Withheld from scheduling (the `step_begin`/`step_finish` split).
    held: bool,
    /// The task may outlive its step's drain: [`Scheduler::run_released`]
    /// exits without waiting for it, leaving it to a later window poll.
    deferrable: bool,
}

/// Per-rank cooperative scheduler with gated begins and parked completes.
pub struct Scheduler {
    nodes: Vec<Node>,
    /// Normalized (sorted, deduplicated) membership of each gate group.
    groups: Vec<Vec<usize>>,
    /// Next gate sequence number to *run* per group.
    group_next: Vec<u64>,
    /// Next gate sequence number to *assign* per group (plan-time counter).
    group_seq: Vec<u64>,
    rank: usize,
    stall_timeout: Duration,
    /// `(window index, iteration number)` of the step this DAG belongs to,
    /// included in the watchdog panic and the state dump so a stall in a
    /// depth-D window names *which* in-flight step wedged.
    window: Option<(u64, u64)>,
    /// This rank's handle on the world's idle count (a world of one unless
    /// [`Scheduler::watching`] supplies the communicator's gauge).
    gauge: IdleGauge,
}

/// Clears the rank's idle mark however a scheduler run exits — normal
/// return, watchdog panic, or a panicking task.
struct BusyOnExit<'a>(&'a IdleGauge);

impl Drop for BusyOnExit<'_> {
    fn drop(&mut self) {
        self.0.set_idle(false);
    }
}

impl Scheduler {
    /// Create an empty scheduler for `rank` with the given stall-watchdog
    /// timeout in milliseconds.
    pub fn new(rank: usize, stall_timeout_ms: u64) -> Self {
        Scheduler {
            nodes: Vec::new(),
            groups: Vec::new(),
            group_next: Vec::new(),
            group_seq: Vec::new(),
            rank,
            stall_timeout: Duration::from_millis(stall_timeout_ms),
            window: None,
            gauge: IdleGauge::solo(),
        }
    }

    /// Judge stalls against the whole world: the watchdog fires only while
    /// every rank sharing `gauge`'s counter is idle (see
    /// [`kaisa_comm::Communicator::idle_gauge`]).
    pub fn watching(mut self, gauge: IdleGauge) -> Self {
        self.gauge = gauge;
        self
    }

    /// Like [`Scheduler::new`], tagged with the cross-iteration window index
    /// and iteration number the DAG was planned for (watchdog context).
    pub fn with_window(
        rank: usize,
        stall_timeout_ms: u64,
        window_index: u64,
        iteration: u64,
    ) -> Self {
        let mut sched = Scheduler::new(rank, stall_timeout_ms);
        sched.window = Some((window_index, iteration));
        sched
    }

    /// Register a communication group and return its gate-group id.
    /// Membership is normalized (sorted, deduplicated) so that the same
    /// rank set always maps to the same group — and therefore to one shared
    /// begin-order counter, mirroring the rendezvous layer's group keying.
    pub fn add_group(&mut self, members: &[usize]) -> usize {
        let mut normalized = members.to_vec();
        normalized.sort_unstable();
        normalized.dedup();
        if let Some(id) = self.groups.iter().position(|g| *g == normalized) {
            return id;
        }
        self.groups.push(normalized);
        self.group_next.push(0);
        self.group_seq.push(0);
        self.groups.len() - 1
    }

    /// Add a task. `gate_group` marks a begin-bearing task: its gate
    /// sequence is the group's next plan-time counter value, so tasks must
    /// be added in the canonical begin order. `deps` are ids
    /// of previously added tasks.
    pub fn add_task(&mut self, label: String, gate_group: Option<usize>, deps: &[usize]) -> usize {
        let id = self.nodes.len();
        let gate = gate_group.map(|g| {
            let seq = self.group_seq[g];
            self.group_seq[g] += 1;
            (g, seq)
        });
        for &d in deps {
            assert!(d < id, "dependencies must be previously added tasks");
            self.nodes[d].dependents.push(id);
        }
        let deps_remaining = deps.iter().filter(|&&d| !self.nodes[d].done).count();
        self.nodes.push(Node {
            label,
            gate,
            deps_remaining,
            dependents: Vec::new(),
            parked: false,
            done: false,
            held: false,
            deferrable: false,
        });
        id
    }

    /// Withhold a task from scheduling until [`Scheduler::release_all`].
    pub fn hold(&mut self, id: usize) {
        self.nodes[id].held = true;
    }

    /// Mark a task deferrable: [`Scheduler::run_released`] may exit before
    /// it finishes, leaving it for the cross-iteration window to drain.
    /// Only complete-side (ungated) tasks whose dependencies are all
    /// non-deferrable may be deferred — a deferred *begin* would desync the
    /// per-group collective issue order across ranks.
    pub fn mark_deferrable(&mut self, id: usize) {
        debug_assert!(
            self.nodes[id].gate.is_none(),
            "gated task '{}' cannot be deferrable: begins must issue in-step",
            self.nodes[id].label
        );
        self.nodes[id].deferrable = true;
    }

    /// Release every held task.
    pub fn release_all(&mut self) {
        for node in &mut self.nodes {
            node.held = false;
        }
    }

    /// Number of tasks added so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no tasks have been added.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Run every non-held task to completion. `poll` is called with a task
    /// id and must return [`TaskPoll::Done`] when the task finished or
    /// [`TaskPoll::Pending`] to park it. Panics with a per-task diagnostic
    /// if no task finishes for the stall-watchdog timeout while unfinished
    /// tasks remain.
    pub fn run(&mut self, mut poll: impl FnMut(usize) -> TaskPoll) {
        self.run_until(&mut poll, false);
    }

    /// Like [`Scheduler::run`], but exit as soon as every *non-deferrable*
    /// task is done — deferrable tasks still run opportunistically on each
    /// pass, but an in-flight collective backing one never blocks the exit
    /// (the cross-iteration window drains it later). The stall watchdog
    /// likewise counts only non-deferrable work: once all of it is done, a
    /// not-yet-ready deferrable collective is residue, not a stall.
    pub fn run_released(&mut self, mut poll: impl FnMut(usize) -> TaskPoll) {
        self.run_until(&mut poll, true);
    }

    fn run_until(&mut self, poll: &mut impl FnMut(usize) -> TaskPoll, exit_on_deferrable: bool) {
        let gauge = self.gauge.clone();
        let _busy = BusyOnExit(&gauge);
        let mut last_progress = Instant::now();
        // Spin-then-sleep: a burst of empty scans spins (a parked collective
        // usually flips ready within microseconds on the lock-free comm
        // path), then fall back to sleeping so peer rank threads get the
        // core on oversubscribed machines.
        let spin_scans: u32 =
            if std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1) > 1 {
                64
            } else {
                1
            };
        let mut idle_scans: u32 = 0;
        loop {
            let mut progress = false;
            let mut blocking = false;
            for id in 0..self.nodes.len() {
                {
                    let node = &self.nodes[id];
                    if node.done || node.held {
                        continue;
                    }
                    if !(exit_on_deferrable && node.deferrable) {
                        blocking = true;
                    }
                    if node.deps_remaining > 0 {
                        continue;
                    }
                    if let Some((g, seq)) = node.gate {
                        if self.group_next[g] != seq {
                            continue;
                        }
                    }
                    // Re-polling a parked task is a cheap readiness probe;
                    // anything else may compute, so the rank is busy.
                    if !node.parked {
                        gauge.set_idle(false);
                    }
                }
                match poll(id) {
                    TaskPoll::Done => {
                        gauge.set_idle(false);
                        self.finish(id);
                        progress = true;
                    }
                    TaskPoll::Pending => {
                        assert!(
                            self.nodes[id].gate.is_none(),
                            "gated task '{}' returned Pending: begins never block",
                            self.nodes[id].label
                        );
                        self.nodes[id].parked = true;
                    }
                }
            }
            if !blocking {
                return;
            }
            if progress {
                last_progress = Instant::now();
                idle_scans = 0;
            } else {
                gauge.set_idle(true);
                if !gauge.world_idle() {
                    // Some rank is still working or outside its step: a
                    // slow peer, not a stall.
                    last_progress = Instant::now();
                } else if last_progress.elapsed() >= self.stall_timeout {
                    let window = match self.window {
                        Some((w, it)) => format!(" (window {w}, iteration {it})"),
                        None => String::new(),
                    };
                    panic!(
                        "rank {}{window}: runtime stall watchdog fired after {:?} with every \
                         rank idle (likely a mismatched collective)\n{}",
                        self.rank,
                        self.stall_timeout,
                        self.dump()
                    );
                }
                // Nothing runnable: the rank is waiting on peers. Spin a
                // bounded burst first, then sleep a beat so peer rank
                // threads get the core.
                idle_scans += 1;
                if idle_scans <= spin_scans {
                    std::hint::spin_loop();
                } else {
                    std::thread::sleep(Duration::from_micros(100));
                }
            }
        }
    }

    /// One non-blocking pass over the DAG: run every currently runnable
    /// task once (parking completes whose collective is still in flight)
    /// and return [`Scheduler::all_done`]. Never sleeps and never trips the
    /// watchdog — the cross-iteration window uses it to drain retired steps
    /// opportunistically.
    pub fn poll_pass(&mut self, mut poll: impl FnMut(usize) -> TaskPoll) -> bool {
        for id in 0..self.nodes.len() {
            {
                let node = &self.nodes[id];
                if node.done || node.held || node.deps_remaining > 0 {
                    continue;
                }
                if let Some((g, seq)) = node.gate {
                    if self.group_next[g] != seq {
                        continue;
                    }
                }
            }
            match poll(id) {
                TaskPoll::Done => self.finish(id),
                TaskPoll::Pending => {
                    assert!(
                        self.nodes[id].gate.is_none(),
                        "gated task '{}' returned Pending: begins never block",
                        self.nodes[id].label
                    );
                    self.nodes[id].parked = true;
                }
            }
        }
        self.all_done()
    }

    /// True when every task in the DAG has finished.
    pub fn all_done(&self) -> bool {
        self.nodes.iter().all(|n| n.done)
    }

    fn finish(&mut self, id: usize) {
        self.nodes[id].done = true;
        self.nodes[id].parked = false;
        if let Some((g, seq)) = self.nodes[id].gate {
            debug_assert_eq!(self.group_next[g], seq);
            self.group_next[g] = seq + 1;
        }
        let dependents = std::mem::take(&mut self.nodes[id].dependents);
        for d in &dependents {
            self.nodes[*d].deps_remaining -= 1;
        }
        self.nodes[id].dependents = dependents;
    }

    /// Render the per-task state diagnostic the watchdog dumps on a stall.
    pub fn dump(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let window = match self.window {
            Some((w, it)) => format!(" (window {w}, iteration {it})"),
            None => String::new(),
        };
        let _ = writeln!(out, "task states on rank {}{window}:", self.rank);
        for (id, node) in self.nodes.iter().enumerate() {
            let state = if node.done {
                "done".to_string()
            } else if node.held {
                "held".to_string()
            } else if node.parked {
                "parked (collective in flight)".to_string()
            } else if node.deps_remaining > 0 {
                format!("blocked ({} deps unfinished)", node.deps_remaining)
            } else if let Some((g, seq)) = node.gate {
                format!("gate-waiting (group {g} at {}, task at {seq})", self.group_next[g])
            } else {
                "ready".to_string()
            };
            let gate = match node.gate {
                Some((g, seq)) => format!(" gate=({g},{seq})"),
                None => String::new(),
            };
            let defer = if node.deferrable { " [deferrable]" } else { "" };
            let _ = writeln!(out, "  [{id}] {}{gate}: {state}{defer}", node.label);
        }
        for (g, members) in self.groups.iter().enumerate() {
            let _ = writeln!(
                out,
                "  group {g} {:?}: next seq {} of {}",
                members, self.group_next[g], self.group_seq[g]
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dependency_chain_runs_in_order() {
        let mut sched = Scheduler::new(0, 1000);
        let a = sched.add_task("a".into(), None, &[]);
        let b = sched.add_task("b".into(), None, &[a]);
        let c = sched.add_task("c".into(), None, &[b]);
        let mut order = Vec::new();
        sched.run(|id| {
            order.push(id);
            TaskPoll::Done
        });
        assert_eq!(order, vec![a, b, c]);
    }

    #[test]
    fn gate_pins_per_group_issue_order() {
        let mut sched = Scheduler::new(0, 1000);
        let g = sched.add_group(&[1, 0]);
        // `x` (seq 0) is data-blocked behind `c`; `y` (seq 1) is runnable
        // immediately but the gate must still hold it behind `x`.
        let c = sched.add_task("c".into(), None, &[]);
        let x = sched.add_task("x".into(), Some(g), &[c]);
        let y = sched.add_task("y".into(), Some(g), &[]);
        let mut order = Vec::new();
        sched.run(|id| {
            order.push(id);
            TaskPoll::Done
        });
        assert_eq!(order, vec![c, x, y]);
    }

    #[test]
    fn groups_deduplicate_by_normalized_membership() {
        let mut sched = Scheduler::new(0, 1000);
        let a = sched.add_group(&[2, 0, 1]);
        let b = sched.add_group(&[0, 1, 2]);
        let c = sched.add_group(&[0, 1]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn parked_task_is_repolled_until_ready() {
        let mut sched = Scheduler::new(0, 1000);
        let t = sched.add_task("parker".into(), None, &[]);
        let mut polls = 0;
        sched.run(|id| {
            assert_eq!(id, t);
            polls += 1;
            if polls < 3 {
                TaskPoll::Pending
            } else {
                TaskPoll::Done
            }
        });
        assert_eq!(polls, 3);
    }

    #[test]
    fn parked_task_yields_the_rank_to_later_runnable_work() {
        let mut sched = Scheduler::new(0, 1000);
        let parker = sched.add_task("parker".into(), None, &[]);
        let other = sched.add_task("other".into(), None, &[]);
        let mut other_done = false;
        let mut order = Vec::new();
        sched.run(|id| {
            if id == parker {
                if !other_done {
                    return TaskPoll::Pending;
                }
                order.push(id);
                TaskPoll::Done
            } else {
                other_done = true;
                order.push(id);
                TaskPoll::Done
            }
        });
        // `other` finished while `parker` sat parked.
        assert_eq!(order, vec![other, parker]);
    }

    #[test]
    fn held_tasks_wait_for_release() {
        let mut sched = Scheduler::new(0, 1000);
        let a = sched.add_task("a".into(), None, &[]);
        let b = sched.add_task("b".into(), None, &[a]);
        sched.hold(b);
        let mut order = Vec::new();
        sched.run(|id| {
            order.push(id);
            TaskPoll::Done
        });
        assert_eq!(order, vec![a]);
        sched.release_all();
        sched.run(|id| {
            order.push(id);
            TaskPoll::Done
        });
        assert_eq!(order, vec![a, b]);
    }

    #[test]
    #[should_panic(expected = "stall watchdog")]
    fn watchdog_converts_a_permanent_park_into_a_diagnostic_panic() {
        let mut sched = Scheduler::new(0, 50);
        sched.add_task("never-ready-complete".into(), None, &[]);
        sched.run(|_| TaskPoll::Pending);
    }

    #[test]
    fn watchdog_waits_out_a_busy_peer() {
        // Rank 1 of a two-rank world never goes idle (it is computing, or
        // has not entered its step), so rank 0 may park far beyond the
        // timeout without the watchdog firing.
        let gauges = IdleGauge::world(2);
        let mut sched = Scheduler::new(0, 50).watching(gauges[0].clone());
        sched.add_task("slow-peer-complete".into(), None, &[]);
        let start = Instant::now();
        sched.run(|_| {
            if start.elapsed() < Duration::from_millis(150) {
                TaskPoll::Pending
            } else {
                TaskPoll::Done
            }
        });
        assert!(sched.all_done());
        assert!(!gauges[1].world_idle(), "the run leaves rank 0 marked busy");
    }

    #[test]
    #[should_panic(expected = "stall watchdog")]
    fn watchdog_fires_once_every_rank_is_idle() {
        let gauges = IdleGauge::world(2);
        gauges[1].set_idle(true);
        let mut sched = Scheduler::new(0, 50).watching(gauges[0].clone());
        sched.add_task("mismatched-complete".into(), None, &[]);
        sched.run(|_| TaskPoll::Pending);
    }

    #[test]
    #[should_panic(expected = "begins never block")]
    fn gated_tasks_must_not_park() {
        let mut sched = Scheduler::new(0, 1000);
        let g = sched.add_group(&[0, 1]);
        sched.add_task("bad-begin".into(), Some(g), &[]);
        sched.run(|_| TaskPoll::Pending);
    }

    #[test]
    fn run_released_exits_past_pending_deferrable_work() {
        let mut sched = Scheduler::new(0, 50);
        let a = sched.add_task("begin".into(), None, &[]);
        let d = sched.add_task("deferred-complete".into(), None, &[a]);
        sched.mark_deferrable(d);
        // The deferrable complete never becomes ready; run_released must
        // exit once the begin is done instead of tripping the watchdog.
        sched.run_released(|id| if id == a { TaskPoll::Done } else { TaskPoll::Pending });
        assert!(!sched.all_done());
        // A later window poll drains it once the collective lands.
        assert!(sched.poll_pass(|_| TaskPoll::Done));
        assert!(sched.all_done());
    }

    #[test]
    fn run_released_still_drains_ready_deferrable_work() {
        let mut sched = Scheduler::new(0, 1000);
        let a = sched.add_task("begin".into(), None, &[]);
        let d = sched.add_task("deferred-complete".into(), None, &[a]);
        sched.mark_deferrable(d);
        sched.run_released(|_| TaskPoll::Done);
        assert!(sched.all_done(), "a ready deferrable task should finish in-step");
    }

    #[test]
    #[should_panic(expected = "stall watchdog")]
    fn run_released_watchdog_counts_non_deferrable_work() {
        let mut sched = Scheduler::new(0, 50);
        sched.add_task("stuck-complete".into(), None, &[]);
        sched.run_released(|_| TaskPoll::Pending);
    }

    #[test]
    fn poll_pass_never_blocks() {
        let mut sched = Scheduler::new(0, 1000);
        let a = sched.add_task("a".into(), None, &[]);
        let _b = sched.add_task("b".into(), None, &[a]);
        assert!(!sched.poll_pass(|id| if id == a { TaskPoll::Pending } else { TaskPoll::Done }));
        assert!(sched.poll_pass(|_| TaskPoll::Done));
    }

    #[test]
    #[should_panic(expected = "window 7, iteration 42")]
    fn watchdog_panic_names_the_window_and_iteration() {
        let mut sched = Scheduler::with_window(0, 50, 7, 42);
        sched.add_task("stuck".into(), None, &[]);
        sched.run(|_| TaskPoll::Pending);
    }

    #[test]
    fn dump_includes_window_context_and_deferrable_marker() {
        let mut sched = Scheduler::with_window(1, 1000, 3, 11);
        let t = sched.add_task("factor-complete L0".into(), None, &[]);
        sched.mark_deferrable(t);
        let dump = sched.dump();
        assert!(dump.contains("(window 3, iteration 11)"));
        assert!(dump.contains("[deferrable]"));
    }

    #[test]
    fn dump_names_every_task_and_group() {
        let mut sched = Scheduler::new(3, 1000);
        let g = sched.add_group(&[0, 3]);
        let a = sched.add_task("factor-begin L0".into(), Some(g), &[]);
        let _b = sched.add_task("factor-fold L0".into(), None, &[a]);
        let dump = sched.dump();
        assert!(dump.contains("rank 3"));
        assert!(dump.contains("factor-begin L0"));
        assert!(dump.contains("blocked (1 deps unfinished)"));
        assert!(dump.contains("group 0 [0, 3]"));
    }
}
