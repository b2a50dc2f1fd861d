//! In-memory span recorder for the traced run.
//!
//! One recorder per rank thread. With tracing off every call is a single
//! branch around the closure; with it on, a span costs two clock reads and
//! one push. Spans are written out only after the run ends.

use std::time::Instant;

/// One recorded call: `name` ran on `rank` during optimizer step `step`
/// from `start_ns` to `end_ns` (relative to the run's origin), inside the
/// span at index `parent` of the same rank's list.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub rank: usize,
    pub step: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

pub struct Tracer {
    on: bool,
    rank: usize,
    origin: Instant,
    open: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, rank: usize, origin: Instant) -> Self {
        Tracer { on, rank, origin, open: Vec::new(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span that later spans nest under until [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, step: usize) {
        if self.on {
            let start_ns = self.now_ns();
            let parent = self.open.last().copied();
            self.spans.push(Span {
                name,
                rank: self.rank,
                step,
                start_ns,
                end_ns: start_ns,
                parent,
            });
            self.open.push(self.spans.len() - 1);
        }
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        if self.on {
            let end = self.now_ns();
            let idx = self.open.pop().expect("close without open span");
            self.spans[idx].end_ns = end;
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, step: usize, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        self.open(name, step);
        let out = f();
        self.close();
        out
    }
}

/// Self time of every span: its duration minus the part its children
/// cover (children of one parent never overlap on a rank thread).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= (s.end_ns - s.start_ns) as f64 * 1e-9;
        }
    }
    own
}

/// Chrome trace-event JSON (opens in Perfetto): one complete event per
/// span, rank as thread id, step and parent index as arguments.
pub fn chrome_trace(spans_by_rank: &[Vec<Span>]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for spans in spans_by_rank {
        for (i, s) in spans.iter().enumerate() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"step\":{},\"id\":{},\"parent\":{}}}}}",
                s.name,
                s.rank,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.step,
                i,
                parent
            ));
        }
    }
    out.push_str("\n]}\n");
    out
}
