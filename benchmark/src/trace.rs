//! Span recording for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each call into a
//! layer; nothing inside `crates/` is instrumented. The buffer is allocated
//! once, before the measured region, and written out when the run ends.
//! A span's self time is its duration minus the time its children cover.

use std::fmt::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One recorded interval.
#[derive(Clone, Copy)]
pub struct Span {
    name: &'static str,
    parent: u32,
    op: u32,
    start_ns: u64,
    end_ns: u64,
}

/// What an op reports its layer boundaries to: [`Off`] in the untraced run
/// (compiles to nothing), a [`Tracer`] in the traced one. One op definition
/// serves both, so the traced run replays exactly the measured calls.
pub trait Rec {
    /// Whether spans are kept; lets an op skip work only a span needs.
    const ON: bool;
    /// Opens a span under the innermost open one; returns its handle.
    fn begin(&mut self, name: &'static str) -> u32;
    /// Closes span `id`, optionally renaming it (a cache lookup only knows
    /// whether it hit once it returns).
    fn end_as(&mut self, id: u32, name: Option<&'static str>);
    /// Closes span `id`.
    fn end(&mut self, id: u32) {
        self.end_as(id, None);
    }
}

/// The untraced recorder.
pub struct Off;

impl Rec for Off {
    const ON: bool = false;
    #[inline(always)]
    fn begin(&mut self, _: &'static str) -> u32 {
        0
    }
    #[inline(always)]
    fn end_as(&mut self, _: u32, _: Option<&'static str>) {}
}

/// Per-name totals over a finished trace.
pub struct LayerTotal {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// In-memory span buffer. Top-level spans (no parent) are ops; each new one
/// advances the op identifier its descendants share.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

impl Tracer {
    /// A tracer with room for `capacity` spans; recording past it panics
    /// rather than reallocating inside a measured region.
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Per span, the time its direct children cover.
    fn child_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        child_ns
    }

    /// Totals by span name, in first-seen order.
    pub fn totals(&self) -> Vec<LayerTotal> {
        let mut out: Vec<LayerTotal> = Vec::new();
        for (s, kids) in self.spans.iter().zip(self.child_ns()) {
            let dur = s.end_ns - s.start_ns;
            let slot = match out.iter().position(|t| t.name == s.name) {
                Some(i) => i,
                None => {
                    out.push(LayerTotal {
                        name: s.name,
                        count: 0,
                        total_ns: 0,
                        self_ns: 0,
                    });
                    out.len() - 1
                }
            };
            out[slot].count += 1;
            out[slot].total_ns += dur;
            out[slot].self_ns += dur.saturating_sub(kids);
        }
        out
    }

    /// Median duration of the spans called `name`, microseconds (0 if none).
    pub fn median_us(&self, name: &str) -> f64 {
        let mut ns: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect();
        if ns.is_empty() {
            0.0
        } else {
            crate::stats::median(&mut ns) / 1e3
        }
    }

    /// Σ self time of the layer spans (everything below an op) ÷ Σ op time:
    /// the share of the measured op the layers account for. The remainder
    /// is harness glue between the calls.
    pub fn layer_sum_ratio(&self) -> f64 {
        let (mut layer_self, mut op_ns) = (0u64, 0u64);
        for (s, kids) in self.spans.iter().zip(self.child_ns()) {
            let dur = s.end_ns - s.start_ns;
            if s.parent == NO_PARENT {
                op_ns += dur;
            } else {
                layer_self += dur.saturating_sub(kids);
            }
        }
        layer_self as f64 / op_ns as f64
    }

    /// Renders the trace as JSON: per-name totals over every span, and the
    /// raw spans of the first `raw_ops` ops (a whole run's raw spans would
    /// be hundreds of megabytes on the event workloads).
    pub fn to_json(&self, workload: &str, seed: u64, raw_ops: u32) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"ops\":{},\"spans_recorded\":{},\
             \"layer_sum_ratio\":{},\"layers\":[",
            self.op,
            self.spans.len(),
            self.layer_sum_ratio()
        );
        for (i, t) in self.totals().iter().enumerate() {
            let _ = write!(
                s,
                "{}{{\"name\":\"{}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                if i > 0 { "," } else { "" },
                t.name,
                t.count,
                t.total_ns,
                t.self_ns
            );
        }
        let _ = write!(s, "],\"raw_ops\":{raw_ops},\"spans\":[");
        let mut first = true;
        for (id, sp) in self.spans.iter().enumerate() {
            if sp.op > raw_ops {
                break;
            }
            let parent = if sp.parent == NO_PARENT {
                "null".to_string()
            } else {
                sp.parent.to_string()
            };
            let _ = write!(
                s,
                "{}{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                if first { "" } else { "," },
                sp.name,
                sp.start_ns,
                sp.end_ns,
                sp.op
            );
            first = false;
        }
        s.push_str("]}\n");
        s
    }
}

impl Rec for Tracer {
    const ON: bool = true;
    fn begin(&mut self, name: &'static str) -> u32 {
        assert!(
            self.spans.len() < self.spans.capacity(),
            "span buffer full: sized too small for this run"
        );
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        if parent == NO_PARENT {
            self.op += 1;
        }
        let id = self.spans.len() as u32;
        self.open.push(id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            op: self.op,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    fn end_as(&mut self, id: u32, name: Option<&'static str>) {
        let end_ns = self.now_ns();
        let popped = self.open.pop();
        assert_eq!(popped, Some(id), "spans must close innermost first");
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        if let Some(name) = name {
            span.name = name;
        }
    }
}
