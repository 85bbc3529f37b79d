//! Bench-side spans: one span around every call the benchmark makes into
//! a layer, recorded on the bench thread, kept in memory and written out
//! when the run ends. A layer's self time is its spans' duration minus
//! the part their child spans cover. Spans *inside* the program are a
//! later change; these only see what crosses a public interface.

use std::time::Instant;

/// The module a span's time is charged to. `Bench` is the benchmark's own
/// loop (root spans and oracle checks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Bench,
    Runtime,
    Counters,
    Taskbench,
    Serve,
    Causal,
    Inncabs,
}

impl Layer {
    /// Every layer, in declaration order (`layer as usize` indexes it).
    pub const ALL: [Layer; 7] = [
        Layer::Bench,
        Layer::Runtime,
        Layer::Counters,
        Layer::Taskbench,
        Layer::Serve,
        Layer::Causal,
        Layer::Inncabs,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Runtime => "runtime",
            Layer::Counters => "counters",
            Layer::Taskbench => "taskbench",
            Layer::Serve => "serve",
            Layer::Causal => "causal",
            Layer::Inncabs => "inncabs",
        }
    }
}

/// Rep number of spans recorded outside the timed ops (set-up, teardown).
pub const OUTSIDE_OPS: i64 = -1;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    /// Index of the timed op the span belongs to, or [`OUTSIDE_OPS`].
    pub rep: i64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
}

/// The recorder. While `on` is false `scope` only calls its closure, so
/// the untraced run and the untraced half of a traced run pay one branch.
pub struct Spans {
    pub on: bool,
    pub rep: i64,
    epoch: Instant,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            rep: OUTSIDE_OPS,
            epoch: Instant::now(),
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Run `f` inside a span charged to `layer`.
    pub fn scope<R>(
        &mut self,
        name: &'static str,
        layer: Layer,
        f: impl FnOnce(&mut Spans) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            rep: self.rep,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Σ (span − children) per layer, ns, in [`Layer::ALL`] order.
    pub fn self_time_ns(&self) -> [u64; 7] {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = [0u64; 7];
        for (s, covered) in self.spans.iter().zip(child_ns) {
            out[s.layer as usize] += (s.end_ns - s.start_ns).saturating_sub(covered);
        }
        out
    }

    /// Σ duration of the root spans, ns: the wall the spans account for.
    pub fn root_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Chrome Trace Event JSON of the first `limit` spans (complete
    /// events, `tid` = layer so each layer gets a track). The file says
    /// how many spans the run recorded in all.
    pub fn to_chrome_trace(&self, workload: &str, limit: usize) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().take(limit).enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":0,\"tid\":{},\"args\":{{\"id\":{},\"rep\":{},\"parent\":{}}}}}",
                s.name,
                s.layer.name(),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.layer as usize,
                i,
                s.rep,
                s.parent.map_or(-1, |p| p as i64),
            ));
        }
        out.push_str(&format!(
            "\n],\"otherData\":{{\"workload\":\"{workload}\",\"spans_recorded\":{},\
             \"spans_written\":{}}}}}\n",
            self.spans.len(),
            self.spans.len().min(limit)
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children_and_sums_to_the_roots() {
        let mut s = Spans::new(true);
        s.scope("op", Layer::Bench, |s| {
            s.scope("spawn", Layer::Runtime, |_| std::hint::black_box(1));
            s.scope("get", Layer::Runtime, |s| {
                s.scope("analyze", Layer::Causal, |_| std::hint::black_box(2));
            });
        });
        assert_eq!(s.spans().len(), 4);
        assert_eq!(s.spans()[3].parent, Some(2));
        assert_eq!(s.spans()[0].parent, None);
        let total: u64 = s.self_time_ns().iter().sum();
        assert_eq!(total, s.root_ns());
    }

    #[test]
    fn a_recorder_that_is_off_records_nothing() {
        let mut s = Spans::new(false);
        assert_eq!(s.scope("op", Layer::Bench, |_| 7), 7);
        assert!(s.spans().is_empty());
    }

    #[test]
    fn chrome_trace_is_json_and_says_what_it_left_out() {
        let mut s = Spans::new(true);
        for _ in 0..3 {
            s.scope("op", Layer::Bench, |_| ());
        }
        let text = s.to_chrome_trace("w", 2);
        let v: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        assert_eq!(v["traceEvents"].as_array().expect("array").len(), 2);
        assert_eq!(v["otherData"]["spans_recorded"].as_u64(), Some(3));
    }
}
