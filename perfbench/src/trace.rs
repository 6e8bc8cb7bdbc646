//! Benchmark-side tracing: spans around the calls into each layer.
//!
//! Workload code is generic over [`Trace`]. The untraced run uses
//! [`NoTrace`], whose methods inline to the bare calls, so the end-to-end
//! numbers carry no instrumentation. The traced run uses [`Spans`],
//! which keeps every span in memory (name, start, end, parent) and
//! aggregates the hot per-message calls (driver `handle`, codec
//! `encode`/`decode`) into per-[`Leaf`] counters, because one span record
//! per frame would cost more memory than the workload itself. Those
//! calls take about 100 ns each, so timing every one of them would
//! double the run: every call is counted, and one call in
//! [`LEAF_SAMPLE`] is timed. Both are written out once, when the run
//! ends.

#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

use crate::json::quote;
use std::fmt::Write as _;
use std::time::Instant;

/// One call in this many of each [`Leaf`] is timed.
pub const LEAF_SAMPLE: u64 = 16;

/// Whether the `n`-th call of a leaf is timed: a fixed pseudo-random
/// one in [`LEAF_SAMPLE`], so the sample cannot alias with a periodic
/// call pattern (a heartbeat tick followed by its 63 receipts, say).
pub fn sampled(n: u64) -> bool {
    n.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60 == 0
}

/// A hot call site timed in aggregate rather than as individual spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leaf {
    /// `NodeDriver::handle`.
    DriverHandle,
    /// `NodeDriver::start`.
    DriverStart,
    /// `aria_codec::encode`.
    CodecEncode,
    /// `aria_codec::decode`.
    CodecDecode,
}

impl Leaf {
    /// Every leaf, in report order.
    pub const ALL: [Leaf; 4] = [
        Leaf::DriverHandle,
        Leaf::DriverStart,
        Leaf::CodecEncode,
        Leaf::CodecDecode,
    ];

    /// The leaf's name in the span file.
    pub fn name(self) -> &'static str {
        match self {
            Leaf::DriverHandle => "driver.handle",
            Leaf::DriverStart => "driver.start",
            Leaf::CodecEncode => "codec.encode",
            Leaf::CodecDecode => "codec.decode",
        }
    }
}

/// Instrumentation hooks the workloads call around each layer.
pub trait Trace {
    /// Runs `f` inside a span called `name`.
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R;
    /// Runs one hot call, timed in aggregate under `leaf`.
    fn leaf<R>(&mut self, leaf: Leaf, f: impl FnOnce() -> R) -> R;
}

/// The untraced run: every hook is the bare call.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoTrace;

impl Trace for NoTrace {
    #[inline(always)]
    fn span<R>(&mut self, _name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        f(self)
    }

    #[inline(always)]
    fn leaf<R>(&mut self, _leaf: Leaf, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Layer call the span covers.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Time spent in aggregated [`Leaf`] calls made directly inside
    /// this span (they are its children too).
    pub leaf_ns: u64,
}

impl SpanRec {
    /// The span's duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Count and sampled time of one [`Leaf`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeafAgg {
    /// Calls made.
    pub count: u64,
    /// Calls timed (see [`sampled`]).
    pub timed: u64,
    /// Total ns spent in the timed calls.
    pub timed_ns: u64,
}

impl LeafAgg {
    /// Mean ns per call, over the timed calls (0 before any).
    pub fn mean_ns(&self) -> f64 {
        if self.timed == 0 {
            0.0
        } else {
            self.timed_ns as f64 / self.timed as f64
        }
    }
}

/// The in-memory span recorder of the traced run.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
    leaves: [LeafAgg; Leaf::ALL.len()],
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            leaves: Default::default(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every recorded span, in start order.
    #[cfg(test)]
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// The aggregate of one leaf.
    pub fn leaf_agg(&self, leaf: Leaf) -> LeafAgg {
        self.leaves[leaf as usize]
    }

    /// Total seconds covered by spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns())
            .sum::<u64>() as f64
            / 1e9
    }

    /// Number of spans called `name`.
    #[cfg(test)]
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// The recording as one JSON document: spans with their self time,
    /// then the leaf aggregates. `meta` is a JSON object spliced in as
    /// the `"meta"` member.
    pub fn to_json(&self, meta: &str) -> String {
        let self_ns = self_times(&self.spans);
        let mut out = format!("{{\"meta\":{meta},\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                quote(s.name),
                s.start_ns,
                s.end_ns,
                self_ns[i]
            );
        }
        out.push_str("\n],\"leaves\":[");
        for (i, leaf) in Leaf::ALL.iter().enumerate() {
            let agg = self.leaf_agg(*leaf);
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\":{},\"count\":{},\"timed\":{},\"timed_ns\":{},\"mean_ns\":{}}}",
                quote(leaf.name()),
                agg.count,
                agg.timed,
                agg.timed_ns,
                crate::json::number(agg.mean_ns())
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

impl Trace for Spans {
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
            leaf_ns: 0,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    #[inline]
    fn leaf<R>(&mut self, leaf: Leaf, f: impl FnOnce() -> R) -> R {
        let agg = &mut self.leaves[leaf as usize];
        agg.count += 1;
        if !sampled(agg.count) {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        let agg = &mut self.leaves[leaf as usize];
        agg.timed += 1;
        agg.timed_ns += ns;
        if let Some(&top) = self.stack.last() {
            // The sample stands for the LEAF_SAMPLE calls it was drawn from.
            self.spans[top].leaf_ns += ns * LEAF_SAMPLE;
        }
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// its direct children cover (overlapping children count once) and
/// minus its aggregated leaf time.
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut intervals)| {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut cursor = 0;
            for (a, b) in intervals {
                let a = a.max(cursor);
                if b > a {
                    covered += b - a;
                }
                cursor = cursor.max(b);
            }
            s.duration_ns()
                .saturating_sub(covered)
                .saturating_sub(s.leaf_ns)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            name,
            parent,
            start_ns,
            end_ns,
            leaf_ns: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 50, 90),
            span("a.x", Some(1), 12, 20),
        ];
        assert_eq!(self_times(&spans), [40, 12, 40, 8]);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        // Two children overlapping each other (worker threads), one
        // running past the parent's end.
        let spans = vec![
            span("root", None, 100, 200),
            span("w1", Some(0), 110, 160),
            span("w2", Some(0), 140, 180),
            span("late", Some(0), 190, 250),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn leaf_time_counts_as_child_time() {
        let mut spans = vec![span("host", None, 0, 1000), span("setup", Some(0), 0, 100)];
        spans[0].leaf_ns = 600;
        assert_eq!(self_times(&spans), [300, 100]);
        // Saturates rather than wrapping on clock noise.
        spans[0].leaf_ns = 2000;
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn recorder_nests_spans_and_aggregates_leaves() {
        let mut t = Spans::new();
        let v = t.span("outer", |t| {
            let x = t.span("inner", |t| t.leaf(Leaf::CodecEncode, || 2));
            x + (0..2 * LEAF_SAMPLE)
                .map(|_| t.leaf(Leaf::CodecEncode, || 3))
                .sum::<u64>()
        });
        assert_eq!(v, 2 + 6 * LEAF_SAMPLE);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let agg = t.leaf_agg(Leaf::CodecEncode);
        assert_eq!(agg.count, 2 * LEAF_SAMPLE + 1);
        assert_eq!(
            agg.timed,
            (1..=agg.count).filter(|&n| sampled(n)).count() as u64
        );
        // Sampled leaf time is charged to the span the calls ran in.
        assert!(spans[0].leaf_ns >= agg.timed_ns * LEAF_SAMPLE);
        assert_eq!(t.count("inner"), 1);
        let doc = crate::json::parse(&t.to_json("{}")).unwrap();
        assert_eq!(doc.get("spans").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(
            doc.get("leaves").unwrap().as_array().unwrap().len(),
            Leaf::ALL.len()
        );
    }

    #[test]
    fn one_call_in_leaf_sample_is_timed() {
        let timed = (1..=16_000u64).filter(|&n| sampled(n)).count() as f64;
        let expected = 16_000.0 / LEAF_SAMPLE as f64;
        assert!((timed - expected).abs() < expected * 0.05, "{timed} timed");
        // No period: consecutive sampled calls are not evenly spaced.
        let gaps: Vec<u64> = (1..2_000u64)
            .filter(|&n| sampled(n))
            .collect::<Vec<_>>()
            .windows(2)
            .map(|w| w[1] - w[0])
            .collect();
        assert!(gaps.iter().any(|&g| g != gaps[0]));
    }

    #[test]
    fn no_trace_is_the_bare_call() {
        let mut t = NoTrace;
        assert_eq!(t.span("x", |t| t.leaf(Leaf::DriverHandle, || 7)), 7);
    }
}
