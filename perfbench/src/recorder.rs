//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's files, around calls into each
//! layer's public functions, and kept in memory until the run ends. The
//! recorder is deliberately independent of `uvf-trace`: a change to the
//! library's tracing crate cannot change how the benchmark measures.
//!
//! A span's parent is the innermost open span on the same thread, or an
//! explicit parent for work fanned out to worker threads
//! ([`Recorder::span_under`]). Self time is a span's duration minus the
//! part of its interval that its children cover (children may overlap when
//! they run on several threads, so coverage is a union of intervals).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Crate names of the layers under test. A span belongs to a layer when
/// its name starts with `<layer>.`.
pub const LAYERS: [&str; 7] = [
    "fpga",
    "faults",
    "characterize",
    "stats",
    "power",
    "nn",
    "accel",
];

/// One closed span; times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer this span measures, if its name carries a layer prefix.
    #[must_use]
    pub fn layer(&self) -> Option<&'static str> {
        let prefix = self.name.split('.').next()?;
        LAYERS.iter().copied().find(|l| *l == prefix)
    }
}

thread_local! {
    /// Open span ids on this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// In-memory span and counter store. A disabled recorder runs the closures
/// and records nothing.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<&'static str, f64>>,
}

impl Recorder {
    #[must_use]
    pub fn new() -> Recorder {
        Recorder {
            enabled: true,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
        }
    }

    #[must_use]
    pub fn disabled() -> Recorder {
        Recorder {
            enabled: false,
            ..Recorder::new()
        }
    }

    /// Does this recorder keep spans and counters?
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the recorder was created.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The innermost span open on the calling thread.
    #[must_use]
    pub fn current() -> Option<u64> {
        OPEN.with(|open| open.borrow().last().copied())
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span on this thread.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span_under(Recorder::current(), name, f)
    }

    /// Run `f` inside a span with an explicit parent (for worker threads,
    /// whose own stack starts empty).
    pub fn span_under<T>(
        &self,
        parent: Option<u64>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        OPEN.with(|open| open.borrow_mut().push(id));
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        OPEN.with(|open| open.borrow_mut().pop());
        self.spans.lock().expect("span store poisoned").push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Add `value` to the counter `name`.
    pub fn count(&self, name: &'static str, value: f64) {
        if self.enabled {
            *self
                .counters
                .lock()
                .expect("counter store poisoned")
                .entry(name)
                .or_insert(0.0) += value;
        }
    }

    #[must_use]
    pub fn counter(&self, name: &str) -> f64 {
        self.counters
            .lock()
            .expect("counter store poisoned")
            .get(name)
            .copied()
            .unwrap_or(0.0)
    }

    /// Every closed span, in closing order.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

/// Total length of the union of half-open intervals `[start, end)`.
#[must_use]
pub fn union_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of every span, keyed by span id: its duration minus the union
/// of its children's intervals clipped to its own.
#[must_use]
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut clipped: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|kids| {
                    kids.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            (s.id, s.duration_ns() - union_ns(&mut clipped))
        })
        .collect()
}

/// Nanoseconds of `[from, to)` covered by at least one layer span.
#[must_use]
pub fn layer_coverage_ns(spans: &[Span], from: u64, to: u64) -> u64 {
    let mut intervals: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.layer().is_some())
        .map(|s| (s.start_ns.max(from), s.end_ns.min(to)))
        .filter(|(a, b)| a < b)
        .collect();
    union_ns(&mut intervals)
}

/// Per-name aggregate of a span set.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStats {
    pub calls: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
    /// Every call's duration in seconds, in closing order.
    pub durations_s: Vec<f64>,
}

/// Aggregate spans by name: call count, summed duration, summed self time.
#[must_use]
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, SpanStats> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_insert(SpanStats {
            calls: 0,
            busy_ns: 0,
            self_ns: 0,
            durations_s: Vec::new(),
        });
        e.calls += 1;
        e.busy_ns += s.duration_ns();
        e.self_ns += selfs[&s.id];
        e.durations_s.push(s.duration_ns() as f64 / 1e9);
    }
    out
}

/// The spans as JSON lines, one object per span with its self time.
#[must_use]
pub fn spans_jsonl(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}\n",
            s.id, s.name, s.start_ns, s.end_ns, selfs[&s.id],
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn union_merges_overlaps_and_gaps() {
        assert_eq!(union_ns(&mut []), 0);
        assert_eq!(union_ns(&mut [(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_ns(&mut [(20, 25), (0, 10), (10, 12)]), 17);
        assert_eq!(union_ns(&mut [(0, 100), (10, 20), (30, 40)]), 100);
    }

    #[test]
    fn self_time_of_a_hand_built_tree() {
        // root [0,100): children a [10,40) and b [30,60) overlap (two
        // threads), so they cover [10,60) = 50 ns of the root.
        // a has a child c [15,25): a's self time is 30 - 10 = 20.
        // d [90,120) sticks out of the root: only [90,100) counts.
        let spans = [
            span(2, Some(1), "nn.eval", 10, 40),
            span(3, Some(1), "accel.read_back", 30, 60),
            span(4, Some(2), "faults.ecc", 15, 25),
            span(5, Some(1), "stats.chi2", 90, 120),
            span(1, None, "characterize.campaign", 0, 100),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 50 - 10);
        assert_eq!(selfs[&2], 20);
        assert_eq!(selfs[&3], 30);
        assert_eq!(selfs[&4], 10);
        assert_eq!(selfs[&5], 30);

        let names = by_name(&spans);
        assert_eq!(names["nn.eval"].calls, 1);
        assert_eq!(names["nn.eval"].self_ns, 20);
        assert_eq!(names["characterize.campaign"].busy_ns, 100);
    }

    #[test]
    fn coverage_counts_only_layer_spans_inside_the_window() {
        let spans = [
            span(1, None, "bench.pass", 0, 100),
            span(2, Some(1), "nn.eval", 10, 40),
            span(3, Some(1), "accel.read_back", 30, 60),
            span(4, None, "faults.model_build", 90, 150),
        ];
        assert_eq!(layer_coverage_ns(&spans, 0, 100), 60);
        assert_eq!(span(9, None, "bench.pass", 0, 1).layer(), None);
        assert_eq!(span(9, None, "nnx.eval", 0, 1).layer(), None);
        assert_eq!(span(9, None, "fpga.board", 0, 1).layer(), Some("fpga"));
    }

    #[test]
    fn recorder_nests_spans_and_adopts_explicit_parents() {
        let rec = Recorder::new();
        let outer_id = rec.span("characterize.campaign", || {
            let me = Recorder::current();
            rec.span("faults.model_build", || ());
            std::thread::scope(|s| {
                s.spawn(|| rec.span_under(me, "characterize.sweep", || ()));
            });
            me
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        let outer = spans.iter().find(|s| s.parent.is_none()).expect("root");
        assert_eq!(Some(outer.id), outer_id);
        assert!(spans
            .iter()
            .filter(|s| s.parent.is_some())
            .all(|s| s.parent == outer_id));
        assert_eq!(Recorder::current(), None);

        let off = Recorder::disabled();
        assert_eq!(off.span("nn.eval", || 7), 7);
        off.count("nn.eval.samples", 3.0);
        assert!(off.spans().is_empty());
        assert_eq!(off.counter("nn.eval.samples"), 0.0);
    }
}
