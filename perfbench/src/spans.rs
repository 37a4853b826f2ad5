//! In-memory spans for the traced run, and self-time accounting.
//!
//! A span records a name, start, end and parent. Spans stay in memory
//! and are summarised when the run ends. A span's self time is its
//! duration minus the part of it that its children cover.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
}

/// Records spans; [`open`](Tracer::open) nests under the innermost
/// span still open.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str) {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
        });
        self.stack.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span, naming it `name` (a call's span
    /// may be named after what the call turned out to do).
    pub fn close_as(&mut self, name: &'static str) {
        let end = self.now();
        let id = self.stack.pop().expect("close matches an open");
        let span = &mut self.spans[id];
        span.end = end;
        span.name = name;
    }

    pub fn close(&mut self) {
        let id = *self.stack.last().expect("close matches an open");
        let name = self.spans[id].name;
        self.close_as(name);
    }
}

/// Per-span self time: the span's duration minus the union of its
/// children's intervals, clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(span.end));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (span.end - span.start).saturating_sub(covered)
        })
        .collect()
}

/// Count, total duration and total self time of the spans of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Totals {
    pub fn mean_self_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64
        }
    }
}

pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut totals: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = totals.entry(span.name).or_default();
        t.count += 1;
        t.total_ns += span.end - span.start;
        t.self_ns += self_ns;
    }
    totals
}

/// Mean cost of one empty span (an `open` plus a `close`) over 2000
/// back-to-back samples.
pub fn empty_span_ns() -> f64 {
    let mut tracer = Tracer::default();
    for _ in 0..2000 {
        tracer.open("empty");
        tracer.close();
    }
    by_name(&tracer.spans)["empty"].mean_self_ns()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        assert_eq!(self_times(&[span("a", 5, 17, None)]), vec![12]);
    }

    #[test]
    fn siblings_are_subtracted_from_the_parent_only() {
        let spans = [
            span("frame", 0, 100, None),
            span("fast", 10, 30, Some(0)),
            span("observe", 30, 35, Some(0)),
            span("fast", 60, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![55, 20, 5, 20]);
    }

    #[test]
    fn nesting_charges_each_level_its_own_share() {
        let spans = [
            span("frame", 0, 100, None),
            span("full", 10, 90, Some(0)),
            span("scram", 20, 50, Some(1)),
            span("commit", 25, 30, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![20, 50, 25, 5]);
        let totals = by_name(&spans);
        assert_eq!(totals["full"].total_ns, 80);
        assert_eq!(totals["full"].self_ns, 50);
        let sum: u64 = totals.values().map(|t| t.self_ns).sum();
        assert_eq!(sum, 100, "self times partition the root");
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span("pool", 0, 50, None),
            span("w1", 10, 30, Some(0)),
            span("w2", 20, 40, Some(0)),
            span("w3", 45, 70, Some(0)),
        ];
        // Covered: [10, 40) and [45, 50) — 35 of 50.
        assert_eq!(self_times(&spans)[0], 15);
    }

    #[test]
    fn tracer_nests_and_renames() {
        let mut t = Tracer::default();
        t.open("frame");
        t.open("advance");
        t.close_as("fast");
        t.open("observe");
        t.close();
        t.close();
        let names: Vec<_> = t.spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![("frame", None), ("fast", Some(0)), ("observe", Some(0))]
        );
        assert!(t.spans.iter().all(|s| s.end >= s.start));
        let by = by_name(&t.spans);
        assert_eq!(by["fast"].count, 1);
    }
}
