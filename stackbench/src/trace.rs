//! The benchmark's own span recorder. Spans are taken only around public
//! calls (top-level spans opened by the single caller) and inside the
//! timing `Basis` wrapper (child spans, possibly on service worker
//! threads). Everything stays in memory until the run ends.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing top-level span.
    pub parent: Option<usize>,
    /// The benchmark unit (circuit or batch) the span belongs to.
    pub unit: u64,
}

impl SpanRec {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<SpanRec>>,
    /// `1 + index` of the open top-level span, `0` when none is open. The
    /// benchmark has one caller, so at most one top-level span is open.
    top: AtomicUsize,
    unit: AtomicU64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            top: AtomicUsize::new(0),
            unit: AtomicU64::new(0),
        }
    }
}

impl Tracer {
    /// The span list. A panic elsewhere cannot leave it half-updated (every
    /// update is one push or one field store), so a poisoned lock is still
    /// safe to read.
    fn lock(&self) -> MutexGuard<'_, Vec<SpanRec>> {
        self.spans.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a top-level span; child spans opened meanwhile (on
    /// any thread) become its children.
    pub fn top<R>(&self, name: &'static str, unit: u64, f: impl FnOnce() -> R) -> R {
        let start_ns = self.now_ns();
        let id = {
            let mut spans = self.lock();
            spans.push(SpanRec {
                name,
                start_ns,
                end_ns: start_ns,
                parent: None,
                unit,
            });
            spans.len() - 1
        };
        self.unit.store(unit, Ordering::SeqCst);
        self.top.store(id + 1, Ordering::SeqCst);
        let out = f();
        let end_ns = self.now_ns();
        self.top.store(0, Ordering::SeqCst);
        self.lock()[id].end_ns = end_ns;
        out
    }

    /// Opens a child span of the current top-level span; it is recorded
    /// when the guard drops.
    pub fn child(&self, name: &'static str) -> Child<'_> {
        Child {
            tracer: self,
            name,
            parent: self.top.load(Ordering::SeqCst).checked_sub(1),
            unit: self.unit.load(Ordering::SeqCst),
            start_ns: self.now_ns(),
        }
    }

    /// Drops everything recorded so far (set-up traffic).
    pub fn clear(&self) {
        self.lock().clear();
    }

    pub fn spans(&self) -> Vec<SpanRec> {
        self.lock().clone()
    }
}

pub struct Child<'a> {
    tracer: &'a Tracer,
    name: &'static str,
    parent: Option<usize>,
    unit: u64,
    start_ns: u64,
}

impl Drop for Child<'_> {
    fn drop(&mut self) {
        let end_ns = self.tracer.now_ns();
        self.tracer.lock().push(SpanRec {
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
            parent: self.parent,
            unit: self.unit,
        });
    }
}

/// Total length covered by a set of `[start, end)` intervals.
pub fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// Per top-level span: its children's intervals, clipped to the parent.
pub fn children_of(spans: &[SpanRec]) -> Vec<Vec<(u64, u64)>> {
    let mut kids = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if b > a {
                kids[p].push((a, b));
            }
        }
    }
    kids
}

/// The spans as a JSON array.
pub fn spans_json(spans: &[SpanRec]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"unit\":{}}}",
                s.name, s.start_ns, s.end_ns, s.unit
            )
        })
        .collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

/// Folded stacks (`root;frame;frame self_us`), the input format of
/// flame-graph tools. Each line carries a stack's total self time in
/// microseconds: a top-level span's self time excludes the union of its
/// children.
pub fn folded(root: &str, spans: &[SpanRec]) -> String {
    let kids = children_of(spans);
    let mut totals: Vec<(String, u64)> = Vec::new();
    let mut add = |stack: String, ns: u64| match totals.iter_mut().find(|(s, _)| *s == stack) {
        Some((_, t)) => *t += ns,
        None => totals.push((stack, ns)),
    };
    for (i, s) in spans.iter().enumerate() {
        match s.parent {
            None => add(
                format!("{root};{}", s.name),
                s.ns().saturating_sub(union_ns(kids[i].clone())),
            ),
            Some(p) => add(format!("{root};{};{}", spans[p].name, s.name), s.ns()),
        }
    }
    totals
        .into_iter()
        .map(|(stack, ns)| format!("{stack} {}\n", ns / 1000))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_gaps() {
        assert_eq!(union_ns(vec![]), 0);
        assert_eq!(union_ns(vec![(0, 10), (5, 15), (20, 30)]), 25);
        assert_eq!(union_ns(vec![(20, 30), (0, 10), (2, 3)]), 20);
    }

    #[test]
    fn children_attach_to_the_open_top_span() {
        let t = Tracer::default();
        t.top("compile", 3, || {
            let _a = t.child("synth");
        });
        drop(t.child("synth"));
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].unit, 3);
        assert_eq!(spans[2].parent, None);
        assert!(folded("w", &spans).contains("w;compile;synth "));
    }
}
