//! In-memory span recorder for the traced run.
//!
//! Every span is recorded from the benchmark's own files, around a public
//! call into one layer of the program. Spans are kept in memory and written
//! out once, when the run ends; the end-to-end numbers are measured with no
//! recorder at all.

use crate::json::Value;
use std::time::Instant;

/// `stream` / `frame` of a span that belongs to neither.
pub const NO_INDEX: u32 = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of the span in the recorder (its identifier).
    pub id: u32,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// Layer-qualified name, e.g. `map.stage` or `replay.map.forward`.
    pub name: &'static str,
    /// Stream the work belongs to ([`NO_INDEX`] if none).
    pub stream: u32,
    /// Frame the work belongs to ([`NO_INDEX`] if none). All spans of one
    /// pushed frame share `(stream, frame)`.
    pub frame: u32,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the host-calibration sample taken before the root span this
    /// one descends from (children inherit it).
    pub cal: usize,
}

impl Span {
    /// Raw duration in milliseconds.
    pub fn duration_ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// The recorder. Single-threaded by design: the benchmark generates load
/// from one driver thread and records around the calls that thread makes.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span. A root span
    /// carries `cal`; a child inherits its parent's.
    pub fn begin(&mut self, name: &'static str, stream: u32, frame: u32, cal: usize) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        let cal = parent.map_or(cal, |p| self.spans[p as usize].cal);
        let start_ns = self.now_ns();
        self.spans.push(Span { id, parent, name, stream, frame, start_ns, end_ns: start_ns, cal });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and, defensively, anything opened inside it that
    /// was left open).
    pub fn end(&mut self, id: u32) {
        let end_ns = self.now_ns();
        while let Some(open) = self.open.pop() {
            self.spans[open as usize].end_ns = end_ns;
            if open == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn scoped<R>(
        &mut self,
        name: &'static str,
        stream: u32,
        frame: u32,
        cal: usize,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let id = self.begin(name, stream, frame, cal);
        let result = f(self);
        self.end(id);
        result
    }

    /// All spans, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span in nanoseconds: its duration minus the part
    /// of its interval that its direct children cover (children that
    /// overlap each other are counted once).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let p = &self.spans[parent as usize];
                let start = span.start_ns.clamp(p.start_ns, p.end_ns);
                let end = span.end_ns.clamp(p.start_ns, p.end_ns);
                if end > start {
                    children[parent as usize].push((start, end));
                }
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(span, intervals)| {
                intervals.sort_unstable();
                let mut covered = 0u64;
                let mut cursor = span.start_ns;
                for &(start, end) in intervals.iter() {
                    let start = start.max(cursor);
                    if end > start {
                        covered += end - start;
                        cursor = end;
                    }
                }
                span.end_ns.saturating_sub(span.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Scaled durations (ms) of every span named `name`, in recording order;
    /// `scales` are the per-calibration-sample factors of the run.
    pub fn scaled_ms(&self, name: &str, scales: &[f64]) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ms() * scales.get(s.cal).copied().unwrap_or(1.0))
            .collect()
    }

    /// The trace as a JSON document: one object per span with its raw
    /// interval, self time and host-speed scale factor.
    pub fn to_json(&self, workload: &str, seed: u64, scales: &[f64]) -> Value {
        let self_ns = self.self_times_ns();
        let index = |v: u32| if v == NO_INDEX { Value::Null } else { Value::Num(f64::from(v)) };
        let spans = self
            .spans
            .iter()
            .zip(&self_ns)
            .map(|(s, &self_ns)| {
                Value::obj([
                    ("id", Value::Num(f64::from(s.id))),
                    ("parent", s.parent.map_or(Value::Null, |p| Value::Num(f64::from(p)))),
                    ("name", Value::Str(s.name.into())),
                    ("stream", index(s.stream)),
                    ("frame", index(s.frame)),
                    ("start_ns", Value::Num(s.start_ns as f64)),
                    ("end_ns", Value::Num(s.end_ns as f64)),
                    ("self_ns", Value::Num(self_ns as f64)),
                    ("scale", Value::Num(scales.get(s.cal).copied().unwrap_or(1.0))),
                ])
            })
            .collect();
        Value::obj([
            ("workload", Value::Str(workload.into())),
            ("seed", Value::Num(seed as f64)),
            ("unit", Value::Str("ns since trace start; scaled = (end - start) * scale".into())),
            ("spans", Value::Arr(spans)),
        ])
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recorder with hand-written intervals (no clock involved).
    fn tracer_with(spans: &[(Option<u32>, &'static str, u64, u64)]) -> Tracer {
        let mut t = Tracer::new();
        for (i, &(parent, name, start_ns, end_ns)) in spans.iter().enumerate() {
            t.spans.push(Span {
                id: i as u32,
                parent,
                name,
                stream: 0,
                frame: 7,
                start_ns,
                end_ns,
                cal: i,
            });
        }
        t
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let t = tracer_with(&[
            (None, "frame", 0, 100),
            (Some(0), "fc", 5, 15),
            (Some(0), "track", 20, 50),
            (Some(0), "map", 50, 95),
            (Some(3), "map.forward", 55, 75),
        ]);
        assert_eq!(t.self_times_ns(), vec![100 - 10 - 30 - 45, 10, 30, 45 - 20, 20]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once_and_clipped() {
        let t = tracer_with(&[
            (None, "op", 100, 200),
            (Some(0), "a", 110, 150),
            (Some(0), "b", 140, 170), // overlaps a: union is 110..170
            (Some(0), "c", 190, 260), // overhangs the parent: clipped to 190..200
            (Some(0), "d", 10, 90),   // entirely outside: ignored
        ]);
        assert_eq!(t.self_times_ns()[0], 100 - 60 - 10);
    }

    #[test]
    fn begin_end_nest_and_children_inherit_the_root_calibration_sample() {
        let mut t = Tracer::new();
        let (mut inner_id, mut leaf_id) = (0, 0);
        t.scoped("root", 1, 3, 42, |t| {
            inner_id = t.begin("inner", 1, 3, 999);
            leaf_id = t.begin("leaf", 1, 3, 999);
            // `leaf` is left open: closing `inner` closes it too.
            t.end(inner_id);
        });
        let sibling = t.begin("sibling", NO_INDEX, NO_INDEX, 43);
        t.end(sibling);
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[inner_id as usize].parent, Some(0));
        assert_eq!(spans[leaf_id as usize].parent, Some(inner_id));
        assert_eq!(spans[3].parent, None, "the stack unwound fully");
        assert!(spans[..3].iter().all(|s| s.cal == 42), "children inherit the root's sample");
        assert_eq!(spans[3].cal, 43);
        for s in spans {
            assert!(s.end_ns >= s.start_ns);
        }
        assert!(spans[leaf_id as usize].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn scaled_durations_use_each_spans_calibration_factor() {
        let t =
            tracer_with(&[(None, "x", 0, 2_000_000), (None, "y", 0, 1), (None, "x", 0, 4_000_000)]);
        assert_eq!(t.scaled_ms("x", &[0.5, 1.0, 2.0]), vec![1.0, 8.0]);
        assert_eq!(t.scaled_ms("x", &[]), vec![2.0, 4.0], "missing factors leave spans raw");
    }

    #[test]
    fn json_lists_every_span_with_self_time() {
        let t = tracer_with(&[(None, "frame", 0, 100), (Some(0), "fc", 10, 30)]);
        let doc = t.to_json("steady_map", 7, &[1.0, 1.0]);
        let spans = doc.get("spans").unwrap().items();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get("self_ns").and_then(Value::as_f64), Some(80.0));
        assert_eq!(spans[1].get("parent").and_then(Value::as_f64), Some(0.0));
        assert_eq!(spans[0].get("parent"), Some(&Value::Null));
        assert_eq!(doc.get("workload").and_then(Value::as_str), Some("steady_map"));
        // The document survives its own parser.
        assert_eq!(crate::json::parse(&doc.to_json()).unwrap(), doc);
    }
}
