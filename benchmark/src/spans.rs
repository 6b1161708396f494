//! Harness-owned span recording around the calls into each layer.
//!
//! The library's own `a2sgd_trace` recorder stays disabled so the hot paths
//! run their production branch; every span here is opened and closed by the
//! replica step in `layers.rs`, kept in memory, and written out as Chrome
//! trace JSON when the pass ends.

use std::fmt::Write as _;
use std::time::Instant;

/// Name of the per-step root span.
pub const STEP: &str = "step";

/// One timed interval on one rank.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index (in the same rank's span list) of the span that caused this
    /// one; `None` for a step root.
    pub parent: Option<usize>,
    /// Step identifier shared by every span of one training step.
    pub step: usize,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-rank recorder. Step roots are always recorded (they time untraced
/// steps too); child spans only in steps begun with `detail`.
pub struct Recorder {
    origin: Instant,
    detail: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    step: usize,
}

impl Recorder {
    /// `origin` is shared by all ranks of a run so their timelines align.
    /// `capacity` pre-sizes the buffer: recording must not allocate inside
    /// the timed loop.
    pub fn new(origin: Instant, capacity: usize) -> Self {
        Recorder {
            origin,
            detail: false,
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(4),
            step: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.open.push(self.spans.len());
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, step: self.step });
    }

    pub fn begin_step(&mut self, step: usize, detail: bool) {
        assert!(self.open.is_empty(), "step {step} opened inside another span");
        self.step = step;
        self.detail = detail;
        self.push(STEP);
    }

    pub fn end_step(&mut self) {
        assert_eq!(self.open.len(), 1, "step closed with child spans still open");
        let i = self.open.pop().expect("checked non-empty");
        self.spans[i].end_ns = self.now_ns();
    }

    /// Opens a child span of whatever is currently open.
    pub fn open(&mut self, name: &'static str) {
        if self.detail {
            self.push(name);
        }
    }

    /// Closes the innermost child span.
    pub fn close(&mut self) {
        if self.detail {
            let i = self.open.pop().expect("close without open");
            self.spans[i].end_ns = self.now_ns();
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "recorder dropped with open spans");
        self.spans
    }
}

/// Nanoseconds of span `i`'s interval that its direct children cover (the
/// union of their intervals, clipped to the parent). Children are recorded
/// after their parent and within its step, so only that stretch is searched.
pub fn covered_ns(spans: &[Span], i: usize) -> u64 {
    let p = &spans[i];
    let mut kids: Vec<(u64, u64)> = spans[i + 1..]
        .iter()
        .take_while(|s| s.step == p.step)
        .filter(|s| s.parent == Some(i))
        .map(|s| (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let (mut covered, mut reach) = (0u64, p.start_ns);
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

/// A span's self time: its duration minus the part its children cover.
pub fn self_ns(spans: &[Span], i: usize) -> u64 {
    spans[i].dur_ns() - covered_ns(spans, i)
}

/// Checks one rank's spans: intervals are ordered, every non-root span has
/// a parent in the same step, and children nest inside their parents.
pub fn check_well_formed(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} `{}` ends before it starts", s.name));
        }
        match s.parent {
            None if s.name != STEP => {
                return Err(format!("span {i} `{}` has no parent and is not a step", s.name));
            }
            None => {}
            Some(p) => {
                let parent = spans
                    .get(p)
                    .ok_or_else(|| format!("span {i} `{}` parent {p} missing", s.name))?;
                if parent.step != s.step {
                    return Err(format!(
                        "span {i} `{}` (step {}) has parent in step {}",
                        s.name, s.step, parent.step
                    ));
                }
                if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                    return Err(format!("span {i} `{}` escapes parent `{}`", s.name, parent.name));
                }
            }
        }
    }
    Ok(())
}

/// Chrome trace JSON (`chrome://tracing` / Perfetto): one complete (`X`)
/// event per span, `tid` = rank, with the span id, parent id and step id in
/// `args`.
pub fn chrome_trace_json(per_rank: &[Vec<Span>]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    for (rank, spans) in per_rank.iter().enumerate() {
        for (i, s) in spans.iter().enumerate() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let parent = s.parent.map_or(-1, |p| p as i64);
            write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"layer\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":0,\"tid\":{rank},\"args\":{{\"id\":{i},\"parent\":{parent},\"step\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.step
            )
            .expect("write to String");
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use a2sgd_trace::json::{self, Value};

    fn span(
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        step: usize,
    ) -> Span {
        Span { name, start_ns, end_ns, parent, step }
    }

    fn sample() -> Vec<Span> {
        vec![
            span(STEP, 0, 100, None, 0),
            span("a", 10, 40, Some(0), 0),
            span("b", 30, 60, Some(0), 0), // overlaps `a` by 10
            span("a.inner", 12, 20, Some(1), 0),
            span(STEP, 100, 150, None, 1),
            span("a", 100, 150, Some(4), 1),
        ]
    }

    #[test]
    fn self_time_is_duration_minus_covered_children() {
        let s = sample();
        assert_eq!(covered_ns(&s, 0), 50, "union of [10,40) and [30,60)");
        assert_eq!(self_ns(&s, 0), 50);
        assert_eq!(self_ns(&s, 1), 22, "grandchildren count against their own parent only");
        assert_eq!(self_ns(&s, 2), 30, "leaf: self time is the whole duration");
        assert_eq!(self_ns(&s, 4), 0, "fully covered step");
    }

    #[test]
    fn recorder_nests_and_skips_children_without_detail() {
        let origin = Instant::now();
        let mut r = Recorder::new(origin, 8);
        r.begin_step(7, true);
        r.open("x");
        r.open("x.y");
        r.close();
        r.close();
        r.end_step();
        r.begin_step(8, false);
        r.open("x");
        r.close();
        r.end_step();
        let s = r.into_spans();
        assert_eq!(s.len(), 4, "the untraced step keeps its root only");
        assert_eq!((s[1].parent, s[2].parent, s[3].parent), (Some(0), Some(1), None));
        assert_eq!(s.iter().map(|sp| sp.step).collect::<Vec<_>>(), [7, 7, 7, 8]);
        check_well_formed(&s).unwrap();
    }

    #[test]
    fn malformed_spans_are_rejected() {
        check_well_formed(&sample()).unwrap();
        let mut orphan = sample();
        orphan[1].parent = None;
        assert!(check_well_formed(&orphan).unwrap_err().contains("no parent"));
        let mut cross_step = sample();
        cross_step[5].parent = Some(0);
        assert!(check_well_formed(&cross_step).unwrap_err().contains("parent in step"));
        let mut escapes = sample();
        escapes[3].end_ns = 45;
        assert!(check_well_formed(&escapes).unwrap_err().contains("escapes"));
    }

    #[test]
    fn chrome_trace_parses_and_keeps_parent_links() {
        let text = chrome_trace_json(&[sample(), sample()]);
        let doc = json::parse(&text).expect("trace JSON parses");
        let Some(Value::Arr(events)) = doc.get("traceEvents") else { panic!("no traceEvents") };
        assert_eq!(events.len(), 12);
        for ev in events {
            assert_eq!(ev.get("ph").and_then(Value::as_str), Some("X"));
            let args = ev.get("args").expect("args");
            let id = args.get("id").and_then(Value::as_u64).expect("id");
            let parent = args.get("parent").and_then(Value::as_f64).expect("parent");
            let step = args.get("step").and_then(Value::as_u64).expect("step");
            if parent >= 0.0 {
                let want = &sample()[parent as usize];
                assert_eq!(want.step as u64, step, "event {id}: parent in the same step");
            } else {
                assert_eq!(ev.get("name").and_then(Value::as_str), Some(STEP));
            }
        }
    }
}
