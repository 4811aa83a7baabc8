//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only around calls the benchmark itself makes into the
//! repo's layers; they are kept in memory and written to `out/trace.json`
//! when the run ends. Span times are wall nanoseconds since the recorder
//! was created: a vDSO read (~25 ns) is cheap enough to wrap every engine
//! turn, which the thread-CPU clock (a real syscall) is not.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of the innermost open span.
    /// Returns `f`'s result and the span's duration.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        let parent = self.open.borrow().last().copied();
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let r = f();
        self.open.borrow_mut().pop();
        let end = self.now_ns();
        let mut spans = self.spans.borrow_mut();
        spans[id].end_ns = end;
        (r, end - spans[id].start_ns)
    }

    /// Record an already-timed span as a child of the innermost open span.
    pub fn leaf(&self, name: &'static str, start_ns: u64, end_ns: u64) {
        let parent = self.open.borrow().last().copied();
        self.spans.borrow_mut().push(Span {
            name,
            start_ns,
            end_ns,
            parent,
        });
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// The trace as a JSON document; `counts` are the totals recorded at
    /// the same boundaries (turns per core, events per class).
    pub fn to_json(&self, workload: &str, counts: &[(String, f64)]) -> String {
        let mut out =
            format!("{{\"workload\": \"{workload}\", \"clock\": \"wall_ns\", \"counts\": {{");
        for (i, (k, v)) in counts.iter().enumerate() {
            let _ = write!(out, "{}\"{k}\": {v}", if i == 0 { "" } else { ", " });
        }
        out.push_str("}, \"spans\": [\n");
        let spans = self.spans.borrow();
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                if i + 1 == spans.len() { "" } else { "," }
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_the_innermost_open_span() {
        let t = Tracer::new();
        t.span("outer", || {
            t.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.leaf("turn", 10, 20);
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert_eq!((spans[2].name, spans[2].parent), ("turn", Some(0)));
        let outer = spans[0].end_ns - spans[0].start_ns;
        let inner = spans[1].end_ns - spans[1].start_ns;
        assert!(inner >= 2_000_000 && outer >= inner);
    }

    #[test]
    fn json_lists_every_span_with_its_parent() {
        let t = Tracer::new();
        t.span("build", || t.leaf("machine_new", 1, 2));
        let json = t.to_json("ip_scalar", &[("turns".into(), 3.0)]);
        assert!(json.contains("\"workload\": \"ip_scalar\""));
        assert!(json.contains("\"turns\": 3"));
        assert!(json
            .contains("\"name\": \"machine_new\", \"start_ns\": 1, \"end_ns\": 2, \"parent\": 0"));
        assert_eq!(json.matches("\"id\":").count(), 2);
    }
}
