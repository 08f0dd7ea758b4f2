//! Benchmark-side spans for the traced run. The replay calls each layer's
//! public function inside a span; nothing inside the program is
//! instrumented. Spans stay in memory and are written out once, at exit,
//! as a Chrome `trace_event` file.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// Request (query) the span belongs to; spans of one request share it.
    pub request: u64,
    pub start: Duration,
    pub end: Duration,
    /// True for a child whose interval was measured by the program itself
    /// (a call that cannot be split from outside reports its parts this
    /// way; the benchmark only places them inside the parent).
    pub derived: bool,
}

impl Span {
    pub fn dur(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Single-threaded span recorder: the replay runs every layer call on the
/// calling thread, so nesting is a stack.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Run `f` inside a span named after the layer call it wraps.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            request,
            start: self.t0.elapsed(),
            end: Duration::ZERO,
            derived: false,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end = self.t0.elapsed();
        out
    }

    /// Record a part of the innermost open span that the program measured
    /// itself (e.g. the gapped and traceback shares of `finish_subject`).
    /// Parts are laid end to end from the parent's start.
    pub fn derived_child(
        &mut self,
        name: &'static str,
        request: u64,
        offset: Duration,
        dur: Duration,
    ) {
        let Some(&parent) = self.stack.last() else {
            return;
        };
        let start = self.spans[parent].start + offset;
        self.spans.push(Span {
            name,
            parent: Some(parent),
            request,
            start,
            end: start + dur,
            derived: true,
        });
    }

    /// Record a span whose interval was observed elsewhere, such as a
    /// served request's lifecycle seen from outside the server. Returns
    /// its id, for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        (start, end): (Instant, Instant),
        derived: bool,
    ) -> usize {
        self.spans.push(Span {
            name,
            parent,
            request,
            start: start.saturating_duration_since(self.t0),
            end: end.saturating_duration_since(self.t0),
            derived,
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span (duration minus time covered by its children).
    pub fn self_times(&self) -> Vec<Duration> {
        let mut child: Vec<Duration> = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur().saturating_sub(c))
            .collect()
    }

    /// Total and self milliseconds per span name.
    pub fn by_name(&self) -> BTreeMap<&'static str, (f64, f64)> {
        let mut out: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
        for (s, st) in self.spans.iter().zip(self.self_times()) {
            let e = out.entry(s.name).or_default();
            e.0 += s.dur().as_secs_f64() * 1e3;
            e.1 += st.as_secs_f64() * 1e3;
        }
        out
    }

    /// Chrome `trace_event` JSON of every span (complete events, µs).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"request\":{},\"derived\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                if s.derived { 2 } else { 1 },
                s.start.as_secs_f64() * 1e6,
                s.dur().as_secs_f64() * 1e6,
                i,
                parent,
                s.request,
                s.derived,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.span("root", 0, |t| {
            t.span("child", 0, |_| std::thread::sleep(Duration::from_millis(2)));
            t.span("call", 1, |t| {
                std::thread::sleep(Duration::from_millis(3));
                t.derived_child("part", 1, Duration::ZERO, Duration::from_millis(1));
            });
        });
        let st = t.self_times();
        let s = t.spans();
        assert_eq!(st[0] + s[1].dur() + s[2].dur(), s[0].dur());
        assert_eq!(st[2] + Duration::from_millis(1), s[2].dur());
        assert_eq!((s[1].parent, s[3].parent), (Some(0), Some(2)));
        assert!(t.by_name().contains_key("part"));
        let now = Instant::now();
        let outer = t.record(
            "outer",
            None,
            2,
            (now, now + Duration::from_millis(4)),
            false,
        );
        let inner = (now, now + Duration::from_millis(3));
        t.record("inner", Some(outer), 2, inner, true);
        assert_eq!(t.self_times()[outer], Duration::from_millis(1));
        assert!(t.to_chrome_json().contains("\"derived\":true"));
    }
}
