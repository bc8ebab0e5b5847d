//! Host-time spans recorded by the benchmark around its calls into each
//! layer's public functions, with per-layer self time and Chrome
//! `trace_event` export.
//!
//! The program under test is not instrumented: every span here wraps a
//! call made from this crate. A job owns its own [`Tracer`] (spans are
//! kept in memory, never shared between threads) and hands the closed
//! spans back with its result; the run loop folds them into a
//! [`TraceLog`].

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Small stable id of the calling thread (the Chrome trace `tid`).
pub fn thread_id() -> u32 {
    THREAD.with(|t| *t)
}

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `interface.run`.
    pub name: &'static str,
    /// Job the span belongs to; every span of one job shares it.
    pub job: u64,
    /// Unique span id.
    pub id: u64,
    /// The enclosing span (possibly on another thread).
    pub parent: Option<u64>,
    /// Recording thread.
    pub tid: u32,
    /// Start, ns since the run's epoch.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
    /// Duration minus the time covered by same-thread child spans, ns.
    pub self_ns: u64,
}

/// Span recorder for one job. A disabled tracer runs the wrapped calls
/// and records nothing.
#[derive(Debug)]
pub struct Tracer {
    epoch: Option<Instant>,
    job: u64,
    /// Span ids are `id_base + index`.
    id_base: u64,
    parent: Option<u64>,
    spans: Vec<Span>,
    /// Indices of the open spans, innermost last.
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            epoch: None,
            job: 0,
            id_base: 0,
            parent: None,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording tracer for `job`.
    pub fn on(epoch: Instant, job: u64) -> Tracer {
        Tracer { epoch: Some(epoch), id_base: job << 24, job, ..Tracer::off() }
    }

    /// A tracer for part `lane` (`< 255`) of the same job run on another
    /// thread, recording when this one does, with the innermost open
    /// span as parent.
    pub fn fork(&self, lane: u64) -> Tracer {
        match self.epoch {
            Some(epoch) => Tracer {
                id_base: (self.job << 24) | ((lane + 1) << 16),
                parent: self.current(),
                ..Tracer::on(epoch, self.job)
            },
            None => Tracer::off(),
        }
    }

    /// Id of the innermost open span.
    fn current(&self) -> Option<u64> {
        self.open.last().map(|&i| self.spans[i].id).or(self.parent)
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let Some(epoch) = self.epoch else { return f(self) };
        let index = self.spans.len();
        let id = self.id_base + index as u64;
        let parent = self.current();
        let start_ns = epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            job: self.job,
            id,
            parent,
            tid: thread_id(),
            start_ns,
            dur_ns: 0,
            self_ns: 0,
        });
        self.open.push(index);
        let result = f(self);
        let dur_ns = (epoch.elapsed().as_nanos() as u64).saturating_sub(start_ns);
        self.open.pop();
        // While open, `self_ns` accumulated the children's durations.
        let span = &mut self.spans[index];
        span.dur_ns = dur_ns;
        span.self_ns = dur_ns.saturating_sub(span.self_ns);
        if let Some(&outer) = self.open.last() {
            self.spans[outer].self_ns += dur_ns;
        }
        result
    }

    /// The closed spans, in opening order.
    pub fn into_spans(self) -> Vec<Span> {
        debug_assert!(self.open.is_empty(), "spans still open");
        self.spans
    }
}

/// Spans of a whole run: per-name self-time totals over every span,
/// and the first `keep` spans verbatim for the Chrome trace.
#[derive(Debug, Default)]
pub struct TraceLog {
    self_ns: BTreeMap<&'static str, u64>,
    kept: Vec<Span>,
    keep: usize,
    dropped: u64,
}

impl TraceLog {
    /// An empty log keeping at most `keep` spans for export.
    pub fn new(keep: usize) -> TraceLog {
        TraceLog { keep, ..TraceLog::default() }
    }

    /// Folds in closed spans.
    pub fn absorb(&mut self, spans: Vec<Span>) {
        for span in spans {
            *self.self_ns.entry(span.name).or_insert(0) += span.self_ns;
            if self.kept.len() < self.keep {
                self.kept.push(span);
            } else {
                self.dropped += 1;
            }
        }
    }

    /// Total self time of spans called `name`, seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        self.self_ns.get(name).map_or(0.0, |&ns| ns as f64 * 1e-9)
    }

    /// Chrome `trace_event` JSON of the kept spans (complete `X`
    /// events, µs timestamps, job/id/parent in `args`).
    pub fn to_chrome_trace(&self, process: &str) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{{\"name\":\"{process}\"}}}}"
        );
        for s in &self.kept {
            let parent = s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"cat\":\"layer\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"job\":{},\"id\":{},\"parent\":{},\
                 \"self_us\":{:.3}}}}}",
                s.name,
                s.tid,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.job,
                s.id,
                parent,
                s.self_ns as f64 / 1e3,
            );
        }
        let _ = write!(out, "\n],\"otherData\":{{\"spans_not_exported\":{}}}}}\n", self.dropped);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_ids_share_the_job() {
        let mut t = Tracer::on(Instant::now(), 7);
        let forked = t.span("outer", |t| {
            t.span("inner", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
            let mut f = t.fork(0);
            f.span("remote", |_| ());
            f.into_spans()
        });
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        let (outer, inner) = (&spans[0], &spans[1]);
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(forked[0].parent, Some(outer.id));
        assert_ne!(forked[0].id, inner.id);
        assert!(spans.iter().chain(&forked).all(|s| s.job == 7));
        assert_eq!(outer.self_ns, outer.dur_ns - inner.dur_ns);
        assert!(inner.self_ns >= 2_000_000);

        let mut log = TraceLog::new(1);
        log.absorb(spans);
        assert!(log.self_s("inner") >= 2e-3);
        let chrome = log.to_chrome_trace("test");
        assert!(chrome.contains("\"name\":\"outer\"") && !chrome.contains("\"name\":\"inner\""));
        assert!(chrome.contains("\"spans_not_exported\":1"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("x", |_| 5), 5);
        assert!(t.fork(1).into_spans().is_empty());
        assert!(t.into_spans().is_empty());
    }
}
