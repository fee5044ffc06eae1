//! In-memory span recording for the traced run.
//!
//! Every span is `(name, start, end, parent, op id)`, timed on the wall
//! clock from one run-wide epoch. Each worker appends to its own
//! [`SpanLog`] with no synchronization; the logs are merged once the
//! broadcast returns and written out when the benchmark ends. A span's
//! self time is its duration minus the durations of its direct children
//! (children on one worker never overlap, since a worker runs one call at
//! a time).

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::stats;

/// Marks a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary, e.g. `h2scope.probe.flow_control`.
    pub name: &'static str,
    /// The operation (site, cell or query index) the span belongs to.
    pub op: u64,
    /// Nanoseconds since the run epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run epoch.
    pub end_ns: u64,
    /// Index of the parent span in the same log, or [`NO_PARENT`].
    pub parent: u32,
    /// Worker that recorded the span.
    pub worker: u16,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The run-wide epoch spans are timed from, and whether they are kept.
/// An untraced run's reference pass goes through the same decomposition
/// without keeping spans, so span memory never reaches its peak RSS.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    epoch: Instant,
    recording: bool,
}

impl Clock {
    /// A clock from `epoch`; `recording` says whether spans are kept.
    pub fn new(epoch: Instant, recording: bool) -> Clock {
        Clock { epoch, recording }
    }
}

/// One worker's spans.
#[derive(Debug)]
pub struct SpanLog {
    clock: Clock,
    worker: u16,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log on `clock`.
    pub fn new(clock: Clock, worker: usize) -> SpanLog {
        SpanLog {
            clock,
            worker: u16::try_from(worker).unwrap_or(u16::MAX),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.clock.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span and returns its id for [`SpanLog::close`] (an id that
    /// closes nothing when the clock is not recording).
    pub fn open(&mut self, name: &'static str, op: u64, parent: u32) -> u32 {
        if !self.clock.recording {
            return NO_PARENT;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            op,
            start_ns,
            end_ns: start_ns,
            parent,
            worker: self.worker,
        });
        u32::try_from(self.spans.len() - 1).expect("fewer than 2^32 spans per worker")
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: u32) {
        let end = self.now();
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = end;
        }
    }

    /// Runs `f` inside a span.
    pub fn timed<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, op, parent);
        let out = f();
        self.close(id);
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-name aggregate over a set of spans.
#[derive(Debug, Clone, Default)]
pub struct SpanStats {
    /// Durations in nanoseconds, in recording order.
    pub durations: Vec<f64>,
    /// Summed self time in nanoseconds.
    pub self_ns: f64,
}

impl SpanStats {
    /// Number of spans.
    pub fn count(&self) -> usize {
        self.durations.len()
    }

    /// Mean duration in microseconds (0 when absent).
    pub fn mean_us(&self) -> f64 {
        stats::mean(&self.durations) / 1_000.0
    }

    /// Percentile `p` of the duration, in microseconds.
    pub fn pct_us(&self, p: f64) -> f64 {
        stats::percentile(&self.durations, p) / 1_000.0
    }
}

/// Every span of a traced run, merged across workers and passes.
#[derive(Debug)]
pub struct Trace {
    clock: Clock,
    logs: Vec<Vec<Span>>,
}

impl Trace {
    /// An empty trace whose logs run on `clock`.
    pub fn new(clock: Clock) -> Trace {
        Trace {
            clock,
            logs: Vec::new(),
        }
    }

    /// The clock worker logs are created on.
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// Adds one worker's log.
    pub fn absorb(&mut self, log: SpanLog) {
        self.logs.push(log.into_spans());
    }

    /// Total number of spans.
    pub fn len(&self) -> usize {
        self.logs.iter().map(Vec::len).sum()
    }

    /// Aggregates by span name.
    pub fn by_name(&self) -> BTreeMap<&'static str, SpanStats> {
        let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        for log in &self.logs {
            let mut child_ns = vec![0u64; log.len()];
            for span in log {
                if let Some(slot) = child_ns.get_mut(span.parent as usize) {
                    *slot += span.dur_ns();
                }
            }
            for (span, children) in log.iter().zip(child_ns) {
                let entry = out.entry(span.name).or_default();
                entry.durations.push(span.dur_ns() as f64);
                entry.self_ns += span.dur_ns().saturating_sub(children) as f64;
            }
        }
        out
    }

    /// Writes every span as tab-separated `id parent worker op name
    /// start_ns end_ns` lines (ids are global across logs).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tworker\top\tname\tstart_ns\tend_ns")?;
        let mut base = 0u64;
        for log in &self.logs {
            for (i, span) in log.iter().enumerate() {
                let parent = if span.parent == NO_PARENT {
                    "-".to_string()
                } else {
                    (base + u64::from(span.parent)).to_string()
                };
                writeln!(
                    out,
                    "{}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                    base + i as u64,
                    span.worker,
                    span.op,
                    span.name,
                    span.start_ns,
                    span.end_ns
                )?;
            }
            base += log.len() as u64;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let clock = Clock::new(Instant::now(), true);
        let mut log = SpanLog::new(clock, 0);
        let root = log.open("root", 7, NO_PARENT);
        log.timed("child", 7, root, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        log.close(root);
        let mut trace = Trace::new(clock);
        trace.absorb(log);
        let by = trace.by_name();
        let root = &by["root"];
        let child = &by["child"];
        assert_eq!(root.count(), 1);
        let (root_ns, child_ns) = (root.durations[0], child.durations[0]);
        assert!(child_ns >= 2e6);
        assert!(root.self_ns <= root_ns - child_ns + 1.0);
    }

    #[test]
    fn a_clock_that_is_not_recording_keeps_nothing() {
        let clock = Clock::new(Instant::now(), false);
        let mut log = SpanLog::new(clock, 0);
        let root = log.open("root", 1, NO_PARENT);
        assert_eq!(log.timed("child", 1, root, || 5), 5);
        log.close(root);
        let mut trace = Trace::new(clock);
        trace.absorb(log);
        assert_eq!(trace.len(), 0);
    }
}
