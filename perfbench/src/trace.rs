//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; nothing inside the library is instrumented.
//! Every span has a name, a start, an end and a parent, and all spans of
//! one request share its id. Spans stay in memory until the run ends and
//! are then written as JSON lines.

use ssta_engine::{EngineError, MemoryBackend, StorageBackend};
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The request this span belongs to.
    pub request: u64,
    /// Index of this span in the recorder.
    pub id: usize,
    /// The span whose call caused this one.
    pub parent: Option<usize>,
    /// Layer call name, e.g. `criticality` or `store.backend_get`.
    pub name: &'static str,
    /// Offset from the recorder's epoch.
    pub start: Duration,
    /// Offset from the recorder's epoch.
    pub end: Duration,
    /// Laid out from a duration the library reported (the assembly
    /// phases) rather than timed around a call.
    pub derived: bool,
}

impl Span {
    /// `end - start`.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover. Overlapping children count once, and a child
/// reaching outside the parent counts only inside it.
pub fn self_time(span: &Span, children: &[&Span]) -> Duration {
    let mut intervals: Vec<(Duration, Duration)> = children
        .iter()
        .map(|c| (c.start.max(span.start), c.end.min(span.end)))
        .filter(|(s, e)| s < e)
        .collect();
    intervals.sort();
    let mut covered = Duration::ZERO;
    let mut reach = span.start;
    for (s, e) in intervals {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    span.duration().saturating_sub(covered)
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// The recorder's time origin (shared with [`TimedBackend`]).
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Runs `f` inside a span named `name`; `f` receives the span id to
    /// parent nested spans on.
    pub fn span<T>(
        &mut self,
        request: u64,
        parent: Option<usize>,
        name: &'static str,
        f: impl FnOnce(&mut Tracer, usize) -> T,
    ) -> T {
        let start = self.epoch.elapsed();
        let id = self.add(request, parent, name, start, start, false);
        let out = f(self, id);
        self.spans[id].end = self.epoch.elapsed();
        out
    }

    /// Adds a span measured elsewhere; returns its id.
    pub fn add(
        &mut self,
        request: u64,
        parent: Option<usize>,
        name: &'static str,
        start: Duration,
        end: Duration,
        derived: bool,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            request,
            id,
            parent,
            name,
            start,
            end,
            derived,
        });
        id
    }

    /// The span with id `id`.
    pub fn get(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    /// Self time of span `id` (see [`self_time`]).
    pub fn self_time_of(&self, id: usize) -> Duration {
        let children: Vec<&Span> = self.spans.iter().filter(|s| s.parent == Some(id)).collect();
        self_time(&self.spans[id], &children)
    }

    /// Sum of the self times of every span named `name` in `request`.
    pub fn self_total(&self, request: u64, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.request == request && s.name == name)
            .map(|s| self.self_time_of(s.id))
            .sum()
    }

    /// Sum of the durations of every span named `name` in `request`.
    pub fn total(&self, request: u64, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.request == request && s.name == name)
            .map(Span::duration)
            .sum()
    }

    /// Attaches the backend calls `backend` logged since the last drain
    /// as children of span `parent`.
    pub fn adopt(&mut self, request: u64, parent: usize, backend: &TimedBackend) {
        for (name, start, end) in backend.drain() {
            self.add(request, Some(parent), name, start, end, false);
        }
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"request\":{},\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{:.3},\"derived\":{}}}",
                s.request,
                s.id,
                parent,
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                self.self_time_of(s.id).as_secs_f64() * 1e6,
                s.derived
            )?;
        }
        out.flush()
    }
}

type CallLog = Arc<Mutex<Vec<(&'static str, Duration, Duration)>>>;

/// A storage backend that times every `get` and `put` it forwards to a
/// shared [`MemoryBackend`], for the traced run's store spans.
#[derive(Debug, Clone)]
pub struct TimedBackend {
    inner: Arc<MemoryBackend>,
    epoch: Instant,
    log: CallLog,
}

impl TimedBackend {
    /// Wraps `inner`, timing against `epoch`.
    pub fn new(inner: Arc<MemoryBackend>, epoch: Instant) -> Self {
        TimedBackend {
            inner,
            epoch,
            log: CallLog::default(),
        }
    }

    fn timed<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.epoch.elapsed();
        let out = f();
        let end = self.epoch.elapsed();
        self.log
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((name, start, end));
        out
    }

    fn drain(&self) -> Vec<(&'static str, Duration, Duration)> {
        std::mem::take(&mut *self.log.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

impl StorageBackend for TimedBackend {
    fn get(&self, key: &str) -> Result<Option<Vec<u8>>, EngineError> {
        self.timed("store.backend_get", || self.inner.get(key))
    }

    fn put(&self, key: &str, bytes: &[u8]) -> Result<(), EngineError> {
        self.timed("store.backend_put", || self.inner.put(key, bytes))
    }

    fn remove(&self, key: &str) -> Result<bool, EngineError> {
        self.inner.remove(key)
    }

    fn list_keys(&self) -> Result<Vec<String>, EngineError> {
        self.inner.list_keys()
    }

    fn clear(&self) -> Result<(), EngineError> {
        self.inner.clear()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            request: 0,
            id,
            parent,
            name: "t",
            start: Duration::from_millis(start),
            end: Duration::from_millis(end),
            derived: false,
        }
    }

    #[test]
    fn self_time_is_span_minus_child_coverage() {
        let parent = span(0, None, 0, 100);
        let a = span(1, Some(0), 10, 30);
        let b = span(2, Some(0), 50, 60);
        assert_eq!(self_time(&parent, &[&a, &b]), Duration::from_millis(70));
        assert_eq!(self_time(&parent, &[]), Duration::from_millis(100));
    }

    #[test]
    fn overlapping_children_count_once_and_clip_to_parent() {
        let parent = span(0, None, 0, 100);
        let a = span(1, Some(0), 10, 40);
        let b = span(2, Some(0), 30, 50); // overlaps a by 10 ms
        let c = span(3, Some(0), 90, 130); // reaches past the parent
        assert_eq!(
            self_time(&parent, &[&c, &a, &b]),
            Duration::from_millis(100 - 40 - 10)
        );
    }

    #[test]
    fn tracer_nests_and_sums_self_times() {
        let mut t = Tracer::new();
        t.span(7, None, "outer", |t, outer| {
            let at = t.get(outer).start;
            t.add(7, Some(outer), "inner", at, at, false);
        });
        let outer = t.get(0).clone();
        assert_eq!(outer.parent, None);
        assert_eq!(t.get(1).parent, Some(0));
        assert_eq!(t.self_total(7, "outer"), outer.duration());
        assert_eq!(t.total(8, "outer"), Duration::ZERO);
    }
}
