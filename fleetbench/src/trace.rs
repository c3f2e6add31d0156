//! In-memory span recorder for the traced run.
//!
//! A span has a name, a start and an end (ns since the tracer was created),
//! the span that was open when it began (its parent), and the epoch it
//! belongs to: every span recorded while epoch `k` runs carries `k` as its
//! identifier. Spans stay in memory and are written out once, when the run
//! ends. The benchmark is single-threaded on its own side, so child spans
//! never overlap and a span's self time is its duration minus its
//! children's.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

struct Span {
    name: &'static str,
    epoch: Option<u64>,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

struct Inner {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    epoch: Option<u64>,
}

/// A cheap, clonable handle on a span recorder; [`Tracer::off`] records
/// nothing and costs one branch per call.
#[derive(Clone)]
pub struct Tracer(Option<Arc<Mutex<Inner>>>);

/// Closes its span when dropped.
pub struct SpanGuard(Tracer);

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.0.exit();
    }
}

/// Aggregate of every span sharing one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameStat {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed span durations, ns.
    pub total_ns: u64,
    /// Summed durations minus the time covered by child spans, ns.
    pub self_ns: u64,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer(None)
    }

    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer(Some(Arc::new(Mutex::new(Inner {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            epoch: None,
        }))))
    }

    fn with<R>(&self, f: impl FnOnce(&mut Inner) -> R) -> Option<R> {
        self.0
            .as_ref()
            .map(|m| f(&mut m.lock().expect("tracer lock is never held across a panic")))
    }

    /// Tags every span opened from now on with epoch `epoch` (`None`
    /// outside epochs: set-up and finish).
    pub fn set_epoch(&self, epoch: Option<u64>) {
        self.with(|t| t.epoch = epoch);
    }

    /// Opens a span under the innermost open one.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        self.with(|t| {
            let start_ns = t.origin.elapsed().as_nanos() as u64;
            let id = t.spans.len();
            t.spans.push(Span {
                name,
                epoch: t.epoch,
                parent: t.open.last().copied(),
                start_ns,
                end_ns: start_ns,
            });
            t.open.push(id);
        });
        SpanGuard(self.clone())
    }

    fn exit(&self) {
        self.with(|t| {
            let now = t.origin.elapsed().as_nanos() as u64;
            if let Some(id) = t.open.pop() {
                t.spans[id].end_ns = now;
            }
        });
    }

    /// Per-name count, total and self time over every closed span.
    pub fn stats(&self) -> BTreeMap<&'static str, NameStat> {
        self.with(|t| {
            let mut child_ns = vec![0u64; t.spans.len()];
            for s in &t.spans {
                if let Some(p) = s.parent {
                    child_ns[p] += s.end_ns - s.start_ns;
                }
            }
            let mut out: BTreeMap<&'static str, NameStat> = BTreeMap::new();
            for (s, child) in t.spans.iter().zip(child_ns) {
                let dur = s.end_ns - s.start_ns;
                let e = out.entry(s.name).or_default();
                e.count += 1;
                e.total_ns += dur;
                e.self_ns += dur.saturating_sub(child);
            }
            out
        })
        .unwrap_or_default()
    }

    /// Appends the spans as a JSON array of
    /// `[name, epoch or -1, parent or -1, start_ns, end_ns]` rows.
    pub fn write_spans_json(&self, out: &mut String) {
        self.with(|t| {
            out.push('[');
            for (i, s) in t.spans.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                let epoch = s.epoch.map_or(-1, |e| e as i64);
                let parent = s.parent.map_or(-1, |p| p as i64);
                let _ = write!(
                    out,
                    "[\"{}\",{epoch},{parent},{},{}]",
                    s.name, s.start_ns, s.end_ns
                );
            }
            out.push(']');
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::on();
        {
            let _outer = t.span("outer");
            let _inner = t.span("inner");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let stats = t.stats();
        let outer = stats["outer"];
        let inner = stats["inner"];
        assert_eq!(outer.count, 1);
        assert!(inner.total_ns >= 2_000_000);
        assert!(outer.total_ns >= inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
    }

    #[test]
    fn off_records_nothing() {
        let t = Tracer::off();
        drop(t.span("x"));
        assert!(t.stats().is_empty());
    }
}
