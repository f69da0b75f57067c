//! Spans the benchmark records around each public call it makes into the
//! system. Spans stay in memory while the workload runs and are written out
//! once at the end; a layer's self time is derived from them afterwards.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Span id; 0 means "no parent".
pub type SpanId = u64;

/// One recorded span: a named interval on the tracer's clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub name: String,
    /// The request (or forward, or session) the span belongs to.
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder. Disabled, `record` does nothing and ids are
/// never allocated, so an untraced run pays one branch per call site.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Reserves an id for a span whose children are recorded before it
    /// ends; 0 when tracing is off.
    pub fn reserve(&self) -> SpanId {
        if self.enabled {
            // Relaxed: the id publishes no other data.
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span under a reserved id (0 allocates a fresh
    /// one) and returns its id.
    pub fn record(
        &self,
        id: SpanId,
        name: impl Into<String>,
        parent: SpanId,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let id = if id == 0 { self.reserve() } else { id };
        let span = Span {
            id,
            parent,
            name: name.into(),
            request,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.lock().expect("span log poisoned").push(span);
        id
    }

    /// Every span recorded so far, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span log poisoned").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Writes the spans as tab-separated lines (`id parent name request
    /// start_ns end_ns self_ns`) to `path`, creating its directory.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let selfs = self_times_ns(&spans);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\trequest\tstart_ns\tend_ns\tself_ns")?;
        for (s, self_ns) in spans.iter().zip(selfs) {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.name, s.request, s.start_ns, s.end_ns, self_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span (same order as `spans`): its duration minus the
/// part of its interval that its direct children cover. Overlapping
/// children are counted once, and child time outside the parent is ignored.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let index: std::collections::HashMap<SpanId, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            let parent = &spans[p];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut open: Option<(u64, u64)> = None;
            for &(start, end) in kids.iter() {
                match open {
                    Some((os, oe)) if start <= oe => open = Some((os, oe.max(end))),
                    Some((os, oe)) => {
                        covered += oe - os;
                        open = Some((start, end));
                    }
                    None => open = Some((start, end)),
                }
            }
            if let Some((os, oe)) = open {
                covered += oe - os;
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            request: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_once() {
        let spans = vec![
            span(1, 0, 0, 100),
            // Two overlapping children cover 10..40 (30 ns) ...
            span(2, 1, 10, 30),
            span(3, 1, 20, 40),
            // ... a disjoint one covers 50..60, ...
            span(4, 1, 50, 60),
            // ... and a grandchild is charged to its own parent, not to 1.
            span(5, 4, 52, 58),
        ];
        assert_eq!(self_times_ns(&spans), vec![60, 20, 20, 4, 6]);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans = vec![
            span(1, 0, 100, 200),
            span(2, 1, 50, 150),
            span(3, 1, 190, 260),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 100, 70]);
    }

    #[test]
    fn orphans_and_leaves_keep_their_whole_duration() {
        let spans = vec![span(7, 99, 0, 5), span(8, 0, 3, 3)];
        assert_eq!(self_times_ns(&spans), vec![5, 0]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(t.reserve(), 0);
        assert_eq!(t.record(0, "x", 0, 1, now, now), 0);
        assert!(t.spans().is_empty());
        let t = Tracer::new(true);
        let parent = t.reserve();
        let child = t.record(0, "child", parent, 1, now, now);
        t.record(parent, "parent", 0, 1, now, now);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].id, parent);
        assert_eq!(spans[1].parent, parent);
        assert_ne!(child, parent);
    }
}
