//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps its own calls into each layer's public functions
//! in spans (name, start, end, parent); spans of one solve or job share
//! a group id. Spans stay in memory and are written out when the run
//! ends. A disabled tracer records nothing and costs one branch.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub group: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals: count, total and self seconds.
#[derive(Clone, Debug)]
pub struct SelfTime {
    pub name: String,
    pub count: usize,
    pub total_s: f64,
    pub self_s: f64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
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

    /// A fresh id for a group (one solve, one job) or a span.
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Run `f` inside a span; `f` receives the span's id so it can parent
    /// child spans (0 when tracing is off).
    pub fn span<R>(
        &self,
        name: &str,
        parent: Option<u64>,
        group: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = self.next_id();
        let start = Instant::now();
        let out = f(id);
        self.push(Span {
            id,
            parent,
            group,
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(Instant::now()),
        });
        out
    }

    /// Record a span whose interval was measured elsewhere (a job phase
    /// rebuilt from its report). Returns its id (0 when off).
    pub fn record(
        &self,
        name: &str,
        parent: Option<u64>,
        group: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.next_id();
        self.push(Span {
            id,
            parent,
            group,
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        id
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("tracer poisoned").push(span);
    }

    /// Time since the tracer was created (the run's start).
    pub fn elapsed(&self) -> std::time::Duration {
        self.epoch.elapsed()
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("tracer poisoned").len()
    }

    /// Self time per span name: each span's duration minus the part of
    /// its interval covered by its children (overlapping children, such
    /// as concurrent ranks, are counted once).
    pub fn self_times(&self) -> Vec<SelfTime> {
        let spans = self.spans.lock().expect("tracer poisoned");
        let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> = Default::default();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut by_name: std::collections::BTreeMap<&str, SelfTime> = Default::default();
        for s in spans.iter() {
            let covered = children
                .get(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            let e = by_name.entry(&s.name).or_insert_with(|| SelfTime {
                name: s.name.clone(),
                count: 0,
                total_s: 0.0,
                self_s: 0.0,
            });
            e.count += 1;
            e.total_s += s.duration_ns() as f64 * 1e-9;
            e.self_s += s.duration_ns().saturating_sub(covered) as f64 * 1e-9;
        }
        by_name.into_values().collect()
    }

    /// Write every span plus the self-time summary as JSON.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let summary = self.self_times();
        let spans = self.spans.lock().expect("tracer poisoned");
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "{{\"self_times\": [")?;
        for (i, s) in summary.iter().enumerate() {
            let sep = if i + 1 < summary.len() { "," } else { "" };
            writeln!(
                f,
                "  {{\"name\": \"{}\", \"count\": {}, \"total_s\": {:.9}, \"self_s\": {:.9}}}{sep}",
                s.name, s.count, s.total_s, s.self_s
            )?;
        }
        writeln!(f, "], \"spans\": [")?;
        for (i, s) in spans.iter().enumerate() {
            let sep = if i + 1 < spans.len() { "," } else { "" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                "  {{\"id\": {}, \"parent\": {parent}, \"group\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}{sep}",
                s.id, s.group, s.name, s.start_ns, s.end_ns
            )?;
        }
        writeln!(f, "]}}")?;
        f.flush()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut iv: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_counts_overlap_once() {
        assert_eq!(covered_ns(&[(0, 10), (5, 15), (20, 30)], 0, 100), 25);
        assert_eq!(covered_ns(&[(0, 10)], 5, 8), 3);
        assert_eq!(covered_ns(&[], 0, 8), 0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        let e = t.epoch;
        let ms = std::time::Duration::from_millis;
        let root = t.record("root", None, 1, e, e + ms(10));
        t.record("child", Some(root), 1, e + ms(2), e + ms(6));
        t.record("child", Some(root), 1, e + ms(4), e + ms(8));
        let st = t.self_times();
        let root = st.iter().find(|s| s.name == "root").unwrap();
        assert!((root.self_s - 0.004).abs() < 1e-9);
        let child = st.iter().find(|s| s.name == "child").unwrap();
        assert_eq!(child.count, 2);
        assert!((child.self_s - 0.008).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", None, 0, |id| id), 0);
        assert_eq!(t.len(), 0);
    }
}
