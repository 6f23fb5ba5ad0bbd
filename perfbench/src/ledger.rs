//! The benchmark's own spans and the per-layer ledger built from them.
//!
//! In a traced run every board or request gets one root span and one
//! child span per layer call, all carrying the board or request index
//! as their id. Spans stay in memory; [`write_spans`] puts them on disk
//! when the run ends. A span's self time is its duration minus the part
//! of it that its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Board or request index shared by a root and its children.
    pub id: u64,
    /// Layer name (the root carries the workload's root name).
    pub name: &'static str,
    /// Start, nanoseconds since the process's span epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the process's span epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration, nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Span recorder; a disabled recorder only runs the timed closures.
#[derive(Debug, Default)]
pub struct Recorder {
    on: bool,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder that keeps spans only when `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            spans: Vec::new(),
        }
    }

    /// Whether spans are kept.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` under a span `name` with id `id`.
    pub fn time<T>(&mut self, id: u64, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start_ns = now_ns();
        let out = f();
        self.push(id, name, start_ns, now_ns());
        out
    }

    /// Records an already-measured span.
    pub fn push(&mut self, id: u64, name: &'static str, start_ns: u64, end_ns: u64) {
        if self.on {
            self.spans.push(Span {
                id,
                name,
                start_ns,
                end_ns,
            });
        }
    }

    /// Moves every kept span out.
    pub fn take(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// Per-name totals over a span set: `(count, total_ns, self_ns)`,
/// where self time subtracts the union of the same-id spans nested
/// inside each span's interval.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut by_id: BTreeMap<u64, Vec<Span>> = BTreeMap::new();
    for s in spans {
        by_id.entry(s.id).or_default().push(*s);
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for group in by_id.values_mut() {
        // Longest first among equal starts, so parents precede children.
        group.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.end_ns)));
        for (i, s) in group.iter().enumerate() {
            let inner: Vec<(u64, u64)> = group
                .iter()
                .enumerate()
                .filter(|&(j, c)| j != i && c.start_ns >= s.start_ns && c.end_ns <= s.end_ns)
                .filter(|&(j, c)| j > i || c.dur_ns() < s.dur_ns())
                .map(|(_, c)| (c.start_ns, c.end_ns))
                .collect();
            let row = out.entry(s.name).or_default();
            row.0 += 1;
            row.1 += s.dur_ns();
            row.2 += s.dur_ns() - covered(&inner);
        }
    }
    out
}

/// Length of the union of `intervals` (each `(start, end)`; sorted by
/// start on entry).
fn covered(intervals: &[(u64, u64)]) -> u64 {
    let mut total = 0;
    let mut reach = 0u64;
    for &(start, end) in intervals {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// One printed ledger row.
pub struct Row {
    /// Layer metric name.
    pub name: String,
    /// Attributed time, microseconds per unit of work.
    pub us: f64,
}

/// Renders a ledger whose rows share `whole_us` (per unit of work),
/// appending the explicit `unattributed` remainder; returns the table
/// and the unattributed share of the whole.
pub fn render(title: &str, whole_us: f64, rows: &[Row]) -> (String, f64) {
    let attributed: f64 = rows.iter().map(|r| r.us).sum();
    let unattributed = whole_us - attributed;
    let mut out = format!("ledger {title}: {whole_us:.3} us per unit\n");
    for row in rows.iter().chain(std::iter::once(&Row {
        name: "unattributed".to_string(),
        us: unattributed,
    })) {
        let share = row.us / whole_us.max(f64::MIN_POSITIVE);
        writeln!(
            out,
            "  {:<34} {:>12.3} us  {:>7.2}%",
            row.name,
            row.us,
            100.0 * share
        )
        .expect("write to String");
    }
    (out, unattributed / whole_us.max(f64::MIN_POSITIVE))
}

/// Writes spans as JSON lines (one object per span) to `path`,
/// creating its directory.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut text = String::with_capacity(spans.len() * 64);
    for s in spans {
        writeln!(
            text,
            "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
            s.id,
            s.name,
            s.start_ns,
            s.dur_ns()
        )
        .expect("write to String");
    }
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, "root", 0, 100),
            span(1, "a", 10, 40),
            span(1, "b", 30, 60), // overlaps a: union 10..60
            span(2, "root", 0, 50),
            span(2, "a", 0, 50),
        ];
        let t = totals(&spans);
        assert_eq!(t["root"], (2, 150, 50));
        assert_eq!(t["a"], (2, 80, 80));
        assert_eq!(t["b"], (1, 30, 30));
    }

    #[test]
    fn rows_and_unattributed_add_up_to_the_whole() {
        let rows = [
            Row {
                name: "x".into(),
                us: 6.0,
            },
            Row {
                name: "y".into(),
                us: 3.0,
            },
        ];
        let (text, frac) = render("t", 10.0, &rows);
        assert!((frac - 0.1).abs() < 1e-12);
        assert!(text.contains("unattributed"));
    }
}
