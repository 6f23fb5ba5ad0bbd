//! Telemetry drains: where spans, warnings, and metric snapshots go.
//!
//! Three sinks cover the workspace's needs: [`JsonLinesSink`] for
//! machine-readable traces, [`SummarySink`] for a human block on
//! stderr, and [`MemorySink`] for tests and in-process consumers (the
//! bench harness reads per-stage histograms out of one). "Disabled" is
//! not a sink — it is the absence of one, which short-circuits every
//! instrumentation call at a single atomic load.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::sync::Mutex;

use crate::json::Value;
use crate::metrics::{bucket_upper_bound, Snapshot};
use crate::SpanRecord;

/// A telemetry drain. Implementations must be cheap and non-blocking
/// enough to sit on enrollment hot paths, must never write to stdout,
/// and must tolerate concurrent calls from worker threads.
pub trait Sink: Send + Sync {
    /// Called when a span closes.
    fn on_span(&self, span: &SpanRecord);

    /// Called for each warning while this sink is installed.
    fn on_warn(&self, _message: &str) {}

    /// Called by [`crate::flush`] with a snapshot of every counter and
    /// histogram.
    fn on_flush(&self, _snapshot: &Snapshot) {}
}

/// Writes one JSON object per line (JSONL) to a file: `span` events as
/// they close, `warn` events as they happen, and `counter` /
/// `histogram` records at flush.
pub struct JsonLinesSink {
    out: Mutex<BufWriter<File>>,
}

impl JsonLinesSink {
    /// Creates (truncating) the trace file at `path`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the file cannot be created.
    pub fn create(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        Ok(Self {
            out: Mutex::new(BufWriter::new(File::create(path)?)),
        })
    }

    fn write_line(&self, record: Value) {
        let mut line = record.to_line();
        line.push('\n');
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        // A full disk is not worth panicking a PUF enrollment over.
        let _ = out.write_all(line.as_bytes());
    }
}

impl Sink for JsonLinesSink {
    fn on_span(&self, span: &SpanRecord) {
        self.write_line(Value::object([
            ("type", Value::from("span")),
            ("name", Value::from(span.name)),
            ("start_us", Value::from(span.start_us)),
            ("dur_us", Value::from(span.dur_us)),
            ("thread", Value::from(span.thread)),
            ("depth", Value::from(span.depth)),
        ]));
    }

    fn on_warn(&self, message: &str) {
        self.write_line(Value::object([
            ("type", Value::from("warn")),
            ("message", Value::from(message.to_string())),
        ]));
    }

    fn on_flush(&self, snapshot: &Snapshot) {
        for (name, value) in &snapshot.counters {
            self.write_line(Value::object([
                ("type", Value::from("counter")),
                ("name", Value::from(name.clone())),
                ("value", Value::from(*value)),
            ]));
        }
        for h in &snapshot.histograms {
            let buckets = h
                .counts
                .iter()
                .enumerate()
                .filter(|&(_, &count)| count > 0)
                .map(|(i, &count)| {
                    Value::object([
                        ("lt", Value::from(bucket_upper_bound(i))),
                        ("count", Value::from(count)),
                    ])
                })
                .collect();
            self.write_line(Value::object([
                ("type", Value::from("histogram")),
                ("name", Value::from(h.name.clone())),
                ("count", Value::from(h.count)),
                ("sum", Value::from(h.sum)),
                ("max", Value::from(h.max)),
                ("mean", Value::from(h.mean())),
                ("buckets", Value::Array(buckets)),
            ]));
        }
        let _ = self.out.lock().unwrap_or_else(|e| e.into_inner()).flush();
    }
}

/// Writes the Prometheus text exposition of every counter and
/// histogram to a file at flush, truncating each time — the
/// *textfile-collector* pattern: point a node-exporter (or a test) at
/// the file and each completed run publishes its final metric state.
/// Spans are not exported individually (their duration histograms
/// are); warnings fall through to stderr.
pub struct PrometheusSink {
    path: std::path::PathBuf,
}

impl PrometheusSink {
    /// Exposition file sink writing to `path` at flush.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the file cannot be created (probed
    /// eagerly so a bad path fails at install, not at exit).
    pub fn create(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        File::create(&path)?;
        Ok(Self { path })
    }
}

impl Sink for PrometheusSink {
    fn on_span(&self, _span: &SpanRecord) {}

    fn on_warn(&self, message: &str) {
        eprintln!("warning: {message}");
    }

    fn on_flush(&self, snapshot: &Snapshot) {
        // A full disk is not worth panicking over; the probe in
        // `create` already surfaced unwritable paths.
        let _ = std::fs::write(&self.path, snapshot.render_prometheus("ropuf_"));
    }
}

/// Aggregates span statistics in memory and prints a human-readable
/// summary block to **stderr** at flush; warnings pass through to
/// stderr immediately.
#[derive(Default)]
pub struct SummarySink {
    spans: Mutex<BTreeMap<&'static str, SpanStats>>,
}

#[derive(Default, Clone, Copy)]
struct SpanStats {
    count: u64,
    total_us: u64,
    max_us: u64,
}

impl Sink for SummarySink {
    fn on_span(&self, span: &SpanRecord) {
        let mut spans = self.spans.lock().unwrap_or_else(|e| e.into_inner());
        let stats = spans.entry(span.name).or_default();
        stats.count += 1;
        stats.total_us += span.dur_us;
        stats.max_us = stats.max_us.max(span.dur_us);
    }

    fn on_warn(&self, message: &str) {
        eprintln!("warning: {message}");
    }

    fn on_flush(&self, snapshot: &Snapshot) {
        let spans = self.spans.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = String::from("--- telemetry summary ---\n");
        if !spans.is_empty() {
            out.push_str("spans (count, total, mean, max):\n");
            for (name, s) in spans.iter() {
                out.push_str(&format!(
                    "  {name:<28} {:>8}  {:>10.3}ms  {:>9.1}us  {:>9}us\n",
                    s.count,
                    s.total_us as f64 / 1e3,
                    s.total_us as f64 / s.count.max(1) as f64,
                    s.max_us
                ));
            }
        }
        if !snapshot.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, value) in &snapshot.counters {
                out.push_str(&format!("  {name:<28} {value:>12}\n"));
            }
        }
        // Histograms not already covered by a span of the same name.
        let extra: Vec<_> = snapshot
            .histograms
            .iter()
            .filter(|h| !spans.contains_key(h.name.as_str()))
            .collect();
        if !extra.is_empty() {
            out.push_str("histograms (count, mean, max):\n");
            for h in extra {
                out.push_str(&format!(
                    "  {:<28} {:>8}  {:>9.1}  {:>9}\n",
                    h.name,
                    h.count,
                    h.mean(),
                    h.max
                ));
            }
        }
        eprint!("{out}");
    }
}

/// Collects everything in memory: spans in arrival order, warnings,
/// and the snapshot delivered at flush. The test suite's workhorse,
/// and how the bench harness reads per-stage timings back out.
#[derive(Default)]
pub struct MemorySink {
    spans: Mutex<Vec<SpanRecord>>,
    warnings: Mutex<Vec<String>>,
    snapshot: Mutex<Option<Snapshot>>,
}

impl MemorySink {
    /// Every span closed while installed, in close order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Every warning emitted while installed.
    pub fn warnings(&self) -> Vec<String> {
        self.warnings
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// The snapshot delivered by the last flush, if any.
    pub fn snapshot(&self) -> Option<Snapshot> {
        self.snapshot
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Total duration (µs) across closed spans named `name`.
    pub fn span_total_us(&self, name: &str) -> u64 {
        self.spans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us)
            .sum()
    }

    /// Number of closed spans named `name`.
    pub fn span_count(&self, name: &str) -> usize {
        self.spans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .filter(|s| s.name == name)
            .count()
    }
}

impl Sink for MemorySink {
    fn on_span(&self, span: &SpanRecord) {
        self.spans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(span.clone());
    }

    fn on_warn(&self, message: &str) {
        self.warnings
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(message.to_string());
    }

    fn on_flush(&self, snapshot: &Snapshot) {
        *self.snapshot.lock().unwrap_or_else(|e| e.into_inner()) = Some(snapshot.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_sink_accumulates() {
        let sink = MemorySink::default();
        let record = SpanRecord {
            name: "m.a",
            start_us: 0,
            dur_us: 10,
            thread: 0,
            depth: 0,
        };
        sink.on_span(&record);
        sink.on_span(&SpanRecord {
            dur_us: 4,
            ..record.clone()
        });
        sink.on_warn("w");
        assert_eq!(sink.span_count("m.a"), 2);
        assert_eq!(sink.span_total_us("m.a"), 14);
        assert_eq!(sink.warnings().len(), 1);
        assert_eq!(sink.snapshot(), None);
        sink.on_flush(&Snapshot::default());
        assert_eq!(sink.snapshot(), Some(Snapshot::default()));
    }
}
