#![warn(missing_docs)]

//! Vendored zero-dependency structured telemetry for the `ropuf`
//! workspace: scoped spans, monotonic counters, and fixed-bucket
//! latency histograms, draining to a pluggable [`Sink`].
//!
//! The workspace builds offline (no registry access), so this crate
//! follows the `compat/` shim precedent: it vendors the small subset of
//! a `tracing`-style API the workspace actually needs, on `std` alone.
//!
//! Beyond the process-wide registry, [`window`] keeps rolling-window
//! counters and histograms (each histogram slot a
//! [`metrics::Histogram`]) and [`health`] classifies gauges with
//! latching thresholds. Both are value-only: what a window or a gauge
//! means lives with its user — the server's operations plane, for
//! one, computes its service-level objectives from its own windows.
//! [`json`] reads and writes every JSON document the workspace uses.
//!
//! # Design rules
//!
//! * **Never touches stdout.** Sinks write to files
//!   ([`JsonLinesSink`]) or stderr
//!   ([`SummarySink`]); program output stays
//!   byte-identical with telemetry on or off.
//! * **Never perturbs determinism.** Telemetry reads clocks, not RNGs;
//!   instrumented code computes the same bits whether a sink is
//!   installed or not.
//! * **Near-zero cost when disabled.** Every entry point first checks
//!   one relaxed atomic load and returns immediately when no sink is
//!   installed.
//!
//! # Quick start
//!
//! ```
//! use std::sync::Arc;
//! use ropuf_telemetry as telemetry;
//! use telemetry::sink::MemorySink;
//!
//! let sink = Arc::new(MemorySink::default());
//! telemetry::scoped(sink.clone(), || {
//!     let _outer = telemetry::span("demo.outer");
//!     telemetry::counter("demo.widgets", 3);
//!     telemetry::record("demo.latency_us", 42);
//! });
//! assert_eq!(sink.spans().len(), 1);
//! let snapshot = sink.snapshot().expect("flushed at scope end");
//! assert_eq!(snapshot.counter("demo.widgets"), Some(3));
//! ```
//!
//! Long-running binaries install a sink once ([`install`], or
//! [`init_from_env`] honoring `ROPUF_TRACE`) and call [`flush`] before
//! exit; tests and benchmarks use [`scoped`], which serializes
//! concurrent scopes on a global lock so their counters stay exact —
//! as long as nothing emits outside a scope meanwhile.

pub mod health;
pub mod json;
pub mod metrics;
pub mod sink;
pub mod window;

pub use health::{HealthBoard, HealthReport, Status};
pub use metrics::Snapshot;
pub use sink::{JsonLinesSink, MemorySink, PrometheusSink, Sink, SummarySink};
pub use window::{Clock, ManualClock, WallClock, WindowSpec, WindowedCounter, WindowedHistogram};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

use metrics::Registry;

/// Environment variable [`init_from_env`] reads: a path enables the
/// JSON-lines sink, `summary` (or `stderr`) the human summary sink.
pub const TRACE_ENV: &str = "ROPUF_TRACE";

/// Fast-path gate: true while a sink is installed.
static ENABLED: AtomicBool = AtomicBool::new(false);

struct State {
    sink: RwLock<Option<Arc<dyn Sink>>>,
    registry: Registry,
    epoch: Instant,
    /// Serializes [`scoped`] sections so concurrent tests cannot mix
    /// their counters.
    scope_lock: Mutex<()>,
}

fn state() -> &'static State {
    static STATE: OnceLock<State> = OnceLock::new();
    STATE.get_or_init(|| State {
        sink: RwLock::new(None),
        registry: Registry::default(),
        epoch: Instant::now(),
        scope_lock: Mutex::new(()),
    })
}

/// Whether a sink is currently installed. Instrumented hot paths are
/// welcome to pre-check this before assembling expensive labels.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Installs `sink` as the global drain and enables telemetry,
/// returning the previously installed sink, if any.
///
/// The metric registry keeps whatever it has accumulated; call
/// [`reset`] first for a clean slate (a fresh process is already
/// clean).
pub fn install(sink: Arc<dyn Sink>) -> Option<Arc<dyn Sink>> {
    let prev = state()
        .sink
        .write()
        .unwrap_or_else(|e| e.into_inner())
        .replace(sink);
    ENABLED.store(true, Ordering::Relaxed);
    prev
}

/// Removes the installed sink (disabling telemetry) and returns it.
pub fn uninstall() -> Option<Arc<dyn Sink>> {
    ENABLED.store(false, Ordering::Relaxed);
    state()
        .sink
        .write()
        .unwrap_or_else(|e| e.into_inner())
        .take()
}

/// Clears every counter and histogram.
pub fn reset() {
    state().registry.reset();
}

/// Reads `ROPUF_TRACE` and installs the matching sink:
///
/// * unset or empty — telemetry stays disabled, returns `Ok(false)`;
/// * `summary` or `stderr` — [`SummarySink`]
///   (human-readable block on stderr at flush);
/// * `prom:<path>` — [`PrometheusSink`]
///   (text exposition written to `<path>` at flush);
/// * anything else — treated as a path for a
///   [`JsonLinesSink`].
///
/// # Errors
///
/// Returns the I/O error when the trace file cannot be created.
pub fn init_from_env() -> std::io::Result<bool> {
    match std::env::var(TRACE_ENV) {
        Ok(target) if !target.trim().is_empty() => init_target(target.trim()).map(|()| true),
        _ => Ok(false),
    }
}

/// Installs the sink named by `target` (same grammar as
/// [`init_from_env`]'s `ROPUF_TRACE` values: `summary`/`stderr`,
/// `prom:<path>`, or a JSON-lines file path).
///
/// # Errors
///
/// Returns the I/O error when the trace file cannot be created.
pub fn init_target(target: &str) -> std::io::Result<()> {
    match target {
        "summary" | "stderr" => {
            install(Arc::new(sink::SummarySink::default()));
        }
        prom if prom.starts_with("prom:") => {
            install(Arc::new(sink::PrometheusSink::create(
                prom.trim_start_matches("prom:"),
            )?));
        }
        path => {
            install(Arc::new(sink::JsonLinesSink::create(path)?));
        }
    }
    Ok(())
}

/// Runs `f` with `sink` installed, then flushes, restores the previous
/// sink, and returns `f`'s result.
///
/// Scopes are serialized on a global lock, so two concurrent `scoped`
/// sections (e.g. tests in one binary) never observe each other's
/// counters. That is the only isolation a scope gives: the sink and
/// registry are process-global, so code running *outside* any scope on
/// another thread while this one is open emits into this scope's sink
/// and counts. Tests that assert exact counts must not share a binary
/// with tests that emit unscoped. The metric registry is reset on entry
/// and again on exit; a sink installed outside the scope loses any
/// counts accumulated before the scope ran.
pub fn scoped<T>(sink: Arc<dyn Sink>, f: impl FnOnce() -> T) -> T {
    let st = state();
    let _guard = st.scope_lock.lock().unwrap_or_else(|e| e.into_inner());
    let prev = uninstall();
    reset();
    install(sink);
    let result = f();
    flush();
    uninstall();
    reset();
    if let Some(prev) = prev {
        install(prev);
    }
    result
}

/// Drains a snapshot of every counter and histogram to the installed
/// sink (no-op when disabled). Call once before process exit.
pub fn flush() {
    if let Some(sink) = current_sink() {
        sink.on_flush(&snapshot());
    }
}

/// A point-in-time copy of every counter and histogram.
pub fn snapshot() -> Snapshot {
    state().registry.snapshot()
}

fn current_sink() -> Option<Arc<dyn Sink>> {
    if !enabled() {
        return None;
    }
    state()
        .sink
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .clone()
}

/// Adds `n` to the monotonic counter `name` (no-op when disabled).
#[inline]
pub fn counter(name: &'static str, n: u64) {
    if !enabled() {
        return;
    }
    state()
        .registry
        .counter(name)
        .fetch_add(n, Ordering::Relaxed);
}

/// Records `value` into the fixed-bucket histogram `name` (no-op when
/// disabled). Spans record their duration in microseconds; other call
/// sites may record any non-negative quantity (the buckets are plain
/// powers of two of whatever unit the caller uses).
#[inline]
pub fn record(name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    state().registry.histogram(name).record(value);
}

/// Emits a warning. With a sink installed it becomes a structured
/// event; otherwise it goes to stderr so operational problems (e.g. a
/// malformed `RAYON_NUM_THREADS`) are never silently swallowed.
pub fn warn(message: &str) {
    match current_sink() {
        Some(sink) => sink.on_warn(message),
        None => eprintln!("warning: {message}"),
    }
}

thread_local! {
    static DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
    static THREAD_ID: std::cell::Cell<u64> = const { std::cell::Cell::new(u64::MAX) };
}

/// Small dense id for the calling thread (assigned on first use; the
/// OS thread id is not portably available as an integer).
fn thread_id() -> u64 {
    THREAD_ID.with(|id| {
        if id.get() == u64::MAX {
            static NEXT: AtomicU64 = AtomicU64::new(0);
            id.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        id.get()
    })
}

/// One closed span, as delivered to [`Sink::on_span`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name (dotted-path convention, e.g. `fleet.enroll`).
    pub name: &'static str,
    /// Start time, microseconds since the process's telemetry epoch.
    pub start_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
    /// Dense id of the thread the span ran on.
    pub thread: u64,
    /// Nesting depth at open (0 = top level) on that thread.
    pub depth: u32,
}

/// A scoped span: created by [`span`], measures until dropped.
///
/// On drop it feeds the `name` histogram (duration in microseconds)
/// and emits a [`SpanRecord`] to the sink. An unarmed span (telemetry
/// disabled at creation) costs one atomic load total.
#[must_use = "a span measures until dropped; binding it to _ closes it immediately"]
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
    depth: u32,
}

/// Opens a scoped span named `name`; the span closes (and reports)
/// when the returned guard drops.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span {
            name,
            start: None,
            depth: 0,
        };
    }
    let depth = DEPTH.with(|d| {
        let depth = d.get();
        d.set(depth + 1);
        depth
    });
    Span {
        name,
        start: Some(Instant::now()),
        depth,
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let dur_us = start.elapsed().as_micros() as u64;
        let st = state();
        st.registry.histogram(self.name).record(dur_us);
        if let Some(sink) = current_sink() {
            sink.on_span(&SpanRecord {
                name: self.name,
                start_us: start.duration_since(st.epoch).as_micros() as u64,
                dur_us,
                thread: thread_id(),
                depth: self.depth,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sink::MemorySink;

    #[test]
    fn disabled_calls_are_inert() {
        // Not scoped: relies on no sink being installed by default in
        // this binary (scoped tests below serialize on the same lock).
        let _guard = state().scope_lock.lock().unwrap_or_else(|e| e.into_inner());
        assert!(!enabled());
        counter("inert.counter", 5);
        record("inert.histogram", 5);
        let _span = span("inert.span");
        drop(_span);
        // Nothing registered.
        let snap = snapshot();
        assert_eq!(snap.counter("inert.counter"), None);
        assert!(snap.histogram("inert.span").is_none());
    }

    #[test]
    fn scoped_collects_and_restores() {
        let sink = Arc::new(MemorySink::default());
        let out = scoped(sink.clone(), || {
            counter("t.count", 2);
            counter("t.count", 3);
            record("t.hist", 7);
            {
                let _s = span("t.span");
            }
            17
        });
        assert_eq!(out, 17);
        assert!(!enabled(), "scope end disables telemetry");
        let snap = sink.snapshot().expect("flushed");
        assert_eq!(snap.counter("t.count"), Some(5));
        assert_eq!(snap.histogram("t.hist").map(|h| h.count), Some(1));
        assert_eq!(sink.spans().len(), 1);
        assert_eq!(sink.spans()[0].name, "t.span");
    }

    #[test]
    fn nested_scoped_spans_report_depths() {
        let sink = Arc::new(MemorySink::default());
        scoped(sink.clone(), || {
            let _outer = span("depth.outer");
            let _inner = span("depth.inner");
        });
        let spans = sink.spans();
        // Inner closes first (reverse drop order).
        assert_eq!(spans[0].name, "depth.inner");
        assert_eq!(spans[0].depth, 1);
        assert_eq!(spans[1].name, "depth.outer");
        assert_eq!(spans[1].depth, 0);
    }

    #[test]
    fn warn_reaches_sink() {
        let sink = Arc::new(MemorySink::default());
        scoped(sink.clone(), || warn("the sky is falling"));
        assert_eq!(sink.warnings(), vec!["the sky is falling".to_string()]);
    }

    #[test]
    fn scoped_sections_do_not_leak_counters() {
        let a = Arc::new(MemorySink::default());
        scoped(a.clone(), || counter("leak.check", 1));
        let b = Arc::new(MemorySink::default());
        scoped(b.clone(), || counter("leak.check", 1));
        assert_eq!(a.snapshot().unwrap().counter("leak.check"), Some(1));
        assert_eq!(b.snapshot().unwrap().counter("leak.check"), Some(1));
    }
}
