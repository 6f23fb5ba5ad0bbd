//! Rolling-window metrics: ring-buffered counters and histograms that
//! answer "how much happened in the last N seconds", not "since boot".
//!
//! The cumulative [`crate::metrics`] registry is the right shape for a
//! bench run that starts, works, and flushes; a long-running server
//! needs *windowed* figures — requests per second over the last five
//! minutes, p99 latency over the last five minutes — or an incident
//! that ended an hour ago pollutes every scrape forever. This module
//! provides that window as a fixed ring of buckets, each covering one
//! fixed slice of time; a bucket is lazily reset when the clock rolls
//! back onto its slot, so the window slides with O(1) work per record
//! and zero background threads.
//!
//! # Clocks are injected
//!
//! Every windowed metric reads time through a [`Clock`] handle.
//! Production uses [`WallClock`] (monotonic, anchored at construction);
//! tests and deterministic drills use [`ManualClock`], whose time only
//! moves when the test says so. This keeps the drill transcript a pure
//! function of its seed: the window machinery is *driven* by the
//! request stream and never feeds anything back into it, and with a
//! manual clock even the windowed figures themselves are reproducible.
//!
//! # Concurrency model
//!
//! The record path is lock-free: slot rotation is claimed with a
//! compare-exchange on the slot's period tag. Two threads racing a
//! rotation can drop a handful of just-recorded observations from the
//! freshly reset bucket — an accepted metrics-grade inaccuracy (the
//! same trade Prometheus client libraries make). Under a single thread
//! (or a [`ManualClock`] test) the counts are exact.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::metrics::{Histogram, HistogramSnapshot};

/// A time source for windowed metrics, in microseconds from an
/// arbitrary epoch. Implementations must be monotonic (never go
/// backwards); the epoch itself is irrelevant because windows only
/// compare differences.
pub trait Clock: Send + Sync {
    /// Microseconds elapsed since the clock's epoch.
    fn now_us(&self) -> u64;
}

/// Production clock: monotonic wall time anchored when constructed.
#[derive(Debug)]
pub struct WallClock {
    epoch: Instant,
}

impl Default for WallClock {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
        }
    }
}

impl Clock for WallClock {
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
    }
}

/// Test/drill clock: time moves only when told to. Shared freely
/// (interior atomic), so one handle can drive many windows.
#[derive(Debug, Default)]
pub struct ManualClock {
    now_us: AtomicU64,
}

impl ManualClock {
    /// A clock frozen at `start_us`.
    pub fn at(start_us: u64) -> Self {
        Self {
            now_us: AtomicU64::new(start_us),
        }
    }

    /// Jumps the clock to `us` (must not move backwards; the windows
    /// tolerate it but the monotonicity contract is on the caller).
    pub fn set(&self, us: u64) {
        self.now_us.store(us, Ordering::Relaxed);
    }

    /// Advances the clock by `us`.
    pub fn advance(&self, us: u64) {
        self.now_us.fetch_add(us, Ordering::Relaxed);
    }
}

impl Clock for ManualClock {
    fn now_us(&self) -> u64 {
        self.now_us.load(Ordering::Relaxed)
    }
}

/// Shape of a rolling window: how many buckets, each how wide.
///
/// The window covers `buckets × bucket_width_us` microseconds; older
/// observations are dropped bucket-at-a-time (the usual ring-buffer
/// granularity trade: more buckets = smoother expiry, more memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpec {
    /// Ring length (must be ≥ 1).
    pub buckets: usize,
    /// Time covered by one bucket, microseconds (must be ≥ 1).
    pub bucket_width_us: u64,
}

impl WindowSpec {
    /// Total time the window covers, microseconds.
    pub fn window_us(&self) -> u64 {
        self.bucket_width_us.saturating_mul(self.buckets as u64)
    }

    fn assert_valid(&self) {
        assert!(self.buckets >= 1, "a window needs at least one bucket");
        assert!(self.bucket_width_us >= 1, "bucket width must be positive");
    }

    /// Absolute period index for time `t` (period `p` covers
    /// `[p·width, (p+1)·width)`).
    fn period(&self, now_us: u64) -> u64 {
        now_us / self.bucket_width_us
    }

    /// Whether a bucket tagged `slot_period` is still inside the
    /// window whose newest period is `now_period`: the live periods
    /// are `(now_period − buckets, now_period]`.
    fn live(&self, slot_period: u64, now_period: u64) -> bool {
        slot_period <= now_period && now_period - slot_period < self.buckets as u64
    }
}

/// One ring slot: the absolute period it currently holds, plus a value.
#[derive(Debug, Default)]
struct CounterSlot {
    period: AtomicU64,
    value: AtomicU64,
}

/// A monotonic counter summed over a rolling window.
pub struct WindowedCounter {
    clock: Arc<dyn Clock>,
    spec: WindowSpec,
    slots: Vec<CounterSlot>,
}

impl WindowedCounter {
    /// A windowed counter reading time from `clock`.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate spec (zero buckets or zero width).
    pub fn new(clock: Arc<dyn Clock>, spec: WindowSpec) -> Self {
        spec.assert_valid();
        let slots = (0..spec.buckets).map(|_| CounterSlot::default()).collect();
        Self { clock, spec, slots }
    }

    /// The window shape.
    pub fn spec(&self) -> WindowSpec {
        self.spec
    }

    /// Adds `n` to the current bucket.
    pub fn add(&self, n: u64) {
        let period = self.spec.period(self.clock.now_us());
        let slot = &self.slots[(period % self.spec.buckets as u64) as usize];
        rotate(&slot.period, period, || {
            slot.value.store(0, Ordering::Relaxed)
        });
        slot.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Sum over the live window (buckets older than the window are
    /// excluded even though they have not been physically reset yet).
    pub fn sum(&self) -> u64 {
        let now_period = self.spec.period(self.clock.now_us());
        self.slots
            .iter()
            .filter(|s| self.spec.live(s.period.load(Ordering::Relaxed), now_period))
            .map(|s| s.value.load(Ordering::Relaxed))
            .sum()
    }

    /// Events per second averaged over the full window span.
    pub fn rate_per_sec(&self) -> f64 {
        self.sum() as f64 / (self.spec.window_us() as f64 / 1e6)
    }
}

/// Claims `slot_period` for `period`: when the tag is stale, one thread
/// wins the compare-exchange and runs `reset` before the new period's
/// counts accumulate. Losing threads fall through and record into the
/// (possibly mid-reset) bucket — see the module docs for why that
/// race is acceptable.
fn rotate(slot_period: &AtomicU64, period: u64, reset: impl FnOnce()) {
    let tagged = slot_period.load(Ordering::Acquire);
    if tagged != period
        && slot_period
            .compare_exchange(tagged, period, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
    {
        reset();
    }
}

/// One histogram ring slot: period tag plus a cumulative histogram of
/// that period.
#[derive(Default)]
struct HistogramSlot {
    period: AtomicU64,
    histogram: Histogram,
}

/// A fixed-bucket latency histogram over a rolling window. Values land
/// in the same power-of-two buckets as the cumulative histograms, so a
/// merged [`HistogramSnapshot`] (and its pinned nearest-rank
/// [`HistogramSnapshot::quantile`]) works unchanged — an empty window
/// reports `count == 0` and `quantile(_) == None`, exactly like an
/// empty cumulative histogram.
pub struct WindowedHistogram {
    clock: Arc<dyn Clock>,
    spec: WindowSpec,
    slots: Vec<HistogramSlot>,
}

impl WindowedHistogram {
    /// A windowed histogram reading time from `clock`.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate spec (zero buckets or zero width).
    pub fn new(clock: Arc<dyn Clock>, spec: WindowSpec) -> Self {
        spec.assert_valid();
        let slots = (0..spec.buckets)
            .map(|_| HistogramSlot::default())
            .collect();
        Self { clock, spec, slots }
    }

    /// The window shape.
    pub fn spec(&self) -> WindowSpec {
        self.spec
    }

    /// Records one observation into the current bucket.
    pub fn record(&self, value: u64) {
        let period = self.spec.period(self.clock.now_us());
        let slot = &self.slots[(period % self.spec.buckets as u64) as usize];
        rotate(&slot.period, period, || slot.histogram.reset());
        slot.histogram.record(value);
    }

    /// Merges the live buckets into one snapshot named `name`. The
    /// result is shape-compatible with cumulative histogram snapshots:
    /// the same exposition renderer and quantile convention apply.
    pub fn snapshot(&self, name: &str) -> HistogramSnapshot {
        let now_period = self.spec.period(self.clock.now_us());
        let mut merged = HistogramSnapshot {
            name: name.to_string(),
            ..HistogramSnapshot::default()
        };
        for slot in &self.slots {
            if self
                .spec
                .live(slot.period.load(Ordering::Relaxed), now_period)
            {
                slot.histogram.merge_into(&mut merged);
            }
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manual() -> Arc<ManualClock> {
        Arc::new(ManualClock::at(0))
    }

    fn spec(buckets: usize, width_us: u64) -> WindowSpec {
        WindowSpec {
            buckets,
            bucket_width_us: width_us,
        }
    }

    #[test]
    fn counter_sums_within_the_window() {
        let clock = manual();
        let c = WindowedCounter::new(clock.clone(), spec(4, 1_000));
        c.add(3);
        clock.advance(1_000); // next bucket
        c.add(5);
        assert_eq!(c.sum(), 8, "both buckets live");
        assert!((c.rate_per_sec() - 8.0 / 0.004).abs() < 1e-9);
    }

    #[test]
    fn buckets_expire_one_at_a_time() {
        let clock = manual();
        let c = WindowedCounter::new(clock.clone(), spec(3, 1_000));
        c.add(1); // period 0
        clock.set(1_000);
        c.add(10); // period 1
        clock.set(2_000);
        c.add(100); // period 2
        assert_eq!(c.sum(), 111);
        // Period 3: the window is (0, 3] — period 0 ages out.
        clock.set(3_000);
        assert_eq!(c.sum(), 110);
        clock.set(4_000);
        assert_eq!(c.sum(), 100);
        clock.set(5_000);
        assert_eq!(c.sum(), 0, "everything expired");
    }

    #[test]
    fn clock_jump_beyond_the_window_expires_everything_without_writes() {
        // Expiry is read-side (liveness filter), not write-side: no
        // record() after the jump, yet the stale buckets don't count.
        let clock = manual();
        let c = WindowedCounter::new(clock.clone(), spec(4, 1_000));
        for _ in 0..16 {
            c.add(1);
        }
        assert_eq!(c.sum(), 16);
        clock.set(60_000);
        assert_eq!(c.sum(), 0);
        // And a write after the jump lands in a freshly reset bucket
        // even though its slot still physically holds period-0 counts.
        c.add(2);
        assert_eq!(c.sum(), 2);
    }

    #[test]
    fn slot_reuse_resets_the_old_period() {
        // Periods 0 and 4 share slot 0 in a 4-bucket ring; rolling back
        // onto the slot must not resurrect the old count.
        let clock = manual();
        let c = WindowedCounter::new(clock.clone(), spec(4, 1_000));
        c.add(7); // period 0, slot 0
        clock.set(4_000);
        c.add(1); // period 4, slot 0 again
        assert_eq!(c.sum(), 1);
    }

    #[test]
    fn boundary_record_lands_in_the_new_bucket() {
        let clock = manual();
        let c = WindowedCounter::new(clock.clone(), spec(2, 1_000));
        clock.set(999);
        c.add(1); // period 0
        clock.set(1_000);
        c.add(1); // exactly on the edge: period 1
        assert_eq!(c.sum(), 2);
        clock.set(2_000); // period 0 expires
        assert_eq!(c.sum(), 1);
    }

    #[test]
    fn empty_window_quantile_contract() {
        let clock = manual();
        let h = WindowedHistogram::new(clock.clone(), spec(4, 1_000));
        let s = h.snapshot("empty");
        assert_eq!(s.count, 0);
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.quantile(0.99), None);
        // Recorded, then fully expired: back to the empty contract.
        h.record(42);
        assert_eq!(h.snapshot("live").quantile(0.99), Some(42));
        clock.set(10_000);
        let expired = h.snapshot("expired");
        assert_eq!(expired.count, 0);
        assert_eq!(expired.quantile(0.99), None);
        assert_eq!(expired.max, 0);
    }

    #[test]
    fn histogram_merges_live_buckets_with_the_pinned_quantile() {
        let clock = manual();
        let h = WindowedHistogram::new(clock.clone(), spec(4, 1_000));
        for _ in 0..10 {
            h.record(1);
        }
        clock.advance(1_000);
        for _ in 0..10 {
            h.record(9);
        }
        let s = h.snapshot("merged");
        assert_eq!(s.count, 20);
        assert_eq!(s.sum, 100);
        assert_eq!(s.max, 9);
        // Same nearest-rank convention as the cumulative histogram.
        assert_eq!(s.quantile(0.5), Some(1));
        assert_eq!(s.quantile(0.51), Some(9));
        // The old bucket ages out and the quantile follows the window.
        clock.set(4_000);
        let s = h.snapshot("tail");
        assert_eq!(s.count, 10);
        assert_eq!(s.quantile(0.5), Some(9));
    }

    #[test]
    fn windowed_snapshot_renders_as_prometheus_exposition() {
        let clock = manual();
        let h = WindowedHistogram::new(clock.clone(), spec(2, 1_000));
        for v in [1, 1, 3, 9] {
            h.record(v);
        }
        let text = crate::metrics::Snapshot {
            counters: vec![],
            histograms: vec![h.snapshot("serve.window.auth_micros")],
        }
        .render_prometheus("ropuf_");
        assert!(text.contains("# TYPE ropuf_serve_window_auth_micros histogram\n"));
        assert!(text.contains("ropuf_serve_window_auth_micros_bucket{le=\"1\"} 2\n"));
        assert!(text.contains("ropuf_serve_window_auth_micros_bucket{le=\"+Inf\"} 4\n"));
        assert!(text.contains("ropuf_serve_window_auth_micros_count 4\n"));
    }

    #[test]
    fn wall_clock_is_monotonic_and_window_spans_multiply() {
        let w = WallClock::default();
        let a = w.now_us();
        let b = w.now_us();
        assert!(b >= a);
        assert_eq!(spec(60, 5_000_000).window_us(), 300_000_000);
        assert_eq!(spec(3, 1_000).window_us(), 3_000);
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn zero_bucket_window_panics() {
        let _ = WindowedCounter::new(manual(), spec(0, 1_000));
    }

    #[test]
    fn concurrent_adds_land_somewhere_reasonable() {
        // Threads hammering one frozen-clock bucket: with no rotation
        // in flight the count is exact.
        let clock = manual();
        let c = Arc::new(WindowedCounter::new(clock, spec(4, 1_000)));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1_000 {
                        c.add(1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.sum(), 4_000);
    }
}
