//! Counter and histogram storage: lock-free on the record path, locked
//! only to register a new name.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Number of histogram buckets. Bucket `i` counts values `v` with
/// `2^(i-1) <= v < 2^i` (bucket 0 counts zeros and ones); the last
/// bucket is unbounded above. With microsecond recordings this spans
/// sub-microsecond to ~35 minutes.
pub const BUCKETS: usize = 32;

/// Upper bound (exclusive) of bucket `i`, in the recorded unit;
/// `u64::MAX` for the final catch-all bucket.
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i + 1 >= BUCKETS {
        u64::MAX
    } else {
        1u64 << (i + 1)
    }
}

fn bucket_index(value: u64) -> usize {
    // 0 and 1 land in bucket 0; otherwise floor(log2(value)), capped.
    (63 - value.max(1).leading_zeros() as usize).min(BUCKETS - 1)
}

/// A fixed-bucket histogram with power-of-two bucket bounds.
#[derive(Default)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Point-in-time copy of the bucket counts under `name`.
    pub fn snapshot(&self, name: &str) -> HistogramSnapshot {
        let mut snapshot = HistogramSnapshot {
            name: name.to_string(),
            ..HistogramSnapshot::default()
        };
        self.merge_into(&mut snapshot);
        snapshot
    }

    /// Forgets every observation.
    pub fn reset(&self) {
        for bucket in &self.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    /// Adds this histogram's observations to `merged` (the sum wraps,
    /// like the recorded one).
    pub(crate) fn merge_into(&self, merged: &mut HistogramSnapshot) {
        for (total, bucket) in merged.counts.iter_mut().zip(&self.buckets) {
            *total += bucket.load(Ordering::Relaxed);
        }
        merged.count += self.count.load(Ordering::Relaxed);
        merged.sum = merged.sum.wrapping_add(self.sum.load(Ordering::Relaxed));
        merged.max = merged.max.max(self.max.load(Ordering::Relaxed));
    }
}

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Histogram name.
    pub name: String,
    /// Per-bucket observation counts (see [`bucket_upper_bound`]).
    pub counts: [u64; BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Mean recorded value, or 0 with no observations.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper-bound estimate of the `q`-quantile (`0.0 ..= 1.0`): the
    /// inclusive upper edge of the bucket holding the `ceil(q·count)`-th
    /// smallest observation, capped at the recorded maximum so the
    /// catch-all top bucket never reports `u64::MAX`. Exact whenever a
    /// bucket holds one distinct value; otherwise off by at most the
    /// bucket width (a factor of two). `None` with no observations.
    ///
    /// **Rank convention (pinned):** the target rank is
    /// `max(1, ceil(q·count))` — the same nearest-rank convention as
    /// `ropuf_num::stats::percentile`, so the two agree exactly on
    /// single-distinct-value buckets; a cross-crate test
    /// (`quantile_convention` in `ropuf-core`) enforces the agreement.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, &n) in self.counts.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                // Bucket upper bounds are exclusive and values are
                // integers, so the inclusive edge is `bound - 1`; the
                // catch-all top bucket is inclusive of `u64::MAX`, so
                // its edge is the recorded maximum itself.
                return Some(if i + 1 >= BUCKETS {
                    self.max
                } else {
                    (bucket_upper_bound(i) - 1).min(self.max)
                });
            }
        }
        // count > 0 guarantees some bucket reached the rank.
        unreachable!("rank {rank} beyond cumulative count {cumulative}");
    }
}

/// Point-in-time copy of every counter and histogram.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// `(name, value)` for every registered counter, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// Every registered histogram, name-sorted.
    pub histograms: Vec<HistogramSnapshot>,
}

impl Snapshot {
    /// Value of counter `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Snapshot of histogram `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Renders every counter and histogram in the Prometheus text
    /// exposition format, metric names prefixed with `prefix`
    /// (conventionally `ropuf_`) and sanitized (dots become
    /// underscores).
    ///
    /// Counters export as `<name>_total`. Histograms export the
    /// standard triplet — cumulative `_bucket{le="..."}` series, `_sum`
    /// and `_count` — plus a `_max` gauge (the exposition format has no
    /// native max). Because recorded values are integers and our bucket
    /// bounds are exclusive powers of two, the inclusive `le` edge of
    /// bucket `i` is `2^(i+1) − 1`; the final catch-all bucket is
    /// `le="+Inf"`. Empty trailing buckets are elided (the `+Inf`
    /// cumulative line always closes the series).
    pub fn render_prometheus(&self, prefix: &str) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let name = format!("{prefix}{}_total", crate::health::prometheus_name(name));
            out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
        }
        for h in &self.histograms {
            let name = format!("{prefix}{}", crate::health::prometheus_name(&h.name));
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let last_nonempty = h
                .counts
                .iter()
                .rposition(|&n| n > 0)
                .unwrap_or(0)
                .min(BUCKETS - 2);
            let mut cumulative = 0u64;
            for (i, &n) in h.counts.iter().take(last_nonempty + 1).enumerate() {
                cumulative += n;
                out.push_str(&format!(
                    "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
                    bucket_upper_bound(i) - 1
                ));
            }
            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("{name}_sum {}\n", h.sum));
            out.push_str(&format!("{name}_count {}\n", h.count));
            out.push_str(&format!("# TYPE {name}_max gauge\n{name}_max {}\n", h.max));
        }
        out
    }
}

/// Name-keyed storage for counters and histograms.
#[derive(Default)]
pub(crate) struct Registry {
    counters: RwLock<BTreeMap<&'static str, Arc<AtomicU64>>>,
    histograms: RwLock<BTreeMap<&'static str, Arc<Histogram>>>,
}

impl Registry {
    pub(crate) fn counter(&self, name: &'static str) -> Arc<AtomicU64> {
        if let Some(c) = self
            .counters
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
        {
            return Arc::clone(c);
        }
        Arc::clone(
            self.counters
                .write()
                .unwrap_or_else(|e| e.into_inner())
                .entry(name)
                .or_default(),
        )
    }

    pub(crate) fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        if let Some(h) = self
            .histograms
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
        {
            return Arc::clone(h);
        }
        Arc::clone(
            self.histograms
                .write()
                .unwrap_or_else(|e| e.into_inner())
                .entry(name)
                .or_default(),
        )
    }

    pub(crate) fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .read()
                .unwrap_or_else(|e| e.into_inner())
                .iter()
                .map(|(&name, value)| (name.to_string(), value.load(Ordering::Relaxed)))
                .collect(),
            histograms: self
                .histograms
                .read()
                .unwrap_or_else(|e| e.into_inner())
                .iter()
                .map(|(&name, histogram)| histogram.snapshot(name))
                .collect(),
        }
    }

    pub(crate) fn reset(&self) {
        self.counters
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
        self.histograms
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_cover_the_line() {
        assert_eq!(bucket_upper_bound(0), 2);
        assert_eq!(bucket_upper_bound(10), 2048);
        assert_eq!(bucket_upper_bound(BUCKETS - 1), u64::MAX);
        for v in [0u64, 1, 2, 1000, 1 << 40, u64::MAX] {
            let i = bucket_index(v);
            // The final bucket is a catch-all, inclusive of u64::MAX.
            if i + 1 < BUCKETS {
                assert!(v < bucket_upper_bound(i), "value {v} bucket {i}");
            }
            if i > 0 {
                assert!(v >= bucket_upper_bound(i - 1), "value {v} bucket {i}");
            }
        }
    }

    #[test]
    fn histogram_tracks_count_sum_max() {
        let h = Histogram::default();
        for v in [3, 5, 100] {
            h.record(v);
        }
        let s = h.snapshot("h");
        assert_eq!(s.count, 3);
        assert_eq!(s.sum, 108);
        assert_eq!(s.max, 100);
        assert_eq!(s.counts.iter().sum::<u64>(), 3);
        assert!((s.mean() - 36.0).abs() < 1e-12);
    }

    #[test]
    fn zero_sample_snapshot_is_well_defined() {
        let h = Histogram::default();
        let s = h.snapshot("empty");
        assert_eq!(s.count, 0);
        assert_eq!(s.sum, 0);
        assert_eq!(s.max, 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.quantile(0.0), None);
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.quantile(1.0), None);
        // Exposition of an empty histogram still closes the series.
        let snap = Snapshot {
            counters: vec![],
            histograms: vec![s],
        };
        let text = snap.render_prometheus("t_");
        assert!(text.contains("t_empty_bucket{le=\"+Inf\"} 0\n"));
        assert!(text.contains("t_empty_count 0\n"));
    }

    #[test]
    fn saturating_top_bucket_catches_huge_values() {
        let h = Histogram::default();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        h.record(1u64 << 40);
        let s = h.snapshot("big");
        // Everything at or above 2^31 lands in the catch-all bucket.
        assert_eq!(s.counts[BUCKETS - 1], 3);
        assert_eq!(s.count, 3);
        assert_eq!(s.max, u64::MAX);
        // Sum saturates arithmetic naturally (wrapping add on u64 is
        // the documented cost of a fixed-width sum) — but count and max
        // stay exact, and the quantile caps at the recorded max rather
        // than reporting the unbounded bucket edge.
        assert_eq!(s.quantile(0.5), Some(u64::MAX));
        assert_eq!(s.quantile(1.0), Some(u64::MAX));
        let text = Snapshot {
            counters: vec![],
            histograms: vec![s],
        }
        .render_prometheus("t_");
        // No finite le edge for the catch-all: +Inf closes the series.
        assert!(text.contains("t_big_bucket{le=\"+Inf\"} 3\n"));
        assert!(!text.contains(&format!("le=\"{}\"", u64::MAX - 1)));
    }

    #[test]
    fn quantiles_walk_cumulative_buckets() {
        let h = Histogram::default();
        // 10 values in bucket 0 (0..=1), 10 in bucket 3 (8..=15).
        for _ in 0..10 {
            h.record(1);
            h.record(9);
        }
        let s = h.snapshot("q");
        assert_eq!(s.quantile(0.25), Some(1));
        assert_eq!(s.quantile(0.5), Some(1));
        // Rank 11 crosses into bucket 3; its inclusive edge is 15,
        // capped at the recorded max of 9.
        assert_eq!(s.quantile(0.51), Some(9));
        assert_eq!(s.quantile(0.99), Some(9));
        assert_eq!(s.quantile(1.0), Some(9));
        // q = 0 means "smallest observation's bucket edge".
        assert_eq!(s.quantile(0.0), Some(1));
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn out_of_range_quantile_panics() {
        let h = Histogram::default();
        h.record(1);
        let _ = h.snapshot("q").quantile(1.5);
    }

    #[test]
    fn prometheus_exposition_cumulates_buckets() {
        let h = Histogram::default();
        for v in [1, 1, 3, 9] {
            h.record(v);
        }
        let snap = Snapshot {
            counters: vec![("fleet.boards".into(), 4)],
            histograms: vec![h.snapshot("fleet.enroll")],
        };
        let text = snap.render_prometheus("ropuf_");
        assert!(text.contains("# TYPE ropuf_fleet_boards_total counter\n"));
        assert!(text.contains("ropuf_fleet_boards_total 4\n"));
        assert!(text.contains("# TYPE ropuf_fleet_enroll histogram\n"));
        // Buckets are cumulative: 2 values <= 1, 3 values <= 3,
        // unchanged at <= 7, 4 values <= 15.
        assert!(text.contains("ropuf_fleet_enroll_bucket{le=\"1\"} 2\n"));
        assert!(text.contains("ropuf_fleet_enroll_bucket{le=\"3\"} 3\n"));
        assert!(text.contains("ropuf_fleet_enroll_bucket{le=\"7\"} 3\n"));
        assert!(text.contains("ropuf_fleet_enroll_bucket{le=\"15\"} 4\n"));
        assert!(text.contains("ropuf_fleet_enroll_bucket{le=\"+Inf\"} 4\n"));
        assert!(text.contains("ropuf_fleet_enroll_sum 14\n"));
        assert!(text.contains("ropuf_fleet_enroll_count 4\n"));
        assert!(text.contains("ropuf_fleet_enroll_max 9\n"));
        // Trailing empty buckets are elided.
        assert!(!text.contains("le=\"31\""));
    }

    #[test]
    fn registry_reuses_handles() {
        let r = Registry::default();
        r.counter("a").fetch_add(1, Ordering::Relaxed);
        r.counter("a").fetch_add(2, Ordering::Relaxed);
        r.histogram("h").record(9);
        let snap = r.snapshot();
        assert_eq!(snap.counter("a"), Some(3));
        assert_eq!(snap.histogram("h").unwrap().count, 1);
        r.reset();
        assert_eq!(r.snapshot(), Snapshot::default());
    }
}
