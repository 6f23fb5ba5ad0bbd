//! Measurement instruments: gated frequency counter and pulse delay probe.
//!
//! The paper's calibration step (§III.B) emphasizes that high measurement
//! accuracy is *not* required — only the relative speed of inverters
//! matters. These models let the rest of the workspace verify that claim:
//! both instruments corrupt the true value with realistic noise, and the
//! probe supports averaging over repeated readings.
//!
//! # Examples
//!
//! ```
//! use rand::SeedableRng;
//! use ropuf_silicon::measure::DelayProbe;
//!
//! let probe = DelayProbe::noiseless();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! assert_eq!(probe.measure_ps(&mut rng, 500.0), 500.0);
//! ```

use rand::Rng;

use crate::noise::sample_normal;
use crate::params::NoiseParams;

/// A pulse-propagation delay probe: measures a combinational path delay
/// directly, with additive Gaussian noise, optionally averaging repeats.
///
/// This is the instrument used during the post-silicon test phase to
/// calibrate `ddiff` values; it works for any MUX configuration including
/// ones with an even number of inverters (which would not free-run as a
/// ring).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayProbe {
    /// Additive noise sigma of a single reading, picoseconds.
    pub sigma_ps: f64,
    /// Number of readings averaged per measurement (≥ 1).
    pub repeats: usize,
}

impl DelayProbe {
    /// Probe with the given single-reading noise and repeat count.
    ///
    /// # Panics
    ///
    /// Panics if `sigma_ps` is negative/not finite or `repeats == 0`.
    pub fn new(sigma_ps: f64, repeats: usize) -> Self {
        assert!(
            sigma_ps.is_finite() && sigma_ps >= 0.0,
            "probe sigma must be finite and non-negative, got {sigma_ps}"
        );
        assert!(repeats > 0, "probe must take at least one reading");
        Self { sigma_ps, repeats }
    }

    /// An ideal, noise-free probe (useful in tests and as an oracle).
    pub fn noiseless() -> Self {
        Self::new(0.0, 1)
    }

    /// Probe configured from simulation noise parameters, single reading.
    pub fn from_params(noise: &NoiseParams) -> Self {
        Self::new(noise.probe_sigma_ps, 1)
    }

    /// Measures a path whose true delay is `true_delay_ps`, returning the
    /// (averaged) noisy reading in picoseconds.
    ///
    /// The mean of `repeats` independent `N(d, σ²)` readings is exactly
    /// `N(d, σ²/repeats)`, so the averaged reading is taken as one draw
    /// at [`effective_sigma_ps`](Self::effective_sigma_ps): one normal
    /// per measurement whatever the repeat count. A one-repeat reading
    /// is the single `N(d, σ²)` draw it always was.
    pub fn measure_ps<R: Rng + ?Sized>(&self, rng: &mut R, true_delay_ps: f64) -> f64 {
        sample_normal(rng, true_delay_ps, self.effective_sigma_ps())
    }

    /// Effective noise sigma after averaging: `sigma / √repeats`.
    pub fn effective_sigma_ps(&self) -> f64 {
        self.sigma_ps / (self.repeats as f64).sqrt()
    }
}

/// Reusable multi-ring measurement arena: the structure-of-arrays
/// backing store of the §III.B calibration kernel.
///
/// The arena lays out a whole *block* of rings contiguously — all
/// stages × all rings in stage-major order (`[stage * rings + ring]`) —
/// and derives every calibration configuration's true delay for every
/// ring in one pass whose inner loop runs over adjacent memory
/// (autovectorizable). A worker enrolls board after board into the same
/// arena: [`begin_block`] re-uses the allocations and **fully resets**
/// the contents, so no state can leak between boards.
///
/// Rings shorter than the block share it: their unset stages stay
/// `0.0`, and [`ConfigSweep::ring`] hands out a view over only the
/// ring's own `n + 2` configurations.
///
/// Bit-identity contract: each ring × configuration delay is
/// accumulated from `0.0` in stage order — the left-to-right fold a
/// whole-ring walk computes over the same `f64` values. Adding a
/// padded `+0.0` to a positive partial sum is exact, so zero-padding
/// never changes a reading. The layout is an implementation detail;
/// the numbers are the same.
///
/// [`begin_block`]: Self::begin_block
#[derive(Debug, Clone, Default)]
pub struct MeasureArena {
    /// Selected-path contributions, `[stage * rings + ring]`.
    selected_ps: Vec<f64>,
    /// Bypass contributions, `[stage * rings + ring]`.
    bypass_ps: Vec<f64>,
    /// Derived configuration delays, `[config * rings + ring]`; config
    /// `0` = all-selected, `1` = all-bypassed, `2 + k` = leave-one-out
    /// of stage `k`.
    config_ps: Vec<f64>,
    rings: usize,
    stages: usize,
}

impl MeasureArena {
    /// An empty arena; the first [`begin_block`](Self::begin_block)
    /// sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new block of `rings` rings with up to `stages` stages
    /// each, reusing the arena's allocations. Every slot is reset to
    /// zero — a block never observes a previous block's values, and a
    /// shorter ring's unset stages are zero padding.
    ///
    /// # Panics
    ///
    /// Panics if `rings` or `stages` is zero.
    pub fn begin_block(&mut self, rings: usize, stages: usize) {
        assert!(rings > 0, "a block needs at least one ring");
        assert!(stages > 0, "a ring needs at least one stage");
        self.rings = rings;
        self.stages = stages;
        self.selected_ps.clear();
        self.selected_ps.resize(rings * stages, 0.0);
        self.bypass_ps.clear();
        self.bypass_ps.resize(rings * stages, 0.0);
        self.config_ps.clear();
    }

    /// Rings in the current block.
    pub fn rings(&self) -> usize {
        self.rings
    }

    /// Stages per ring in the current block (the longest ring's count).
    pub fn stages(&self) -> usize {
        self.stages
    }

    /// Records stage `stage` of ring `ring`: its selected-path
    /// (`d + d1`) and bypass (`d0`) contributions, picoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `ring` or `stage` is outside the current block.
    pub fn set_stage(&mut self, ring: usize, stage: usize, selected_ps: f64, bypass_ps: f64) {
        assert!(
            ring < self.rings,
            "ring {ring} outside block of {}",
            self.rings
        );
        assert!(
            stage < self.stages,
            "stage {stage} outside ring of {}",
            self.stages
        );
        let idx = stage * self.rings + ring;
        self.selected_ps[idx] = selected_ps;
        self.bypass_ps[idx] = bypass_ps;
    }

    /// Derives all `stages + 2` configuration delays for every ring in
    /// the block and returns a read-only view over them.
    ///
    /// Each configuration row accumulates stage contributions in stage
    /// order starting from `0.0` — the same fold, over the same values,
    /// as a whole-ring walk — while the innermost loop walks adjacent
    /// rings, so the compiler can vectorize it. The leave-one-out rows
    /// are fresh folds (never the tempting `all − selected[k] +
    /// bypass[k]` shortcut, which would change the floating-point
    /// result).
    ///
    /// # Panics
    ///
    /// Panics if no block has been begun.
    pub fn sweep(&mut self) -> ConfigSweep<'_> {
        assert!(self.rings > 0, "begin_block before sweep");
        let (rings, stages) = (self.rings, self.stages);
        let configs = stages + 2;
        self.config_ps.clear();
        self.config_ps.resize(configs * rings, 0.0);
        for c in 0..configs {
            let row = &mut self.config_ps[c * rings..(c + 1) * rings];
            for s in 0..stages {
                // Config 0 selects every stage, config 1 bypasses every
                // stage, config 2 + k bypasses exactly stage k.
                let bypassed = c == 1 || c == s + 2;
                let src = if bypassed {
                    &self.bypass_ps[s * rings..(s + 1) * rings]
                } else {
                    &self.selected_ps[s * rings..(s + 1) * rings]
                };
                for (acc, &d) in row.iter_mut().zip(src) {
                    *acc += d;
                }
            }
        }
        ConfigSweep {
            config_ps: &self.config_ps,
            rings,
            stages,
        }
    }
}

/// Read-only view of one block's derived configuration delays; produced
/// by [`MeasureArena::sweep`].
#[derive(Debug, Clone, Copy)]
pub struct ConfigSweep<'a> {
    config_ps: &'a [f64],
    rings: usize,
    stages: usize,
}

impl ConfigSweep<'_> {
    /// Rings in the block.
    pub fn rings(&self) -> usize {
        self.rings
    }

    /// Stages per ring in the block (the longest ring's count).
    pub fn stages(&self) -> usize {
        self.stages
    }

    /// The sweep of ring `ring`, which has `stages` stages of its own
    /// (at most the block's; the rest of its column is zero padding).
    ///
    /// # Panics
    ///
    /// Panics if `ring` is outside the block or `stages` is zero or
    /// exceeds the block's stage count.
    pub fn ring(&self, ring: usize, stages: usize) -> RingSweep<'_> {
        assert!(
            ring < self.rings,
            "ring {ring} outside block of {}",
            self.rings
        );
        assert!(
            (1..=self.stages).contains(&stages),
            "a {stages}-stage ring does not fit a block of {}",
            self.stages
        );
        RingSweep {
            config_ps: self.config_ps,
            ring,
            rings: self.rings,
            stages,
        }
    }
}

/// One ring's view into a [`ConfigSweep`]: the true delays of its own
/// `n + 2` calibration configurations, backed by the shared arena
/// instead of per-ring allocations.
#[derive(Debug, Clone, Copy)]
pub struct RingSweep<'a> {
    config_ps: &'a [f64],
    ring: usize,
    rings: usize,
    stages: usize,
}

impl RingSweep<'_> {
    /// Stages in the ring.
    pub fn stages(&self) -> usize {
        self.stages
    }

    /// True delay of the all-selected ring.
    pub fn all_selected_ps(&self) -> f64 {
        self.config_ps[self.ring]
    }

    /// True delay of the all-bypassed ring (`B = Σ d0_i`).
    pub fn all_bypassed_ps(&self) -> f64 {
        self.config_ps[self.rings + self.ring]
    }

    /// True delay of the leave-one-out ring: every stage selected
    /// except `skip`.
    ///
    /// # Panics
    ///
    /// Panics if `skip >= stages()`.
    pub fn all_but_ps(&self, skip: usize) -> f64 {
        assert!(
            skip < self.stages,
            "stage {skip} outside ring of {}",
            self.stages
        );
        self.config_ps[(2 + skip) * self.rings + self.ring]
    }
}

/// A gated frequency counter: counts ring transitions during a fixed gate
/// window, yielding a quantized, jitter-corrupted frequency estimate.
///
/// This is the operational measurement instrument — the one the deployed
/// PUF uses to compare two configured rings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrequencyCounter {
    /// Gate window, nanoseconds.
    pub gate_ns: f64,
    /// Relative period jitter (multiplicative Gaussian on the period).
    pub jitter_rel: f64,
}

impl FrequencyCounter {
    /// Counter with the given gate window and jitter.
    ///
    /// # Panics
    ///
    /// Panics if `gate_ns` is not finite and positive or `jitter_rel` is
    /// negative/not finite.
    pub fn new(gate_ns: f64, jitter_rel: f64) -> Self {
        assert!(
            gate_ns.is_finite() && gate_ns > 0.0,
            "gate window must be finite and positive, got {gate_ns}"
        );
        assert!(
            jitter_rel.is_finite() && jitter_rel >= 0.0,
            "jitter must be finite and non-negative, got {jitter_rel}"
        );
        Self {
            gate_ns,
            jitter_rel,
        }
    }

    /// Counter configured from simulation noise parameters.
    pub fn from_params(noise: &NoiseParams) -> Self {
        Self::new(noise.counter_gate_ns, noise.counter_jitter_rel)
    }

    /// An ideal counter with an effectively infinite gate (still
    /// quantized, but negligibly).
    pub fn ideal() -> Self {
        Self::new(1e9, 0.0)
    }

    /// Measures the oscillation frequency (MHz) of a ring whose true
    /// round-trip delay is `ring_delay_ps` picoseconds.
    ///
    /// The ring period is `2 × ring_delay_ps` (one rising and one falling
    /// traversal per cycle). The result is quantized to whole counts
    /// within the gate window.
    ///
    /// # Panics
    ///
    /// Panics if `ring_delay_ps` is not finite and positive.
    pub fn measure_mhz<R: Rng + ?Sized>(&self, rng: &mut R, ring_delay_ps: f64) -> f64 {
        assert!(
            ring_delay_ps.is_finite() && ring_delay_ps > 0.0,
            "ring delay must be finite and positive, got {ring_delay_ps}"
        );
        let period_ps = 2.0 * ring_delay_ps * (1.0 + sample_normal(rng, 0.0, self.jitter_rel));
        let gate_ps = self.gate_ns * 1000.0;
        let count = (gate_ps / period_ps).floor();
        // count cycles in gate_ns ⇒ frequency in MHz = count / gate_us.
        count / (self.gate_ns / 1000.0)
    }

    /// The frequency quantization step (MHz) near frequency `f_mhz`.
    pub fn resolution_mhz(&self) -> f64 {
        1000.0 / self.gate_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn noiseless_probe_is_exact() {
        let probe = DelayProbe::noiseless();
        let mut rng = StdRng::seed_from_u64(0);
        for &d in &[1.0, 123.456, 9999.0] {
            assert_eq!(probe.measure_ps(&mut rng, d), d);
        }
    }

    #[test]
    fn probe_noise_is_unbiased() {
        let probe = DelayProbe::new(2.0, 1);
        let mut rng = StdRng::seed_from_u64(1);
        let n = 50_000;
        let mean: f64 = (0..n)
            .map(|_| probe.measure_ps(&mut rng, 100.0))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 100.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn averaging_reduces_noise() {
        let single = DelayProbe::new(4.0, 1);
        let avg = DelayProbe::new(4.0, 16);
        assert!((avg.effective_sigma_ps() - 1.0).abs() < 1e-12);
        let mut rng = StdRng::seed_from_u64(2);
        let spread = |p: &DelayProbe, rng: &mut StdRng| {
            let xs: Vec<f64> = (0..2000).map(|_| p.measure_ps(rng, 50.0)).collect();
            let m = xs.iter().sum::<f64>() / xs.len() as f64;
            (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
        };
        let s1 = spread(&single, &mut rng);
        let s16 = spread(&avg, &mut rng);
        assert!(s16 < s1 / 2.0, "s1 {s1} s16 {s16}");
    }

    #[test]
    fn arena_sweep_matches_whole_ring_folds_bit_for_bit() {
        let selected = [135.2, 134.1, 136.9];
        let bypass = [30.3, 29.8, 30.1];
        let fold = |skip: Option<usize>, all_bypassed: bool| -> f64 {
            (0..3)
                .map(|i| {
                    if all_bypassed || Some(i) == skip {
                        bypass[i]
                    } else {
                        selected[i]
                    }
                })
                .sum()
        };
        // Ring 0 fills the block; ring 1 is the same 3-stage ring
        // zero-padded into a 5-stage block.
        let mut arena = MeasureArena::new();
        arena.begin_block(2, 5);
        for ring in 0..2 {
            for s in 0..3 {
                arena.set_stage(ring, s, selected[s], bypass[s]);
            }
        }
        for s in 3..5 {
            arena.set_stage(0, s, 140.0, 31.0);
        }
        let sweep = arena.sweep();
        let padded = sweep.ring(1, 3);
        assert_eq!(padded.stages(), 3);
        assert_eq!(
            padded.all_selected_ps().to_bits(),
            fold(None, false).to_bits()
        );
        assert_eq!(
            padded.all_bypassed_ps().to_bits(),
            fold(None, true).to_bits()
        );
        for skip in 0..3 {
            assert_eq!(
                padded.all_but_ps(skip).to_bits(),
                fold(Some(skip), false).to_bits(),
                "skip={skip}"
            );
        }
        let full = sweep.ring(0, 5);
        assert_eq!(
            full.all_selected_ps().to_bits(),
            (fold(None, false) + 140.0 + 140.0).to_bits()
        );
    }

    #[test]
    fn single_stage_sweep_is_well_formed() {
        let mut arena = MeasureArena::new();
        arena.begin_block(1, 1);
        arena.set_stage(0, 0, 135.0, 30.0);
        let sweep = arena.sweep();
        let ring = sweep.ring(0, 1);
        assert_eq!(ring.all_selected_ps(), 135.0);
        assert_eq!(ring.all_bypassed_ps(), 30.0);
        // n = 1: the one leave-one-out ring is the all-bypassed ring.
        assert_eq!(ring.all_but_ps(0), 30.0);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn ring_longer_than_its_block_panics() {
        let mut arena = MeasureArena::new();
        arena.begin_block(1, 2);
        let _ = arena.sweep().ring(0, 3);
    }

    #[test]
    #[should_panic(expected = "outside ring")]
    fn padded_ring_reads_only_its_own_configurations() {
        let mut arena = MeasureArena::new();
        arena.begin_block(1, 4);
        let _ = arena.sweep().ring(0, 2).all_but_ps(2);
    }

    #[test]
    fn counter_frequency_matches_period() {
        // 500 ps ring delay → 1 ns period → 1000 MHz.
        let counter = FrequencyCounter::new(1_000_000.0, 0.0);
        let mut rng = StdRng::seed_from_u64(0);
        let f = counter.measure_mhz(&mut rng, 500.0);
        assert!(
            (f - 1000.0).abs() < counter.resolution_mhz() + 1e-9,
            "f {f}"
        );
    }

    #[test]
    fn counter_quantizes_to_gate_resolution() {
        let counter = FrequencyCounter::new(1000.0, 0.0); // 1 µs gate → 1 MHz steps
        let mut rng = StdRng::seed_from_u64(0);
        let f = counter.measure_mhz(&mut rng, 493.0); // true 1014.19... MHz
        assert_eq!(f, f.round(), "quantized to integer MHz");
        assert!((f - 1014.0).abs() < 1.5);
    }

    #[test]
    fn counter_preserves_ordering_of_well_separated_rings() {
        let counter = FrequencyCounter::new(100_000.0, 2e-5);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            let fast = counter.measure_mhz(&mut rng, 480.0);
            let slow = counter.measure_mhz(&mut rng, 520.0);
            assert!(fast > slow);
        }
    }

    #[test]
    fn ideal_counter_high_resolution() {
        assert!(FrequencyCounter::ideal().resolution_mhz() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "at least one reading")]
    fn zero_repeats_panics() {
        let _ = DelayProbe::new(1.0, 0);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn counter_rejects_zero_delay() {
        let counter = FrequencyCounter::ideal();
        let mut rng = StdRng::seed_from_u64(0);
        let _ = counter.measure_mhz(&mut rng, 0.0);
    }
}
