//! Fleet-engine benchmark: throughput and parallel speedup of the
//! `ropuf_core::fleet` enrollment/evaluation engine, plus the fleet's
//! uniqueness and per-corner reliability as a sanity check that the
//! parallel path computes the same statistics as the serial reference.
//!
//! `repro fleet` renders the outcome and emits it as `BENCH_fleet.json`.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use ropuf_attack::count_leak::count_leak;
use ropuf_attack::envelope::{EnvelopeConfig, EnvelopeFleet, Guard};
use ropuf_core::config::ParityPolicy;
use ropuf_core::fleet::{parallel_map_indexed, split_seed, FleetConfig, FleetEngine, FleetRun};
use ropuf_core::puf::{ConfigurableRoPuf, EnrollOptions};
use ropuf_core::reenroll::{assess_drift, assessment_corners};
use ropuf_silicon::aging::AgingModel;
use ropuf_silicon::board::BoardId;
use ropuf_silicon::{CornerSet, DelayProbe, Environment, SiliconSim};
use ropuf_telemetry::json::Value;

/// Experiment configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Master seed; every board splits its own streams from it.
    pub seed: u64,
    /// Fleet size.
    pub boards: usize,
    /// Delay units per board.
    pub units: usize,
    /// Stages per ring.
    pub stages: usize,
    /// Worker threads for the parallel run; `None` = auto
    /// (`RAYON_NUM_THREADS` or available parallelism).
    pub threads: Option<usize>,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            seed: 2015,
            boards: 64,
            units: 480,
            stages: 7,
            threads: None,
        }
    }
}

/// Years of BTI drift the corner-objective comparison applies between
/// enrollment and assessment.
const OBJECTIVE_YEARS: f64 = 10.0;

/// Aging-RNG stream of the corner-objective comparison, split off each
/// board seed. Far from the streams `fleet.rs` draws from the same
/// board seed (grow 0 / enroll 1 / corners 2.. and aging `u64::MAX` /
/// faults `u64::MAX - 1`), so sharing the fleet's board derivation
/// cannot correlate this drift with anything the engine measures.
const STREAM_OBJECTIVE_AGING: u64 = u64::MAX - 8;

/// One arm of the corner-objective comparison: the fleet enrolled
/// under one selection objective, then assessed on aged silicon.
#[derive(Debug, Clone, Copy, Default)]
pub struct ObjectiveArm {
    /// Total enrolled bits across the fleet.
    pub bits: usize,
    /// Enrolled pairs whose bit flips (or ties) at some assessment
    /// corner on the aged silicon.
    pub corner_flips: usize,
}

impl ObjectiveArm {
    /// Fraction of enrolled bits that flip at their worst corner
    /// (0 when the arm enrolled no bits).
    pub fn flip_rate(&self) -> f64 {
        if self.bits == 0 {
            0.0
        } else {
            self.corner_flips as f64 / self.bits as f64
        }
    }
}

/// Head-to-head reliability of the two selection objectives on the
/// same fleet: every board is enrolled twice from the same seed — once
/// with the default nominal-only objective, once under
/// [`CornerSet::worst_case`] (min-margin-across-corners) — then aged
/// `OBJECTIVE_YEARS` (10) years, and each arm's enrolled bits are
/// re-derived noiselessly at the worst-case corner set. The
/// multi-corner arm pays bits for margin, and this comparison is the
/// receipt: its worst-corner flip rate must sit strictly below the
/// nominal-only arm's, which is the inequality `check-bench` gates.
#[derive(Debug, Clone, Copy, Default)]
pub struct CornerObjective {
    /// Years of drift applied before assessment.
    pub years: f64,
    /// The fleet enrolled with `EnrollOptions::default()`.
    pub nominal: ObjectiveArm,
    /// The fleet enrolled under `CornerSet::worst_case()`.
    pub multi_corner: ObjectiveArm,
}

/// Measures [`CornerObjective`] on the benchmark fleet. Boards are
/// derived exactly as the fleet engine derives them (same per-board
/// seed, grow stream, and floorplan), so the comparison speaks about
/// the same silicon the headline passes enrolled. Deterministic in
/// `config.seed`: assessment is noiseless and the per-board sums are
/// order-independent.
fn compare_corner_objectives(config: &Config, threads: usize) -> CornerObjective {
    let sim = SiliconSim::default_spartan();
    let tech = *sim.technology();
    let env = Environment::nominal();
    let puf = ConfigurableRoPuf::tiled_interleaved(config.units, config.stages);
    let corners = assessment_corners(env);
    let multi_opts = EnrollOptions {
        corners: CornerSet::worst_case(),
        ..EnrollOptions::default()
    };
    let per_board = parallel_map_indexed(config.boards, threads, |b| {
        let board_seed = split_seed(config.seed, b as u64);
        let mut grow_rng = StdRng::seed_from_u64(split_seed(board_seed, 0));
        let board = sim.grow_board_with_id(&mut grow_rng, BoardId(b as u32), config.units, 16);
        let mut age_rng = StdRng::seed_from_u64(split_seed(board_seed, STREAM_OBJECTIVE_AGING));
        // A decade of the default BTI model: both objectives hold
        // every corner noiselessly on fresh silicon, so the comparison
        // needs enough drift for margins to start mattering — and not
        // so much (the pessimistic test-corner model) that random
        // drift swamps the margin difference between the arms.
        let aged = AgingModel::default().age_board(&mut age_rng, &board, OBJECTIVE_YEARS);
        [EnrollOptions::default(), multi_opts].map(|opts| {
            let enrollment =
                puf.enroll_seeded(split_seed(board_seed, 1), &board, &tech, env, &opts);
            let assessment = assess_drift(&enrollment, &aged, &tech, &corners);
            ObjectiveArm {
                bits: assessment.bits,
                corner_flips: assessment.corner_flips,
            }
        })
    });
    let mut out = CornerObjective {
        years: OBJECTIVE_YEARS,
        ..CornerObjective::default()
    };
    for [nominal, multi] in per_board {
        out.nominal.bits += nominal.bits;
        out.nominal.corner_flips += nominal.corner_flips;
        out.multi_corner.bits += multi.bits;
        out.multi_corner.corner_flips += multi.corner_flips;
    }
    out
}

/// Headline figures of the §III count-leak attack, run against the
/// real guarded Case-2 kernel and the deliberately unguarded variant
/// on the same silicon. The guarded advantage is a security claim of
/// the committed record (`check-bench` fails it above a ceiling); the
/// broken advantage is the canary proving the attack itself still has
/// teeth (the gate fails it *below* a floor, so a suite that silently
/// stopped attacking cannot pass as "secure").
#[derive(Debug, Clone, Copy, Default)]
pub struct AttackHeadline {
    /// Count-leak advantage over coin-flipping against the guarded
    /// kernel (exactly 0: the attacker abstains on equal counts).
    pub guarded_advantage: f64,
    /// The same attack's advantage against the unguarded kernel.
    pub broken_advantage: f64,
    /// Raw accuracy against the unguarded kernel.
    pub broken_accuracy: f64,
    /// Envelopes each arm attacked.
    pub samples: usize,
}

/// Shape of the attack-headline envelope fleet. Fixed rather than
/// derived from the benchmark floorplan: the attack figures are a
/// security claim about the selection kernel, not a throughput claim
/// about the fleet size, and a fixed shape keeps the committed numbers
/// comparable across `--boards` overrides.
const ATTACK_BOARDS: usize = 16;
const ATTACK_UNITS: usize = 84;
const ATTACK_COLS: usize = 7;
const ATTACK_STAGES: usize = 7;

/// Measures [`AttackHeadline`] by enrolling the same silicon under
/// both kernels and running the count-leak attack on each envelope
/// fleet. Deterministic in `config.seed` and thread-invariant
/// (envelope generation fans out with `parallel_map_indexed`).
fn measure_attack_headline(config: &Config, threads: usize) -> AttackHeadline {
    let envelope_config = |guard| EnvelopeConfig {
        seed: config.seed,
        boards: ATTACK_BOARDS,
        units: ATTACK_UNITS,
        cols: ATTACK_COLS,
        stages: ATTACK_STAGES,
        parity: ParityPolicy::Ignore,
        distill: false,
        quantize_ps: None,
        guard,
        threads,
    };
    let guarded = count_leak(&EnvelopeFleet::generate(&envelope_config(Guard::Guarded)));
    let broken = count_leak(&EnvelopeFleet::generate(&envelope_config(Guard::Unguarded)));
    AttackHeadline {
        guarded_advantage: guarded.advantage,
        broken_advantage: broken.advantage,
        broken_accuracy: broken.accuracy,
        samples: guarded.samples,
    }
}

/// One point of the thread-scaling sweep: the fleet evaluated at an
/// explicit worker count.
#[derive(Debug, Clone, Copy)]
pub struct CurvePoint {
    /// Worker threads requested for this point.
    pub threads: usize,
    /// Wall-clock of the pass, seconds.
    pub secs: f64,
    /// Speedup relative to the sweep's own 1-thread point.
    pub speedup: f64,
}

/// Measured outcome of one fleet benchmark.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Boards evaluated.
    pub boards: usize,
    /// Bits per board (pair count of the shared floorplan).
    pub bits_per_board: usize,
    /// Threads the parallel run used.
    pub threads: usize,
    /// CPU cores available to this run
    /// (`std::thread::available_parallelism`). Recorded so scaling
    /// gates can judge the speedup curve against what the hardware
    /// could possibly deliver: an 8-thread sweep on a 1-core box
    /// cannot beat 1×, and that is not a regression.
    pub cores: usize,
    /// Serial reference wall-clock.
    pub serial: Duration,
    /// Parallel run wall-clock.
    pub parallel: Duration,
    /// Parallel boards per second.
    pub boards_per_sec: f64,
    /// Serial time / parallel time.
    pub speedup: f64,
    /// Wall-clock at explicit 1/2/4/8-thread runs, each relative to
    /// the 1-thread point. Measured with `run_on`, so a CI
    /// `RAYON_NUM_THREADS` pin cannot flatten it.
    pub speedup_curve: Vec<CurvePoint>,
    /// Whether the parallel records matched the serial reference
    /// bit-for-bit (must always be true).
    pub deterministic: bool,
    /// Mean normalized inter-chip Hamming distance (ideal 0.5).
    pub uniqueness: Option<f64>,
    /// Response corners and the mean flip rate at each.
    pub corners: Vec<(Environment, f64)>,
    /// Worst-corner flip rates of the aged fleet under nominal-only vs
    /// multi-corner enrollment.
    pub corner_objective: CornerObjective,
    /// Count-leak attack advantages against the guarded and unguarded
    /// selection kernels.
    pub attack: AttackHeadline,
}

impl Outcome {
    /// Renders the outcome as a human-readable block.
    pub fn render(&self) -> String {
        let mut out = format!(
            "fleet: {} boards x {} bits\n\
             serial   {:>10.2?}\n\
             parallel {:>10.2?}  ({} threads, {:.1} boards/sec)\n\
             speedup  {:.2}x\n\
             deterministic (parallel == serial): {}\n\
             uniqueness (normalized inter-chip HD): {}\n",
            self.boards,
            self.bits_per_board,
            self.serial,
            self.parallel,
            self.threads,
            self.boards_per_sec,
            self.speedup,
            if self.deterministic { "yes" } else { "NO" },
            self.uniqueness
                .map_or("n/a".to_string(), |u| format!("{u:.4}")),
        );
        if !self.speedup_curve.is_empty() {
            let points = self
                .speedup_curve
                .iter()
                .map(|p| format!("{}t {:.2}x", p.threads, p.speedup))
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!(
                "scaling ({} cores): {} (vs the sweep's own 1-thread pass)\n",
                self.cores, points
            ));
        }
        for (env, rate) in &self.corners {
            out.push_str(&format!("flip rate at {env}: {:.4}\n", rate));
        }
        out.push_str(&format!(
            "worst-corner flip rate after {:.0}y drift: nominal-only {:.4} \
             ({} bits), multi-corner {:.4} ({} bits)\n",
            self.corner_objective.years,
            self.corner_objective.nominal.flip_rate(),
            self.corner_objective.nominal.bits,
            self.corner_objective.multi_corner.flip_rate(),
            self.corner_objective.multi_corner.bits,
        ));
        out.push_str(&format!(
            "count-leak attack (§III guard, {} envelopes/arm): guarded advantage \
             {:+.4}, unguarded advantage {:+.4} (accuracy {:.4})\n",
            self.attack.samples,
            self.attack.guarded_advantage,
            self.attack.broken_advantage,
            self.attack.broken_accuracy,
        ));
        out
    }

    /// Serializes the outcome as the `BENCH_fleet.json` document.
    pub fn to_json(&self) -> String {
        let curve = self.speedup_curve.iter().map(|p| {
            Value::object([
                ("threads", Value::from(p.threads)),
                ("secs", Value::from(p.secs)),
                ("speedup", Value::from(p.speedup)),
            ])
        });
        let corners = self.corners.iter().map(|(env, rate)| {
            Value::object([
                ("voltage_v", Value::from(env.voltage_v)),
                ("temperature_c", Value::from(env.temperature_c)),
                ("flip_rate", Value::from(*rate)),
            ])
        });
        let nominal = &self.corner_objective.nominal;
        let multi = &self.corner_objective.multi_corner;
        let objective = Value::object([
            ("years", Value::from(self.corner_objective.years)),
            ("bits_nominal", Value::from(nominal.bits)),
            ("corner_flips_nominal", Value::from(nominal.corner_flips)),
            (
                "worst_corner_flip_rate_nominal",
                Value::from(nominal.flip_rate()),
            ),
            ("bits_multi_corner", Value::from(multi.bits)),
            ("corner_flips_multi_corner", Value::from(multi.corner_flips)),
            (
                "worst_corner_flip_rate_multi_corner",
                Value::from(multi.flip_rate()),
            ),
        ]);
        let attack = &self.attack;
        let attack = Value::object([
            ("attack_samples", Value::from(attack.samples)),
            (
                "attacker_advantage_guarded",
                Value::from(attack.guarded_advantage),
            ),
            (
                "attacker_advantage_broken",
                Value::from(attack.broken_advantage),
            ),
            (
                "attacker_accuracy_broken",
                Value::from(attack.broken_accuracy),
            ),
        ]);
        Value::object([
            ("boards", Value::from(self.boards)),
            ("bits_per_board", Value::from(self.bits_per_board)),
            ("threads", Value::from(self.threads)),
            ("cores", Value::from(self.cores)),
            ("serial_secs", Value::from(self.serial.as_secs_f64())),
            ("parallel_secs", Value::from(self.parallel.as_secs_f64())),
            ("boards_per_sec", Value::from(self.boards_per_sec)),
            ("speedup", Value::from(self.speedup)),
            ("speedup_curve", Value::Array(curve.collect())),
            ("deterministic", Value::from(self.deterministic)),
            ("uniqueness", Value::from(self.uniqueness)),
            ("corners", Value::Array(corners.collect())),
            ("corner_objective", objective),
            ("attack", attack),
        ])
        .to_document()
    }
}

/// Thread counts the scaling sweep visits.
const CURVE_THREADS: [usize; 4] = [1, 2, 4, 8];

/// Runs the benchmark: one serial reference pass, one parallel pass, a
/// bit-level comparison of the two, and an explicit 1/2/4/8-thread
/// scaling sweep.
///
/// Every pass is timed **without** a telemetry sink, so a sink's
/// overhead never lands in `speedup` or the scaling curve.
pub fn run(config: &Config) -> Outcome {
    let fleet_config = FleetConfig {
        boards: config.boards,
        units: config.units,
        stages: config.stages,
        opts: EnrollOptions::default(),
        corners: vec![
            Environment::nominal(),
            Environment::new(0.98, 25.0),
            Environment::new(1.20, 65.0),
        ],
        response_probe: DelayProbe::new(0.25, 1),
        threads: config.threads,
        ..FleetConfig::default()
    };
    let corners = fleet_config.corners.clone();
    let engine = FleetEngine::new(SiliconSim::default_spartan(), fleet_config)
        .expect("benchmark fleet config is valid");
    let threads = engine.resolved_threads();
    let serial: FleetRun = engine.run_serial(config.seed);
    let parallel: FleetRun = engine.run_on(config.seed, threads);
    // Scaling sweep at explicit worker counts (immune to a CI
    // RAYON_NUM_THREADS pin), each point relative to the sweep's own
    // 1-thread pass.
    let mut speedup_curve = Vec::with_capacity(CURVE_THREADS.len());
    let mut one_thread_secs = f64::NAN;
    for &t in &CURVE_THREADS {
        let pass = engine.run_on(config.seed, t);
        let secs = pass.elapsed.as_secs_f64();
        if t == 1 {
            one_thread_secs = secs;
        }
        speedup_curve.push(CurvePoint {
            threads: t,
            secs,
            speedup: one_thread_secs / secs.max(1e-12),
        });
    }
    let corner_objective = compare_corner_objectives(config, threads);
    let attack = measure_attack_headline(config, threads);
    let speedup = serial.elapsed.as_secs_f64() / parallel.elapsed.as_secs_f64().max(1e-12);
    Outcome {
        boards: config.boards,
        bits_per_board: engine.puf().pair_count(),
        threads: parallel.threads,
        cores: std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        serial: serial.elapsed,
        parallel: parallel.elapsed,
        boards_per_sec: parallel.boards_per_sec(),
        speedup,
        speedup_curve,
        deterministic: parallel.records == serial.records,
        uniqueness: parallel.uniqueness(),
        corners: corners
            .into_iter()
            .zip(parallel.corner_flip_rates())
            .collect(),
        corner_objective,
        attack,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ropuf_core::fleet::worker_threads;

    /// The outcome's record, parsed back.
    fn record(out: &Outcome) -> Value {
        ropuf_telemetry::json::parse(&out.to_json()).expect("the record is JSON")
    }

    /// The scaling sweep visits every advertised thread count, anchors
    /// itself at the 1-thread pass, and records the machine's core
    /// count — everything a cores-aware `check-bench` scaling gate
    /// needs.
    #[test]
    fn scaling_curve_is_recorded_and_anchored() {
        let out = run(&Config {
            boards: 8,
            units: 80,
            stages: 4,
            threads: Some(2),
            ..Config::default()
        });
        assert_eq!(
            out.speedup_curve
                .iter()
                .map(|p| p.threads)
                .collect::<Vec<_>>(),
            CURVE_THREADS.to_vec()
        );
        assert_eq!(out.speedup_curve[0].speedup, 1.0, "1-thread anchor");
        assert!(out.speedup_curve.iter().all(|p| p.secs > 0.0));
        assert!(out.cores >= 1);
        let doc = record(&out);
        let curve = doc
            .get("speedup_curve")
            .and_then(Value::as_array)
            .expect("curve");
        assert_eq!(curve.len(), CURVE_THREADS.len());
        assert_eq!(curve[0].get("threads").and_then(Value::as_u64), Some(1));
        assert_eq!(curve[0].get("speedup").and_then(Value::as_f64), Some(1.0));
        assert_eq!(
            doc.get("cores").and_then(Value::as_u64),
            Some(out.cores as u64)
        );
        assert!(out.render().contains("scaling ("));
    }

    /// The multi-corner objective is only worth its bit cost if the
    /// aged fleet's worst-corner flip rate actually drops; the
    /// comparison must show that even on the small test fleet.
    #[test]
    fn corner_objective_comparison_favors_multi_corner_enrollment() {
        // The real benchmark floorplan at a reduced fleet: the tiny
        // shapes the other tests use leave both arms' flip counts at
        // noise level, where the inequality is not yet a property.
        let config = Config {
            boards: 64,
            threads: Some(2),
            ..Config::default()
        };
        let a = compare_corner_objectives(&config, 2);
        let b = compare_corner_objectives(&config, 1);
        assert_eq!(a.nominal.bits, b.nominal.bits, "thread-count invariant");
        assert_eq!(a.multi_corner.corner_flips, b.multi_corner.corner_flips);
        assert!(a.nominal.bits > 0);
        assert!(a.multi_corner.bits > 0);
        assert!(
            a.nominal.flip_rate() > 0.0,
            "nominal-only enrollment must flip somewhere at the corners, got {a:?}"
        );
        assert!(
            a.multi_corner.flip_rate() < a.nominal.flip_rate(),
            "multi-corner must beat nominal-only: {a:?}"
        );
    }

    /// The corner-objective figures must reach the record so
    /// `check-bench` can gate the inequality from the baseline file.
    #[test]
    fn corner_objective_fields_reach_the_json_and_render() {
        let out = run(&Config {
            boards: 8,
            units: 80,
            stages: 4,
            threads: Some(2),
            ..Config::default()
        });
        let doc = record(&out);
        let objective = doc.get("corner_objective").expect("corner_objective");
        let rate = |key: &str| objective.get(key).and_then(Value::as_f64);
        assert_eq!(
            rate("worst_corner_flip_rate_nominal"),
            Some(out.corner_objective.nominal.flip_rate())
        );
        assert_eq!(
            rate("worst_corner_flip_rate_multi_corner"),
            Some(out.corner_objective.multi_corner.flip_rate())
        );
        assert!(out
            .render()
            .contains("worst-corner flip rate after 10y drift"));
    }

    /// The attack headline must hold the §III claim on the benchmark
    /// seed — guarded advantage exactly 0, unguarded cleanly broken —
    /// and be thread-invariant so the committed record does not depend
    /// on the machine that measured it.
    #[test]
    fn attack_headline_separates_the_kernels_and_ignores_threads() {
        let config = Config::default();
        let one = measure_attack_headline(&config, 1);
        let four = measure_attack_headline(&config, 4);
        assert_eq!(one.guarded_advantage, four.guarded_advantage);
        assert_eq!(one.broken_advantage, four.broken_advantage);
        assert_eq!(one.samples, four.samples);
        assert_eq!(
            one.guarded_advantage, 0.0,
            "the equal-count guard makes the attacker abstain on every envelope"
        );
        assert!(one.broken_accuracy >= 0.7, "{one:?}");
        assert!(one.broken_advantage >= 0.2, "{one:?}");
        assert_eq!(
            one.samples,
            ATTACK_BOARDS * (ATTACK_UNITS / 2 / ATTACK_STAGES)
        );
    }

    /// The attack figures must reach the record so `check-bench` can
    /// gate both arms from the baseline file.
    #[test]
    fn attack_fields_reach_the_json_and_render() {
        let out = run(&Config {
            boards: 8,
            units: 80,
            stages: 4,
            threads: Some(2),
            ..Config::default()
        });
        let doc = record(&out);
        let attack = doc.get("attack").expect("attack");
        let field = |key: &str| attack.get(key).and_then(Value::as_f64);
        assert_eq!(field("attacker_advantage_guarded"), Some(0.0));
        assert_eq!(
            field("attacker_advantage_broken"),
            Some(out.attack.broken_advantage)
        );
        assert_eq!(
            field("attacker_accuracy_broken"),
            Some(out.attack.broken_accuracy)
        );
        assert_eq!(field("attack_samples"), Some(out.attack.samples as f64));
        assert!(out.render().contains("count-leak attack"));
    }

    /// The recorded thread count must be the count the parallel pass
    /// actually resolved to — not the requested `Option` and never a
    /// hardcoded `1` — so `parallel_secs` in `BENCH_fleet.json` is
    /// always attributable to a concrete worker count.
    #[test]
    fn outcome_records_the_resolved_thread_count() {
        let explicit = run(&Config {
            boards: 4,
            units: 80,
            stages: 4,
            threads: Some(3),
            ..Config::default()
        });
        assert_eq!(explicit.threads, 3);
        assert_eq!(
            record(&explicit).get("threads").and_then(Value::as_u64),
            Some(3)
        );
        let auto = run(&Config {
            boards: 4,
            units: 80,
            stages: 4,
            threads: None,
            ..Config::default()
        });
        assert_eq!(auto.threads, worker_threads());
    }
}
