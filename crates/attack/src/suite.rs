//! One deterministic run of the whole attack catalogue.
//!
//! The suite is the single entry point the `ropuf attack` CLI
//! subcommand, the fleet bench, and the `FleetObservatory` security
//! gauges all share: given a [`SuiteConfig`] it enrolls envelope fleets
//! (guarded, broken, distilled, forced-ties), collects CRP transcripts,
//! runs every attack, and reports each as an [`AttackOutcome`]. The
//! whole report is a pure function of the config — bit-identical across
//! runs and thread counts — so CI can diff it byte-for-byte.

use std::sync::Arc;

use ropuf_core::config::ParityPolicy;
use ropuf_telemetry as telemetry;
use telemetry::json::Value;
use telemetry::MemorySink;

use crate::count_leak::{count_leak, degenerate_distinguisher};
use crate::envelope::{EnvelopeConfig, EnvelopeFleet, Guard};
use crate::gradient::gradient_attack;
use crate::model::{spearman, CorrelationAttack, LinearDelayAttack, LogisticDelayAttack};
use crate::transcript::{Transcript, TranscriptConfig};
use crate::AttackOutcome;

/// Quantization grid (picoseconds) of the forced-ties arm — coarse
/// enough that a substantial fraction of pairs tie exactly.
const FORCED_TIE_QUANTUM_PS: f64 = 25.0;

/// Configuration of one suite run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuiteConfig {
    /// Master seed for every arm (each arm offsets it differently).
    pub seed: u64,
    /// Boards per envelope fleet.
    pub boards: usize,
    /// Delay units per envelope board.
    pub units: usize,
    /// Grid width of the envelope boards.
    pub cols: usize,
    /// Stages per ring (envelopes and transcripts).
    pub stages: usize,
    /// Pairs per board the gradient attacker probes.
    pub probed_pairs: usize,
    /// Boards in the CRP transcript.
    pub crp_boards: usize,
    /// CRPs collected per transcript board.
    pub crps: usize,
    /// Parity policy of enrollment and challenges.
    pub parity: ParityPolicy,
    /// Worker threads (never changes the report).
    pub threads: usize,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        Self {
            seed: 1910_07068, // Wilde et al.
            boards: 16,
            units: 224,
            cols: 16,
            stages: 7,
            probed_pairs: 8,
            crp_boards: 3,
            crps: 400,
            parity: ParityPolicy::Ignore,
            threads: 1,
        }
    }
}

impl SuiteConfig {
    /// The transcript configuration the modeling arms run on — exposed
    /// so callers (the CLI's `--dump-transcript`) can regenerate the
    /// *same* transcript the suite attacked.
    pub fn transcript_config(&self) -> TranscriptConfig {
        TranscriptConfig {
            seed: self.seed.wrapping_add(3),
            boards: self.crp_boards,
            stages: self.stages,
            crps: self.crps,
            parity: self.parity,
            threads: self.threads,
        }
    }

    /// Ring pairs per envelope board (mirrors
    /// [`EnvelopeConfig::pairs_per_board`]).
    pub fn pairs_per_board(&self) -> usize {
        (self.units / 2) / self.stages
    }
}

/// The report of one suite run.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteReport {
    /// The configuration that produced the report.
    pub config: SuiteConfig,
    /// Every attack outcome, in catalogue order.
    pub outcomes: Vec<AttackOutcome>,
    /// Degenerate-pair rate of the forced-ties fleet.
    pub forced_tie_rate: f64,
    /// `select.case2.degenerate` telemetry count during the forced-ties
    /// enrollment (inside view of what the distinguisher sees).
    pub telemetry_degenerate: u64,
    /// `select.case2.degenerate_zero_bias` telemetry count during the
    /// forced-ties enrollment.
    pub telemetry_degenerate_zero_bias: u64,
    /// Mean Spearman ρ between the correlation attack's top-stage
    /// weights and the true top-ring ddiffs — how much of the secret
    /// *ordering* the transcript gave away.
    pub ordering_recovery: f64,
}

impl SuiteReport {
    /// Runs every attack in the catalogue.
    ///
    /// # Panics
    ///
    /// Panics on a configuration no arm can run (no pairs, no probed
    /// pairs left to attack, transcripts shorter than the model's
    /// parameter count).
    pub fn run(config: &SuiteConfig) -> Self {
        let envelopes = |seed_offset: u64, guard, distill, quantize_ps| EnvelopeConfig {
            seed: config.seed.wrapping_add(seed_offset),
            boards: config.boards,
            units: config.units,
            cols: config.cols,
            stages: config.stages,
            parity: config.parity,
            distill,
            quantize_ps,
            guard,
            threads: config.threads,
        };

        // Count-leak arms: the same silicon (same seed offset) enrolled
        // by the guarded kernel and by the broken variant, so the two
        // outcomes differ only in the kernel under attack.
        let guarded = EnvelopeFleet::generate(&envelopes(0, Guard::Guarded, false, None));
        let broken = EnvelopeFleet::generate(&envelopes(0, Guard::Unguarded, false, None));
        let mut count_guarded = count_leak(&guarded);
        count_guarded.name = "count_leak_guarded";
        let mut count_broken = count_leak(&broken);
        count_broken.name = "count_leak_broken";

        // Degenerate distinguisher on the production fleet (feeds the
        // gauge) and on a forced-ties fleet (quantifies the leak the
        // `select.case2.degenerate_zero_bias` counter tracks), with the
        // enrollment's own telemetry harvested for cross-checking.
        let mut degenerate = degenerate_distinguisher(&guarded);
        degenerate.name = "degenerate_clean";
        let sink = Arc::new(MemorySink::default());
        let forced = telemetry::scoped(sink.clone(), || {
            EnvelopeFleet::generate(&envelopes(
                1,
                Guard::Guarded,
                false,
                Some(FORCED_TIE_QUANTUM_PS),
            ))
        });
        let snapshot = sink.snapshot().expect("scoped enrollment flushed");
        let telemetry_degenerate = snapshot.counter("select.case2.degenerate").unwrap_or(0);
        let telemetry_degenerate_zero_bias = snapshot
            .counter("select.case2.degenerate_zero_bias")
            .unwrap_or(0);
        let mut degenerate_forced = degenerate_distinguisher(&forced);
        degenerate_forced.name = "degenerate_forced_ties";

        // Gradient arms: raw enrollment vs the distiller defense, on
        // the same silicon.
        let mut gradient_raw = gradient_attack(
            &EnvelopeFleet::generate(&envelopes(2, Guard::Guarded, false, None)),
            config.probed_pairs,
        );
        gradient_raw.name = "gradient_raw";
        let mut gradient_distilled = gradient_attack(
            &EnvelopeFleet::generate(&envelopes(2, Guard::Guarded, true, None)),
            config.probed_pairs,
        );
        gradient_distilled.name = "gradient_distilled";

        // Modeling arms over one shared transcript, train/test split
        // per board.
        let transcript = Transcript::generate(&config.transcript_config());
        let mut correlation_score = 0.0;
        let mut logistic_score = 0.0;
        let mut linear_score = 0.0;
        let mut model_samples = 0usize;
        let mut rho_sum = 0.0;
        for (board, half) in transcript.split() {
            let (train_c, test_c) = board.challenges.split_at(half);
            let (train_r, test_r) = board.responses.split_at(half);
            let correlation = CorrelationAttack::train(train_c, train_r)
                .expect("suite transcripts exceed two CRPs");
            let logistic = LogisticDelayAttack::train(train_c, train_r)
                .expect("suite transcripts exceed the parameter count");
            let linear = LinearDelayAttack::train(train_c, train_r)
                .expect("suite transcripts exceed the parameter count");
            correlation_score += correlation.accuracy(test_c, test_r) * test_c.len() as f64;
            logistic_score += logistic.accuracy(test_c, test_r) * test_c.len() as f64;
            linear_score += linear.accuracy(test_c, test_r) * test_c.len() as f64;
            model_samples += test_c.len();
            rho_sum += spearman(correlation.top_weights(), &board.true_top_ddiffs).unwrap_or(0.0);
        }
        let correlation =
            AttackOutcome::from_score("correlation_model", correlation_score, model_samples);
        let logistic = AttackOutcome::from_score("logistic_model", logistic_score, model_samples);
        let linear = AttackOutcome::from_score("linear_model", linear_score, model_samples);
        let ordering_recovery = rho_sum / transcript.boards.len().max(1) as f64;

        Self {
            config: *config,
            outcomes: vec![
                count_guarded,
                count_broken,
                degenerate,
                degenerate_forced,
                gradient_raw,
                gradient_distilled,
                correlation,
                logistic,
                linear,
            ],
            forced_tie_rate: forced.degenerate_rate(),
            telemetry_degenerate,
            telemetry_degenerate_zero_bias,
            ordering_recovery,
        }
    }

    /// Looks up an outcome by name.
    pub fn outcome(&self, name: &str) -> Option<&AttackOutcome> {
        self.outcomes.iter().find(|o| o.name == name)
    }

    /// The gauge readings the `FleetObservatory` security catalogue
    /// consumes, as `(gauge name, advantage)` pairs:
    ///
    /// * `attacker_advantage_count_leak` — count leak against the
    ///   *guarded* kernel; anything above 0 says the §III guard broke.
    /// * `attacker_advantage_degenerate` — the degenerate-tie
    ///   distinguisher on the production fleet.
    /// * `attacker_advantage_gradient` — spatial-gradient inference
    ///   against the *distilled* enrollment (the deployed defense).
    /// * `attacker_advantage_broken_guard` — count leak against the
    ///   deliberately broken kernel. A **canary**: it must stay high
    ///   (≈0.5); a drop means the attack harness itself lost its teeth
    ///   and the other three gauges can no longer be trusted.
    pub fn security_readings(&self) -> Vec<(&'static str, f64)> {
        let pick = |name: &str| self.outcome(name).map_or(0.0, |o| o.advantage);
        vec![
            ("attacker_advantage_count_leak", pick("count_leak_guarded")),
            ("attacker_advantage_degenerate", pick("degenerate_clean")),
            ("attacker_advantage_gradient", pick("gradient_distilled")),
            ("attacker_advantage_broken_guard", pick("count_leak_broken")),
        ]
    }

    /// Renders the report as a human-readable table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        // No thread count here: stdout must be byte-identical across
        // `--threads` values so CI can diff runs.
        out.push_str(&format!(
            "attack suite: seed {} | {} boards x {} units | {} stages | {} CRPs x {} boards\n",
            self.config.seed,
            self.config.boards,
            self.config.units,
            self.config.stages,
            self.config.crps,
            self.config.crp_boards,
        ));
        out.push_str(&format!(
            "{:<24} {:>10} {:>10} {:>8}\n",
            "attack", "accuracy", "advantage", "samples"
        ));
        for o in &self.outcomes {
            out.push_str(&format!(
                "{:<24} {:>10.4} {:>+10.4} {:>8}\n",
                o.name, o.accuracy, o.advantage, o.samples
            ));
        }
        out.push_str(&format!(
            "forced-ties: rate {:.4} | telemetry degenerate {} | zero-bias {}\n",
            self.forced_tie_rate, self.telemetry_degenerate, self.telemetry_degenerate_zero_bias
        ));
        out.push_str(&format!(
            "ordering recovery (mean Spearman rho): {:+.4}\n",
            self.ordering_recovery
        ));
        out
    }

    /// Renders the report as a JSON document. Accuracies, advantages
    /// and rates carry the six decimal places the report prints.
    pub fn to_json(&self) -> String {
        let rounded = |x: f64| Value::from(six_places(x));
        let attacks = self.outcomes.iter().map(|o| {
            let key = |field: &str| format!("{}_{field}", o.name);
            let attack = Value::object([
                (key("accuracy"), rounded(o.accuracy)),
                (key("advantage"), rounded(o.advantage)),
                (key("samples"), Value::from(o.samples)),
            ]);
            (o.name, attack)
        });
        let degenerate = self.telemetry_degenerate;
        let zero_bias = self.telemetry_degenerate_zero_bias;
        Value::object([
            ("seed", Value::from(self.config.seed)),
            ("boards", Value::from(self.config.boards)),
            // The thread count is deliberately absent: the document must
            // be byte-identical across `--threads` values for the CI diff.
            ("stages", Value::from(self.config.stages)),
            ("attacks", Value::object(attacks)),
            ("forced_tie_rate", rounded(self.forced_tie_rate)),
            ("telemetry_degenerate", Value::from(degenerate)),
            ("telemetry_degenerate_zero_bias", Value::from(zero_bias)),
            ("ordering_recovery", rounded(self.ordering_recovery)),
        ])
        .to_document()
    }
}

/// `x` rounded to six decimal places: the value its `{:.6}` text reads.
fn six_places(x: f64) -> f64 {
    format!("{x:.6}")
        .parse()
        .expect("Rust reads back its own formatting")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SuiteConfig {
        SuiteConfig {
            boards: 8,
            units: 112,
            cols: 8,
            probed_pairs: 4,
            crp_boards: 2,
            crps: 200,
            threads: 2,
            ..SuiteConfig::default()
        }
    }

    #[test]
    fn suite_covers_the_catalogue_and_separates_guarded_from_broken() {
        let report = SuiteReport::run(&small());
        assert_eq!(report.outcomes.len(), 9);
        let guarded = report.outcome("count_leak_guarded").unwrap();
        let broken = report.outcome("count_leak_broken").unwrap();
        assert_eq!(guarded.accuracy, 0.5, "guard must force abstention");
        assert!(broken.accuracy >= 0.7, "broken got {}", broken.accuracy);
        assert!(report.outcome("logistic_model").unwrap().accuracy > 0.8);
        assert!(report.ordering_recovery > 0.5);
    }

    #[test]
    fn forced_ties_cross_check_telemetry_against_the_distinguisher() {
        let report = SuiteReport::run(&small());
        assert!(report.forced_tie_rate > 0.0, "quantization must force ties");
        // Every degenerate selection the kernel counted resolved to the
        // conventional 0 — the zero-bias counter equals the degenerate
        // counter, and both match the fleet the attacker scored.
        assert_eq!(
            report.telemetry_degenerate,
            report.telemetry_degenerate_zero_bias
        );
        let total = (report.config.boards * report.config.units / 2 / report.config.stages) as f64;
        assert_eq!(
            report.telemetry_degenerate,
            (report.forced_tie_rate * total).round() as u64
        );
        let forced = report.outcome("degenerate_forced_ties").unwrap();
        assert!(
            (forced.advantage - 0.5 * report.forced_tie_rate).abs() < 1e-12,
            "distinguisher advantage {} vs 0.5 x rate {}",
            forced.advantage,
            report.forced_tie_rate
        );
    }

    #[test]
    fn report_is_deterministic_across_thread_counts() {
        let one = SuiteReport::run(&SuiteConfig {
            threads: 1,
            ..small()
        });
        let four = SuiteReport::run(&SuiteConfig {
            threads: 4,
            ..small()
        });
        let mut expect = one.clone();
        expect.config.threads = 4;
        assert_eq!(expect, four);
        // The rendered documents are byte-identical — the thread count
        // never reaches stdout, so CI can diff runs directly.
        assert_eq!(one.to_json(), four.to_json());
        assert_eq!(one.render(), four.render());
    }

    #[test]
    fn security_readings_cover_the_gauge_catalogue() {
        let report = SuiteReport::run(&small());
        let readings = report.security_readings();
        let names: Vec<&str> = readings.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            vec![
                "attacker_advantage_count_leak",
                "attacker_advantage_degenerate",
                "attacker_advantage_gradient",
                "attacker_advantage_broken_guard",
            ]
        );
        let get = |n: &str| readings.iter().find(|(k, _)| *k == n).unwrap().1;
        assert_eq!(get("attacker_advantage_count_leak"), 0.0);
        assert!(
            get("attacker_advantage_broken_guard") > 0.2,
            "canary must stay broken"
        );
    }

    #[test]
    fn render_and_json_name_every_attack() {
        let report = SuiteReport::run(&small());
        let text = report.render();
        let doc = telemetry::json::parse(&report.to_json()).expect("the report is JSON");
        for o in &report.outcomes {
            assert!(text.contains(o.name), "render missing {}", o.name);
            let advantage = doc
                .get("attacks")
                .and_then(|a| a.get(o.name))
                .and_then(|a| a.get(&format!("{}_advantage", o.name)))
                .and_then(telemetry::json::Value::as_f64);
            assert_eq!(advantage, Some(six_places(o.advantage)), "{}", o.name);
        }
        assert!(doc.get("forced_tie_rate").is_some());
    }
}
