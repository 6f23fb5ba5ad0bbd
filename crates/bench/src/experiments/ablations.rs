//! Ablation studies for the design choices `DESIGN.md` calls out.
//!
//! * [`distiller`] — randomness and uniqueness with and without the
//!   regression distiller (the paper's "raw data fails NIST" remark,
//!   quantified).
//! * [`parity`] — cost of the hardware-faithful odd-count oscillation
//!   constraint on selection margins.
//! * [`noise`] — calibration and selection quality versus probe
//!   measurement noise (the paper's claim that only relative speed
//!   matters).
//! * [`config_point`] — flip rate as a function of the sweep point the
//!   PUF was configured at (Figure 4, observation 4, isolated).
//! * [`layout`] — blocked versus interleaved pair placement and its
//!   effect on fleet-level bit correlation.
//! * [`ecc`] — the repetition-code overhead each scheme needs for a
//!   reliable 128-bit key (§III.C's "eliminate the cost of ECC" claim).
//! * [`aging`] — flip rates after years of simulated BTI drift, the
//!   lifetime counterpart of Figure 4's environmental sweep.
//! * [`baselines`] — the §II four-scheme comparison: bits, hardware
//!   utilization, and worst-corner flip rate on identical silicon.
//! * [`defects`] — yield and reliability under injected fabrication
//!   defects with ddiff plausibility screening (§III.C's "we don't have
//!   to use the PUF bit from this pair", applied to broken silicon).

use rand::rngs::StdRng;
use rand::SeedableRng;
use ropuf_core::calibrate::calibrate;
use ropuf_core::config::ParityPolicy;
use ropuf_core::puf::{ConfigurableRoPuf, EnrollOptions, SelectionMode};
use ropuf_core::ro::ConfigurableRo;
use ropuf_metrics::hamming::HdStats;
use ropuf_num::bits::BitVec;
use ropuf_silicon::board::BoardId;
use ropuf_silicon::{DelayProbe, Environment, SiliconSim};

use crate::experiments::{randomness, reliability};
use crate::render;

/// Distiller ablation result.
#[derive(Debug, Clone)]
pub struct DistillerOutcome {
    /// NIST verdict and HD spread with the distiller.
    pub distilled: (bool, HdStats),
    /// NIST verdict and HD spread without it.
    pub raw: (bool, HdStats),
}

impl DistillerOutcome {
    /// Renders the comparison.
    pub fn render(&self) -> String {
        let row = |name: &str, (pass, stats): &(bool, HdStats)| {
            vec![
                name.to_string(),
                if *pass { "PASS" } else { "FAIL" }.to_string(),
                format!("{:.2}", stats.mean_bits),
                format!("{:.2}", stats.std_dev_bits),
            ]
        };
        format!(
            "distiller ablation (n = 5 streams):\n{}",
            render::table(
                &["variant", "NIST", "HD mean", "HD sigma"],
                &[row("distilled", &self.distilled), row("raw", &self.raw)],
            )
        )
    }
}

/// Runs the distiller ablation.
pub fn distiller(seed: u64, boards: usize) -> DistillerOutcome {
    let evaluate = |distill: bool| {
        let out = randomness::run(&randomness::Config {
            seed,
            boards,
            distill,
            ..randomness::Config::default()
        });
        let data = crate::fleet::paper_fleet(seed, boards);
        let streams = crate::fleet::paired_streams(&crate::fleet::board_bits(
            &data,
            5,
            SelectionMode::Case1,
            distill,
        ));
        (
            out.report.all_passed(),
            HdStats::of_fleet(&streams).expect("streams"),
        )
    };
    DistillerOutcome {
        distilled: evaluate(true),
        raw: evaluate(false),
    }
}

/// Parity ablation result.
#[derive(Debug, Clone)]
pub struct ParityOutcome {
    /// `(stages, mean margin with Ignore, mean margin with ForceOdd)`.
    pub rows: Vec<(usize, f64, f64)>,
}

impl ParityOutcome {
    /// Mean relative margin cost of ForceOdd at each n.
    pub fn relative_costs(&self) -> Vec<f64> {
        self.rows
            .iter()
            .map(|(_, ig, odd)| 1.0 - odd / ig)
            .collect()
    }

    /// Renders the comparison.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|(n, ig, odd)| {
                vec![
                    n.to_string(),
                    format!("{ig:.2}"),
                    format!("{odd:.2}"),
                    render::pct(1.0 - odd / ig),
                ]
            })
            .collect();
        format!(
            "oscillation-parity ablation (mean selection margin, ps):\n{}",
            render::table(&["n", "Ignore", "ForceOdd", "cost"], &rows)
        )
    }
}

/// Runs the parity ablation on simulated silicon.
pub fn parity(seed: u64) -> ParityOutcome {
    let sim = SiliconSim::default_spartan();
    let rows = [3usize, 5, 7, 9, 13]
        .iter()
        .map(|&n| {
            let mut margins = [0.0f64; 2];
            for (slot, parity) in [ParityPolicy::Ignore, ParityPolicy::ForceOdd]
                .into_iter()
                .enumerate()
            {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut total = 0.0;
                let mut count = 0usize;
                for b in 0..6 {
                    let board = sim.grow_board_with_id(&mut rng, BoardId(b), 2 * n * 16, 16);
                    let puf = ConfigurableRoPuf::tiled(board.len(), n);
                    let e = puf.enroll(
                        &mut rng,
                        &board,
                        sim.technology(),
                        Environment::nominal(),
                        &EnrollOptions {
                            parity,
                            probe: DelayProbe::noiseless(),
                            ..EnrollOptions::default()
                        },
                    );
                    total += e.margins_ps().iter().sum::<f64>();
                    count += e.bit_count();
                }
                margins[slot] = total / count as f64;
            }
            (n, margins[0], margins[1])
        })
        .collect();
    ParityOutcome { rows }
}

/// Noise ablation result.
#[derive(Debug, Clone)]
pub struct NoiseOutcome {
    /// Per probe sigma: `(sigma_ps, ddiff RMS error, fraction of pairs
    /// whose selected configuration changed vs noiseless, mean margin
    /// ratio vs noiseless)`.
    pub rows: Vec<(f64, f64, f64, f64)>,
}

impl NoiseOutcome {
    /// Renders the sweep.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|(s, rms, changed, ratio)| {
                vec![
                    format!("{s:.2}"),
                    format!("{rms:.3}"),
                    render::pct(*changed),
                    format!("{ratio:.3}"),
                ]
            })
            .collect();
        format!(
            "measurement-noise ablation:\n{}",
            render::table(
                &[
                    "probe sigma (ps)",
                    "ddiff RMS err",
                    "config changed",
                    "margin ratio"
                ],
                &rows
            )
        )
    }
}

/// Runs the noise ablation: how badly does probe noise corrupt
/// calibration and the resulting selections?
pub fn noise(seed: u64) -> NoiseOutcome {
    let sim = SiliconSim::default_spartan();
    let n = 7;
    let pairs = 32;
    let mut rng = StdRng::seed_from_u64(seed);
    let board = sim.grow_board_with_id(&mut rng, BoardId(0), 2 * n * pairs, 16);
    let puf = ConfigurableRoPuf::tiled(board.len(), n);
    let env = Environment::nominal();

    let enroll = |sigma: f64, rng: &mut StdRng| {
        puf.enroll(
            rng,
            &board,
            sim.technology(),
            env,
            &EnrollOptions {
                probe: DelayProbe::new(sigma, 1),
                parity: ParityPolicy::Ignore,
                ..EnrollOptions::default()
            },
        )
    };
    let mut clean_rng = StdRng::seed_from_u64(seed + 1);
    let clean = enroll(0.0, &mut clean_rng);
    let clean_margin: f64 = clean.margins_ps().iter().sum::<f64>() / clean.bit_count() as f64;

    let rows = [0.0f64, 0.1, 0.25, 0.5, 1.0, 2.0]
        .iter()
        .map(|&sigma| {
            let mut rng = StdRng::seed_from_u64(seed + 2);
            // ddiff RMS error over the board's rings.
            let probe = DelayProbe::new(sigma, 1);
            let mut sq = 0.0;
            let mut count = 0usize;
            for spec in puf.specs() {
                let ro = ConfigurableRo::try_new(&board, spec.top().to_vec())
                    .expect("floorplan fits the board");
                let cal = calibrate(&mut rng, &ro, &probe, env, sim.technology());
                for (e, t) in cal
                    .ddiffs_ps()
                    .iter()
                    .zip(ro.true_ddiffs_ps(env, sim.technology()))
                {
                    sq += (e - t) * (e - t);
                    count += 1;
                }
            }
            let rms = (sq / count as f64).sqrt();

            let noisy = enroll(sigma, &mut rng);
            let changed = clean
                .pairs()
                .iter()
                .zip(noisy.pairs())
                .filter(|(a, b)| match (a, b) {
                    (Some(a), Some(b)) => {
                        a.top_config() != b.top_config() || a.bottom_config() != b.bottom_config()
                    }
                    _ => true,
                })
                .count() as f64
                / clean.pairs().len() as f64;
            // Margin the noisy configuration actually achieves (true
            // ring delays, not the noisy estimate).
            let achieved: f64 = noisy
                .pairs()
                .iter()
                .flatten()
                .map(|p| {
                    noisy
                        .spec(p)
                        .bind(&board)
                        .delay_difference_ps(
                            p.top_config(),
                            p.bottom_config(),
                            env,
                            sim.technology(),
                        )
                        .abs()
                })
                .sum::<f64>()
                / noisy.bit_count() as f64;
            (sigma, rms, changed, achieved / clean_margin)
        })
        .collect();
    NoiseOutcome { rows }
}

/// Configuration-point ablation: the Figure-4 observation that the
/// mid-sweep configuration voltage minimizes flips, isolated.
#[derive(Debug, Clone)]
pub struct ConfigPointOutcome {
    /// Mean flip fraction per configuration point (ascending sweep).
    pub mean_by_point: [f64; 5],
}

impl ConfigPointOutcome {
    /// Renders the five bars.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .mean_by_point
            .iter()
            .enumerate()
            .map(|(i, v)| vec![format!("point {}", i + 1), render::pct(*v)])
            .collect();
        format!(
            "configuration-point ablation (voltage sweep, n = 5):\n{}",
            render::table(&["configured at", "mean flip rate"], &rows)
        )
    }
}

/// Runs the configuration-point ablation.
pub fn config_point(seed: u64, boards: usize) -> ConfigPointOutcome {
    let data = crate::fleet::paper_fleet(seed, boards);
    let out = reliability::run_on(
        &data,
        &reliability::Config {
            seed,
            sweep: reliability::Sweep::Voltage,
            stages_list: vec![5],
            mode: SelectionMode::Case1,
        },
    );
    ConfigPointOutcome {
        mean_by_point: out.mean_by_config_point(),
    }
}

/// Layout ablation result.
#[derive(Debug, Clone)]
pub struct LayoutOutcome {
    /// HD statistics of the blocked floorplan's fleet bits.
    pub blocked: HdStats,
    /// HD statistics of the interleaved floorplan's fleet bits.
    pub interleaved: HdStats,
}

impl LayoutOutcome {
    /// Renders the comparison.
    pub fn render(&self) -> String {
        let row = |name: &str, s: &HdStats| {
            vec![
                name.to_string(),
                format!("{:.2}", s.mean_bits),
                format!("{:.2}", s.std_dev_bits),
                format!("{:.3}", s.normalized_mean()),
            ]
        };
        format!(
            "pair-layout ablation ({} bits per device):\n{}",
            self.blocked.response_bits,
            render::table(
                &["layout", "HD mean", "HD sigma", "normalized"],
                &[
                    row("blocked", &self.blocked),
                    row("interleaved", &self.interleaved)
                ],
            )
        )
    }
}

/// Runs the layout ablation on a simulated fleet.
pub fn layout(seed: u64, devices: usize) -> LayoutOutcome {
    let sim = SiliconSim::default_spartan();
    let mut rng = StdRng::seed_from_u64(seed);
    let units = 320;
    let boards: Vec<_> = (0..devices as u32)
        .map(|i| sim.grow_board_with_id(&mut rng, BoardId(i), units, 16))
        .collect();
    let opts = EnrollOptions {
        probe: DelayProbe::noiseless(),
        ..EnrollOptions::default()
    };
    let collect = |puf: &ConfigurableRoPuf, rng: &mut StdRng| -> Vec<BitVec> {
        boards
            .iter()
            .map(|b| {
                puf.enroll(rng, b, sim.technology(), Environment::nominal(), &opts)
                    .expected_bits()
            })
            .collect()
    };
    let blocked = collect(&ConfigurableRoPuf::tiled(units, 5), &mut rng);
    let interleaved = collect(&ConfigurableRoPuf::tiled_interleaved(units, 5), &mut rng);
    LayoutOutcome {
        blocked: HdStats::of_fleet(&blocked).expect("fleet"),
        interleaved: HdStats::of_fleet(&interleaved).expect("fleet"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distiller_ablation_separates_variants() {
        let out = distiller(3, 30);
        assert!(out.distilled.0, "distilled should pass NIST");
        assert!(!out.raw.0, "raw should fail NIST");
        assert!(out.raw.1.std_dev_bits > out.distilled.1.std_dev_bits);
        assert!(out.render().contains("distiller"));
    }

    #[test]
    fn parity_costs_little() {
        let out = parity(5);
        for (n, ig, odd) in &out.rows {
            assert!(odd <= ig, "n={n}: odd {odd} > ignore {ig}");
        }
        // The constraint costs a bounded fraction of margin.
        for cost in out.relative_costs() {
            assert!((0.0..0.5).contains(&cost), "cost {cost}");
        }
        assert!(out.render().contains("ForceOdd"));
    }

    #[test]
    fn noise_degrades_gracefully() {
        let out = noise(11);
        // Zero-noise row: perfect calibration, identical configs.
        let (s0, rms0, changed0, ratio0) = out.rows[0];
        assert_eq!(s0, 0.0);
        assert!(rms0 < 1e-9);
        assert_eq!(changed0, 0.0);
        assert!((ratio0 - 1.0).abs() < 1e-9);
        // RMS error grows with sigma.
        for w in out.rows.windows(2) {
            assert!(w[1].1 >= w[0].1 - 1e-9);
        }
        // At the default probe noise (0.25 ps, far below the ~1.4 ps
        // per-stage signal) selections stay near-optimal — the paper's
        // "high accuracy is not required". Only once noise exceeds the
        // signal (2 ps) does the achieved margin collapse toward the
        // random-selection floor around half of optimal.
        let at_default = out.rows.iter().find(|r| r.0 == 0.25).unwrap();
        assert!(
            at_default.3 > 0.9,
            "margin ratio at 0.25 ps: {}",
            at_default.3
        );
        let last = out.rows.last().unwrap();
        assert!(last.3 > 0.3, "margin ratio {}", last.3);
        assert!(out.render().contains("margin ratio"));
    }

    #[test]
    fn config_point_midpoint_is_not_worst() {
        let out = config_point(9, 12);
        let bars = out.mean_by_point;
        let mid = bars[2];
        let edge_max = bars[0].max(bars[4]);
        assert!(mid <= edge_max + 1e-9, "mid {mid} edges {edge_max}");
        assert!(out.render().contains("configured at"));
    }

    #[test]
    fn ecc_need_is_lower_for_configurable() {
        let out = ecc(17);
        assert!(
            out.configurable_ber <= out.traditional_ber,
            "conf BER {} !<= trad BER {}",
            out.configurable_ber,
            out.traditional_ber
        );
        assert!(out.required_repetition.1 <= out.required_repetition.0);
        assert!(out.overhead_ratio() >= 1.0);
        assert!(out.render().contains("repetition"));
    }

    #[test]
    fn aging_ordering_matches_figure_4() {
        let out = aging(23);
        assert_eq!(out.rows.len(), 4);
        let trad: f64 = out.rows.iter().map(|r| r.1).sum();
        let conf: f64 = out.rows.iter().map(|r| r.2).sum();
        let one8: f64 = out.rows.iter().map(|r| r.3).sum();
        assert!(conf <= trad, "configurable {conf} !<= traditional {trad}");
        assert!(one8 <= conf + 1e-12, "1of8 {one8} !<= configurable {conf}");
        assert!(out.render().contains("years"));
    }

    #[test]
    fn baselines_comparison_matches_section_2() {
        let out = baselines(29);
        let trad = out.row("traditional").copied().unwrap();
        let one8 = out.row("1-out-of-8").copied().unwrap();
        let coop = out.row("cooperative").copied().unwrap();
        let conf = out.row("configurable").copied().unwrap();
        // Bit counts: traditional = configurable = 4 x one-of-eight.
        assert_eq!(trad.1, conf.1);
        assert_eq!(trad.1, 4 * one8.1);
        // Cooperative utilization sits between 1-of-8's 25 % and full.
        assert!(coop.2 > 0.25 && coop.2 <= 1.0, "coop util {}", coop.2);
        // Reliability: configurable and 1-of-8 and cooperative are all
        // far better than traditional.
        assert!(trad.3 > conf.3, "trad {} !> conf {}", trad.3, conf.3);
        assert!(trad.3 > one8.3);
        assert!(trad.3 > coop.3);
        assert!(out.render().contains("utilization"));
    }

    #[test]
    fn defect_screening_keeps_survivors_stable() {
        let out = defects(31);
        assert_eq!(out.rows[0].0, 0.0);
        assert_eq!(out.rows[0].2, 1.0, "no defects → full yield");
        // Yield falls monotonically-ish with defect rate; survivors
        // never flip.
        for (rate, touched, yield_frac, flips) in &out.rows {
            assert!(
                (*yield_frac - (1.0 - *touched as f64 / out.pairs as f64)).abs() < 1e-9,
                "yield must equal 1 - touched fraction at rate {rate}"
            );
            assert_eq!(*flips, 0.0, "survivors flipped at rate {rate}");
        }
        let last = out.rows.last().unwrap();
        assert!(last.2 < 1.0, "10% defect rate must cost some pairs");
        assert!(out.render().contains("screened yield"));
    }

    #[test]
    fn interleaving_tightens_hd_spread() {
        let out = layout(13, 20);
        assert!(
            out.interleaved.std_dev_bits < out.blocked.std_dev_bits,
            "interleaved {} !< blocked {}",
            out.interleaved.std_dev_bits,
            out.blocked.std_dev_bits
        );
        assert!(out.render().contains("interleaved"));
    }
}

/// ECC ablation result: how much error correction each scheme needs.
#[derive(Debug, Clone)]
pub struct EccOutcome {
    /// Worst-corner bit error rate of the traditional PUF.
    pub traditional_ber: f64,
    /// Worst-corner bit error rate of the configurable PUF.
    pub configurable_ber: f64,
    /// Smallest odd repetition factor giving a 128-bit key failure
    /// probability below 10⁻⁶, per scheme: `(traditional, configurable)`.
    pub required_repetition: (usize, usize),
}

impl EccOutcome {
    /// Hardware overhead ratio: response bits the traditional scheme
    /// must provision per key bit, relative to the configurable scheme.
    pub fn overhead_ratio(&self) -> f64 {
        self.required_repetition.0 as f64 / self.required_repetition.1 as f64
    }

    /// Renders the comparison.
    pub fn render(&self) -> String {
        let rows = vec![
            vec![
                "traditional".to_string(),
                format!("{:.4}%", 100.0 * self.traditional_ber),
                self.required_repetition.0.to_string(),
            ],
            vec![
                "configurable".to_string(),
                format!("{:.4}%", 100.0 * self.configurable_ber),
                self.required_repetition.1.to_string(),
            ],
        ];
        format!(
            "ECC ablation (128-bit key, target failure < 1e-6, worst corner):\n{}\
             traditional needs {:.0}x the response bits of the configurable PUF\n",
            render::table(&["scheme", "worst-corner BER", "repetition needed"], &rows),
            self.overhead_ratio(),
        )
    }
}

/// Runs the ECC ablation: measures worst-corner bit error rates of the
/// traditional and configurable PUFs on simulated silicon, then sizes
/// the repetition-code fuzzy extractor each would need for a reliable
/// 128-bit key — quantifying §III.C's "eliminate the cost of ECC
/// circuitry" claim.
pub fn ecc(seed: u64) -> EccOutcome {
    use ropuf_core::fuzzy::FuzzyExtractor;
    use ropuf_core::traditional::TraditionalRoPuf;
    use ropuf_metrics::reliability::FlipSummary;

    let sim = SiliconSim::default_spartan();
    let n = 5;
    let pairs = 64;
    let mut rng = StdRng::seed_from_u64(seed);
    let board = sim.grow_board_with_id(&mut rng, BoardId(0), 2 * n * pairs, 32);
    let env0 = Environment::nominal();
    let probe = DelayProbe::new(0.25, 1);
    let reads_per_corner = 8;

    let corners: Vec<Environment> = Environment::corner_grid()
        .into_iter()
        .filter(|e| *e != env0)
        .collect();

    // Worst-corner BER of each scheme.
    let trad = TraditionalRoPuf::tiled(board.len(), n).enroll(
        &mut rng,
        &board,
        sim.technology(),
        env0,
        &probe,
        0.0,
    );
    let conf = ConfigurableRoPuf::tiled(board.len(), n).enroll(
        &mut rng,
        &board,
        sim.technology(),
        env0,
        &EnrollOptions::default(),
    );
    let worst_ber = |respond: &mut dyn FnMut(&mut StdRng, Environment) -> BitVec,
                     baseline: &BitVec,
                     rng: &mut StdRng| {
        corners
            .iter()
            .map(|&env| {
                let samples: Vec<BitVec> =
                    (0..reads_per_corner).map(|_| respond(rng, env)).collect();
                FlipSummary::against_baseline(baseline, &samples).bit_error_rate()
            })
            .fold(0.0f64, f64::max)
    };
    let trad_base = trad.expected_bits();
    let traditional_ber = worst_ber(
        &mut |rng, env| trad.respond(rng, &board, sim.technology(), env, &probe),
        &trad_base,
        &mut rng,
    );
    let conf_base = conf.expected_bits();
    let configurable_ber = worst_ber(
        &mut |rng, env| conf.respond(rng, &board, sim.technology(), env, &probe),
        &conf_base,
        &mut rng,
    );

    // Smallest odd repetition meeting the target.
    let required = |ber: f64| -> usize {
        (1..=31)
            .step_by(2)
            .find(|&r| FuzzyExtractor::new(r).failure_probability(ber, 128) < 1e-6)
            .unwrap_or(33)
    };
    EccOutcome {
        traditional_ber,
        configurable_ber,
        required_repetition: (required(traditional_ber), required(configurable_ber)),
    }
}

/// Aging ablation result: flip rates on aged silicon.
#[derive(Debug, Clone)]
pub struct AgingOutcome {
    /// `(years, traditional flip rate, configurable flip rate,
    /// one-of-eight flip rate)` per evaluated age.
    pub rows: Vec<(f64, f64, f64, f64)>,
}

impl AgingOutcome {
    /// Renders the sweep.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|(y, t, c, o)| {
                vec![
                    format!("{y:.0}"),
                    render::pct(*t),
                    render::pct(*c),
                    render::pct(*o),
                ]
            })
            .collect();
        format!(
            "aging ablation (enrolled fresh, read back after N years):\n{}",
            render::table(&["years", "traditional", "configurable", "1-of-8"], &rows)
        )
    }
}

/// Runs the aging ablation: enroll on fresh silicon, read the PUF back
/// on the same die after years of simulated BTI drift. Differential
/// aging erodes margins; the ordering of the three schemes should
/// mirror Figure 4's.
pub fn aging(seed: u64) -> AgingOutcome {
    use ropuf_core::one_of_eight::OneOfEightPuf;
    use ropuf_core::traditional::TraditionalRoPuf;
    use ropuf_metrics::reliability::flip_rate_against_baseline;
    use ropuf_silicon::AgingModel;

    let sim = SiliconSim::default_spartan();
    let n = 5;
    let units = 8 * n * 12;
    let mut rng = StdRng::seed_from_u64(seed);
    let board = sim.grow_board_with_id(&mut rng, BoardId(0), units, 32);
    let env = Environment::nominal();
    let probe = DelayProbe::new(0.25, 1);

    let trad = TraditionalRoPuf::tiled(units, n).enroll(
        &mut rng,
        &board,
        sim.technology(),
        env,
        &probe,
        0.0,
    );
    let conf = ConfigurableRoPuf::tiled(units, n).enroll(
        &mut rng,
        &board,
        sim.technology(),
        env,
        &EnrollOptions::default(),
    );
    let one8 =
        OneOfEightPuf::tiled(units, n).enroll(&mut rng, &board, sim.technology(), env, &probe);

    let model = AgingModel::default();
    let rows = [1.0f64, 2.0, 5.0, 10.0]
        .iter()
        .map(|&years| {
            let aged = model.age_board(&mut rng, &board, years);
            let reads = 8;
            let t = flip_rate_against_baseline(
                &trad.expected_bits(),
                &(0..reads)
                    .map(|_| trad.respond(&mut rng, &aged, sim.technology(), env, &probe))
                    .collect::<Vec<_>>(),
            );
            let c = flip_rate_against_baseline(
                &conf.expected_bits(),
                &(0..reads)
                    .map(|_| conf.respond(&mut rng, &aged, sim.technology(), env, &probe))
                    .collect::<Vec<_>>(),
            );
            let o = flip_rate_against_baseline(
                &one8.expected_bits(),
                &(0..reads)
                    .map(|_| one8.respond(&mut rng, &aged, sim.technology(), env, &probe))
                    .collect::<Vec<_>>(),
            );
            (years, t, c, o)
        })
        .collect();
    AgingOutcome { rows }
}

/// Four-scheme comparison result.
#[derive(Debug, Clone)]
pub struct BaselinesOutcome {
    /// `(scheme name, bits, utilization, worst-corner flip rate)`.
    pub rows: Vec<(&'static str, usize, f64, f64)>,
}

impl BaselinesOutcome {
    /// Looks up a scheme row by name.
    pub fn row(&self, name: &str) -> Option<&(&'static str, usize, f64, f64)> {
        self.rows.iter().find(|r| r.0 == name)
    }

    /// Renders the comparison.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|(name, bits, util, flips)| {
                vec![
                    name.to_string(),
                    bits.to_string(),
                    format!("{:.0}%", 100.0 * util),
                    render::pct(*flips),
                ]
            })
            .collect();
        format!(
            "scheme comparison (same 320-ring silicon, worst V/T corner):\n{}",
            render::table(&["scheme", "bits", "utilization", "worst flip rate"], &rows)
        )
    }
}

/// Runs the four-scheme comparison of §II on one pool of silicon: the
/// traditional RO PUF, 1-out-of-8, the temperature-aware cooperative
/// scheme (reference \[2\]), and the paper's configurable PUF — bits
/// produced, hardware utilization, and worst-corner flip rate.
pub fn baselines(seed: u64) -> BaselinesOutcome {
    use ropuf_core::cooperative::CooperativePuf;
    use ropuf_core::one_of_eight::OneOfEightPuf;
    use ropuf_core::traditional::TraditionalRoPuf;
    use ropuf_metrics::reliability::flip_rate_against_baseline;

    let sim = SiliconSim::default_spartan();
    let n = 5;
    let rings = 320;
    let units = rings * n;
    let mut rng = StdRng::seed_from_u64(seed);
    let board = sim.grow_board_with_id(&mut rng, BoardId(0), units, 40);
    let env0 = Environment::nominal();
    let probe = DelayProbe::new(0.25, 1);
    let corners: Vec<Environment> = Environment::corner_grid()
        .into_iter()
        .filter(|e| *e != env0)
        .collect();

    let worst_flip = |expected: &BitVec,
                      respond: &mut dyn FnMut(&mut StdRng, Environment) -> BitVec,
                      rng: &mut StdRng| {
        corners
            .iter()
            .map(|&env| {
                let reads: Vec<BitVec> = (0..4).map(|_| respond(rng, env)).collect();
                flip_rate_against_baseline(expected, &reads)
            })
            .fold(0.0f64, f64::max)
    };

    let mut rows = Vec::new();

    let trad = TraditionalRoPuf::tiled(units, n).enroll(
        &mut rng,
        &board,
        sim.technology(),
        env0,
        &probe,
        0.0,
    );
    let trad_bits = trad.expected_bits();
    let flips = worst_flip(
        &trad_bits,
        &mut |rng, env| trad.respond(rng, &board, sim.technology(), env, &probe),
        &mut rng,
    );
    rows.push(("traditional", trad.bit_count(), 1.0, flips));

    let one8 =
        OneOfEightPuf::tiled(units, n).enroll(&mut rng, &board, sim.technology(), env0, &probe);
    let one8_bits = one8.expected_bits();
    let flips = worst_flip(
        &one8_bits,
        &mut |rng, env| one8.respond(rng, &board, sim.technology(), env, &probe),
        &mut rng,
    );
    rows.push(("1-out-of-8", one8.bit_count(), 0.25, flips));

    let coop_puf = CooperativePuf::tiled(units, n);
    let coop = coop_puf.enroll(
        &mut rng,
        &board,
        sim.technology(),
        &Environment::temperature_sweep(1.20),
        &probe,
        1.0,
    );
    let coop_bits = coop.expected_bits();
    let flips = worst_flip(
        &coop_bits,
        &mut |rng, env| coop.respond(rng, &board, sim.technology(), env, &probe),
        &mut rng,
    );
    rows.push((
        "cooperative",
        coop.bit_count(),
        coop_puf.utilization(&coop),
        flips,
    ));

    let conf = ConfigurableRoPuf::tiled(units, n).enroll(
        &mut rng,
        &board,
        sim.technology(),
        env0,
        &EnrollOptions::default(),
    );
    let conf_bits = conf.expected_bits();
    let flips = worst_flip(
        &conf_bits,
        &mut |rng, env| conf.respond(rng, &board, sim.technology(), env, &probe),
        &mut rng,
    );
    rows.push(("configurable", conf.bit_count(), 1.0, flips));

    BaselinesOutcome { rows }
}

/// Defect-screening ablation result.
#[derive(Debug, Clone)]
pub struct DefectsOutcome {
    /// Per defect rate: `(rate, pairs touching a defect, screened
    /// configurable yield, screened flip rate at the worst corner)`.
    pub rows: Vec<(f64, usize, f64, f64)>,
    /// Pairs provisioned.
    pub pairs: usize,
}

impl DefectsOutcome {
    /// Renders the sweep.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|(rate, touched, yield_frac, flips)| {
                vec![
                    format!("{:.1}%", 100.0 * rate),
                    touched.to_string(),
                    format!("{:.0}%", 100.0 * yield_frac),
                    render::pct(*flips),
                ]
            })
            .collect();
        format!(
            "defect-screening ablation ({} pairs provisioned):\n{}",
            self.pairs,
            render::table(
                &[
                    "defect rate",
                    "pairs hit",
                    "screened yield",
                    "worst-corner flips"
                ],
                &rows
            )
        )
    }
}

/// Runs the defect ablation: inject stuck-slow/stuck-fast units at
/// increasing rates, enroll with ddiff plausibility screening, and
/// verify the §III.C escape hatch — defective pairs are dropped (yield
/// falls gracefully) while every surviving bit stays corner-stable.
pub fn defects(seed: u64) -> DefectsOutcome {
    use ropuf_core::puf::ConfigurableRoPuf;
    use ropuf_metrics::reliability::flip_rate_against_baseline;
    use ropuf_silicon::DefectModel;

    let sim = SiliconSim::default_spartan();
    let n = 5;
    let pairs = 48;
    let units = 2 * n * pairs;
    let mut rng = StdRng::seed_from_u64(seed);
    let clean = sim.grow_board_with_id(&mut rng, BoardId(0), units, 24);
    let puf = ConfigurableRoPuf::tiled(units, n);
    let env0 = Environment::nominal();
    let probe = DelayProbe::new(0.25, 1);
    let opts = EnrollOptions {
        plausible_ddiff_ps: Some((50.0, 200.0)),
        ..EnrollOptions::default()
    };
    let corners: Vec<Environment> = Environment::voltage_sweep(25.0)
        .into_iter()
        .filter(|e| *e != env0)
        .collect();

    let rows = [0.0f64, 0.01, 0.02, 0.05, 0.10]
        .iter()
        .map(|&rate| {
            let model = DefectModel {
                stuck_slow_rate: rate * 0.7,
                stuck_fast_rate: rate * 0.3,
                ..DefectModel::default()
            };
            let (board, defect_list) = model.inject(&mut rng, &clean);
            let defective: std::collections::HashSet<usize> =
                defect_list.iter().map(|(i, _)| *i).collect();
            let touched = puf
                .specs()
                .iter()
                .filter(|s| {
                    s.top()
                        .iter()
                        .chain(s.bottom())
                        .any(|u| defective.contains(u))
                })
                .count();
            let e = puf.enroll(&mut rng, &board, sim.technology(), env0, &opts);
            let worst = corners
                .iter()
                .map(|&env| {
                    let reads: Vec<_> = (0..4)
                        .map(|_| e.respond(&mut rng, &board, sim.technology(), env, &probe))
                        .collect();
                    flip_rate_against_baseline(&e.expected_bits(), &reads)
                })
                .fold(0.0f64, f64::max);
            (rate, touched, e.bit_count() as f64 / pairs as f64, worst)
        })
        .collect();
    DefectsOutcome { rows, pairs }
}
