//! Extension: 64-CSK with the learned per-link equalizer (DESIGN.md §15) —
//! a Fig-9-style raw SER ablation over classifier × order × device.
//!
//! The paper stops at 32-CSK because the nearest-neighbor classifier runs
//! out of noise margin: reference points pack so densely in the gamut that
//! sensor nonlinearity (gamma, gamut compression, chroma crosstalk) moves a
//! received color past its nearest reference. The learned equalizer fits a
//! quadratic chroma correction to each calibration preamble (ridge
//! regression on `[1, a, b, a², b², ab, L]` features) and classifies
//! against the *ideal* geometry after correction, recovering part of that
//! margin. This bin measures where the trade lands: raw SER (no RS at
//! either end, the paper's Figs 9–10 measurement) for both classifiers at
//! 32- and 64-CSK, the doctor's three-way attribution of each symbol error
//! (equalizer-miss / equalizer-rescue / channel loss), and the
//! effective-rate-maximal order per device × classifier. The ladder stops
//! at 64 points: a 128-point calibration packet outgrows the 3 kHz frame
//! slot, straddles the inter-frame gap, and never locks.
//!
//! Modes:
//!
//! ```text
//! ext_highorder                        # full sweep: device × classifier ×
//!                                      # {32, 64}-CSK, 5 seeds
//! ext_highorder --smoke                # 64-CSK only, both devices — the CI
//!                                      # gate for "ridge beats NN" (exit code)
//! ext_highorder --degenerate-negative  # degenerate calibration preamble:
//!                                      # training must fail typed, fall back
//!                                      # to NN, and never produce NaN weights
//! ```
//!
//! `--degenerate-negative` exits nonzero when the fallback path misbehaves —
//! the equalizer analogue of `ext_fec --burst-negative`.

use colorbars_bench::{
    cell, devices, mean_std, run_pool, sweep_threads, AveragedMetrics, Reporter, ResultRow, SEEDS,
};
use colorbars_camera::{CaptureConfig, DeviceProfile};
use colorbars_channel::OpticalChannel;
use colorbars_color::Lab;
use colorbars_core::depacket::ParsedPacket;
use colorbars_core::{
    CskOrder, EqualizerKind, LinkConfig, LinkError, LinkMetrics, LinkSimulator, Receiver,
    TrainedEqualizer,
};
use colorbars_obs::Value;
use std::process::ExitCode;

/// The sweep's symbol rate: the paper's mid-grid point. High orders trade
/// SER for bits/symbol at a fixed symbol budget, so one rate isolates the
/// classifier × order effect.
const RATE_HZ: f64 = 3000.0;

/// Classifiers ablated: the paper's nearest-neighbor baseline and the
/// learned ridge correction.
const CLASSIFIERS: [EqualizerKind; 2] = [EqualizerKind::NearestNeighbor, EqualizerKind::Ridge];

/// One operating point of the high-order ablation.
#[derive(Clone)]
struct HighOrderPoint {
    name: &'static str,
    device: DeviceProfile,
    order: CskOrder,
    classifier: EqualizerKind,
}

impl HighOrderPoint {
    /// Row key for reports: the classifier is folded into the device name,
    /// so each classifier reads as its own operating point.
    fn device_key(&self) -> String {
        match self.classifier {
            EqualizerKind::NearestNeighbor => self.name.to_string(),
            other => format!("{}+{}", self.name, other.as_str()),
        }
    }
}

/// Seed-averaged metrics of one point, with the equalizer-specific columns
/// the shared [`AveragedMetrics`] does not carry.
#[derive(Clone)]
struct HighOrderAvg {
    avg: AveragedMetrics,
    /// Mean number of calibrated, ground-truth-matched bands behind the
    /// SER figure. Zero means the receiver never locked calibration at
    /// this point — its SER is *unmeasured*, not perfect.
    ser_bands: f64,
    /// Mean counterfactual nearest-neighbor SER over the same bands.
    ser_nn: f64,
    /// Summed three-way error attribution across seeds (DESIGN.md §15).
    eq_misses: usize,
    eq_rescues: usize,
    channel_losses: usize,
    /// Summed training outcomes across seeds.
    eq_trained: usize,
    eq_fallbacks: usize,
    calibrations: usize,
    calibrations_failed: usize,
}

impl HighOrderAvg {
    /// Whether the point ever demodulated against locked calibration. A
    /// receiver that absorbs no calibration packet never measures SER, and
    /// its band stream is undecodable in deployment.
    fn functional(&self) -> bool {
        self.ser_bands > 0.0
    }

    /// Effective raw rate: throughput discounted by the error rate — the
    /// goodput proxy of an uncoded measurement (raw mode carries no RS, so
    /// true goodput is identically zero at every point). Zero for a point
    /// that never locked calibration: unmeasured is not error-free.
    fn effective_bps(&self) -> f64 {
        if !self.functional() {
            return 0.0;
        }
        self.avg.throughput_bps * (1.0 - self.avg.ser)
    }

    fn extras_value(&self) -> Value {
        Value::object([
            ("ser_bands", Value::from(self.ser_bands)),
            ("ser_nn", Value::from(self.ser_nn)),
            ("eq_misses", Value::from(self.eq_misses)),
            ("eq_rescues", Value::from(self.eq_rescues)),
            ("channel_losses", Value::from(self.channel_losses)),
            ("eq_trained", Value::from(self.eq_trained)),
            ("eq_fallbacks", Value::from(self.eq_fallbacks)),
            ("calibrations", Value::from(self.calibrations)),
            ("calibrations_failed", Value::from(self.calibrations_failed)),
            ("effective_bps", Value::from(self.effective_bps())),
        ])
    }
}

fn main() -> ExitCode {
    let args = colorbars_bench::flags(&["--smoke", "--degenerate-negative"]);
    let smoke = args.contains(&"--smoke");
    if args.contains(&"--degenerate-negative") {
        return match degenerate_negative() {
            Ok(report) => {
                print!("{report}");
                println!("ext_highorder --degenerate-negative: ok");
                ExitCode::SUCCESS
            }
            Err(why) => {
                eprintln!("ext_highorder --degenerate-negative: FAILED — {why}");
                ExitCode::from(1)
            }
        };
    }
    sweep(smoke)
}

/// One seed of one point: a raw (uncoded) link run, the paper's SER
/// measurement configuration. `None` when the run fails.
fn run_highorder_seed(point: &HighOrderPoint, seconds: f64, seed: u64) -> Option<LinkMetrics> {
    let config = LinkConfig::paper_default(point.order, RATE_HZ, point.device.loss_ratio())
        .with_equalizer(point.classifier);
    let capture = CaptureConfig {
        seed,
        ..CaptureConfig::default()
    };
    let sim = LinkSimulator::new(
        config,
        point.device.clone(),
        OpticalChannel::paper_setup(),
        capture,
    )
    .ok()?;
    sim.run_raw(seconds, seed ^ 0xABCD).ok()
}

/// Seed-average one point, folding in the equalizer columns.
fn average(samples: &[LinkMetrics]) -> Option<HighOrderAvg> {
    let mean = |f: fn(&LinkMetrics) -> f64| mean_std(samples.iter().map(f)).0;
    let sum = |f: fn(&LinkMetrics) -> usize| samples.iter().map(f).sum::<usize>();
    Some(HighOrderAvg {
        avg: AveragedMetrics::of(samples)?,
        ser_bands: mean(|m| m.ser_bands as f64),
        ser_nn: mean(|m| m.ser_nn),
        eq_misses: sum(|m| m.eq_misses),
        eq_rescues: sum(|m| m.eq_rescues),
        channel_losses: sum(|m| m.channel_losses),
        eq_trained: sum(|m| m.report.stats.eq_trained),
        eq_fallbacks: sum(|m| m.report.stats.eq_fallbacks),
        calibrations: sum(|m| m.report.stats.calibrations),
        calibrations_failed: sum(|m| m.report.stats.calibrations_failed),
    })
}

/// The classifier × order × device sweep. In smoke mode the grid narrows to
/// 64-CSK (the smallest beyond-paper order) on both devices — the operating
/// point the acceptance criterion pins. CI's results gate holds the full
/// sweep's rows and counters by identity.
fn sweep(smoke: bool) -> ExitCode {
    let mut reporter = Reporter::new("ext_highorder");
    let (orders, seconds): (Vec<CskOrder>, f64) = if smoke {
        (vec![CskOrder::Csk64], 1.2)
    } else {
        (vec![CskOrder::Csk32, CskOrder::Csk64], 1.5)
    };
    let mut points = Vec::new();
    for (name, device) in devices() {
        for &classifier in &CLASSIFIERS {
            for &order in &orders {
                points.push(HighOrderPoint {
                    name,
                    device: device.clone(),
                    order,
                    classifier,
                });
            }
        }
    }
    reporter.set_config(Value::object([
        ("rate_hz", Value::from(RATE_HZ)),
        ("smoke", Value::from(smoke)),
        (
            "orders",
            Value::Array(orders.iter().map(|o| Value::from(o.points())).collect()),
        ),
        ("seconds", Value::from(seconds)),
    ]));

    let jobs: Vec<_> = points
        .iter()
        .flat_map(|p| SEEDS.iter().map(move |&seed| (p.clone(), seed)))
        .map(|(point, seed)| move || run_highorder_seed(&point, seconds, seed))
        .collect();
    let outcomes = run_pool(jobs, sweep_threads());
    let averaged: Vec<Option<HighOrderAvg>> = outcomes
        .chunks(SEEDS.len())
        .map(|chunk| average(&chunk.iter().flatten().cloned().collect::<Vec<_>>()))
        .collect();

    // NN SER per (device, order): the ridge rows' comparison column. Only
    // functional points (calibration ever locked) are comparable.
    let nn_ser_of = |name: &str, order: usize| -> Option<f64> {
        points
            .iter()
            .zip(&averaged)
            .find(|(p, _)| {
                p.name == name
                    && p.order.points() == order
                    && p.classifier == EqualizerKind::NearestNeighbor
            })
            .and_then(|(_, m)| m.as_ref().filter(|m| m.functional()).map(|m| m.avg.ser))
    };

    let mut ridge_wins: Vec<(String, f64, f64)> = Vec::new();
    let mut comparable_high_order = 0usize;
    let mut it = points.iter().zip(&averaged);
    for (name, _) in devices() {
        for &classifier in &CLASSIFIERS {
            reporter.header(
                &format!(
                    "Ext (high-order, {name}, {}): raw SER vs order @ 3 kHz",
                    classifier.as_str()
                ),
                &[
                    "order",
                    "ser",
                    "±",
                    "ser_nn",
                    "rescued",
                    "missed",
                    "chan",
                    "thrpt",
                    "eff bps",
                    "cal ok/bad",
                ],
            );
            // Effective-rate-maximal order for this device × classifier.
            let mut best: Option<(f64, usize)> = None;
            for _ in 0..orders.len() {
                let (p, m) = it.next().expect("grid matches print order");
                if let Some(m) = m {
                    if m.functional() && best.as_ref().is_none_or(|(b, _)| m.effective_bps() > *b) {
                        best = Some((m.effective_bps(), p.order.points()));
                    }
                    if p.classifier == EqualizerKind::Ridge
                        && m.functional()
                        && p.order.points() >= 64
                    {
                        if let Some(nn) = nn_ser_of(p.name, p.order.points()) {
                            comparable_high_order += 1;
                            if m.avg.ser < nn {
                                ridge_wins.push((
                                    format!("{} {}-CSK", p.name, p.order.points()),
                                    m.avg.ser,
                                    nn,
                                ));
                            }
                        }
                    }
                    reporter.add(&ResultRow {
                        experiment: "ext_highorder".into(),
                        device: p.device_key(),
                        order: p.order.points(),
                        rate_hz: RATE_HZ,
                        metrics: m.avg.clone(),
                    });
                    reporter.add_value(Value::object([
                        ("experiment", Value::from("ext_highorder_attr")),
                        ("device", Value::from(p.device_key().as_str())),
                        ("order", Value::from(p.order.points())),
                        ("rate_hz", Value::from(RATE_HZ)),
                        ("attribution", m.extras_value()),
                    ]));
                }
                // SER columns are meaningful only when calibration ever
                // locked; an unmeasured point prints n/a, never 0.
                let measured = m.as_ref().filter(|m| m.functional());
                reporter.say(
                    [
                        format!("{}", p.order),
                        cell(measured.map(|m| m.avg.ser), 4),
                        cell(measured.map(|m| m.avg.ser_std), 4),
                        cell(measured.map(|m| m.ser_nn), 4),
                        cell(measured.map(|m| m.eq_rescues as f64), 0),
                        cell(measured.map(|m| m.eq_misses as f64), 0),
                        cell(measured.map(|m| m.channel_losses as f64), 0),
                        cell(m.as_ref().map(|m| m.avg.throughput_bps), 0),
                        cell(m.as_ref().map(|m| m.effective_bps()), 0),
                        match m {
                            Some(m) => format!("{}/{}", m.calibrations, m.calibrations_failed),
                            None => "n/a".to_string(),
                        },
                    ]
                    .join("\t"),
                );
            }
            match best {
                Some((bps, order)) => reporter.say(format!(
                    "-> effective-rate-maximal order for {name} / {}: {order}-CSK at {bps:.0} bps",
                    classifier.as_str()
                )),
                None => reporter.say(format!(
                    "-> no functional operating point for {name} / {} (calibration never locked)",
                    classifier.as_str()
                )),
            }
        }
    }
    reporter.say("");
    if ridge_wins.is_empty() {
        reporter.say("(No ridge point at order ≥ 64 beat nearest-neighbor SER — see");
        reporter.say("the calibration columns above.)");
    } else {
        let (label, ridge, nn) = ridge_wins
            .iter()
            .max_by(|a, b| (a.2 - a.1).partial_cmp(&(b.2 - b.1)).unwrap())
            .unwrap()
            .clone();
        reporter.say(format!(
            "(Ridge equalizer beats nearest-neighbor at {} of {} functional high-order points;",
            ridge_wins.len(),
            comparable_high_order
        ));
        reporter.say(format!(
            "best margin: {label}, SER {ridge:.4} vs {nn:.4} NN — the quadratic chroma"
        ));
        reporter.say("correction recovers margin the point-wise references cannot express.)");
    }
    reporter.finish();

    // The acceptance gate: in smoke mode the learned classifier must
    // strictly lower SER vs nearest-neighbor for at least one device at the
    // pinned 64-CSK point (the full sweep is informational and may explore
    // points where neither classifier functions).
    if smoke && ridge_wins.is_empty() {
        eprintln!("ext_highorder --smoke: FAILED — ridge beat NN on no device at 64-CSK");
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

/// `--degenerate-negative`: feed a ridge-configured receiver a calibration
/// preamble with zero chroma variance (every reference band measured as the
/// same grey). Training must fail with the typed degenerate error, the
/// receiver must fall back to nearest-neighbor with the fallback counter
/// ticked, and no path may yield non-finite weights.
fn degenerate_negative() -> Result<String, String> {
    let order = CskOrder::Csk64;
    let cfg = LinkConfig::paper_default(order, RATE_HZ, DeviceProfile::iphone5s().loss_ratio())
        .with_equalizer(EqualizerKind::Ridge);
    let row_time = DeviceProfile::iphone5s().row_time();

    // 1. The typed error, straight from the trainer.
    let flat: Vec<(usize, Lab)> = (0..order.points())
        .map(|i| (i, Lab::new(50.0, 4.0, -3.0)))
        .collect();
    let ideal: Vec<(f64, f64)> = (0..order.points()).map(|i| (i as f64, 0.0)).collect();
    match TrainedEqualizer::fit(EqualizerKind::Ridge, &flat, &ideal) {
        Err(LinkError::EqualizerDegenerate { samples, cause }) => {
            if samples != flat.len() || cause != "rank_deficient" {
                return Err(format!(
                    "wrong degenerate detail: {samples} samples, cause {cause:?}"
                ));
            }
        }
        Err(other) => return Err(format!("wrong error type: {other}")),
        Ok(_) => return Err("zero-variance preamble must not train".into()),
    }

    // 2. The receiver-level fallback: inject the degenerate preamble as a
    // parsed calibration packet and check the receiver demotes itself to
    // nearest-neighbor instead of wielding NaN weights.
    let mut rx =
        Receiver::new_raw(cfg, row_time).map_err(|e| format!("receiver construction: {e}"))?;
    rx.absorb(vec![ParsedPacket::Calibration {
        features: flat.clone(),
    }]);
    if rx.equalizer().is_some() {
        return Err("receiver kept an equalizer trained on a degenerate preamble".into());
    }
    if let Some(eq) = rx.equalizer() {
        if eq.weights().iter().any(|w| !w.is_finite()) {
            return Err("non-finite equalizer weights survived".into());
        }
    }
    let stats = rx.stats().clone();
    if stats.eq_fallbacks != 1 {
        return Err(format!(
            "expected exactly one eq fallback, counted {}",
            stats.eq_fallbacks
        ));
    }
    if stats.eq_trained != 0 {
        return Err(format!(
            "degenerate preamble must not count as a successful training ({})",
            stats.eq_trained
        ));
    }

    // 3. A healthy preamble on the same receiver must recover the learned
    // classifier — the fallback is per-training, not a latch.
    let healthy: Vec<(usize, Lab)> = (0..order.points())
        .map(|i| {
            let (a, b) = rx.store().ideal_reference(i);
            (i, Lab::new(55.0, 1.05 * a + 2.0, 0.95 * b - 1.0))
        })
        .collect();
    rx.absorb(vec![ParsedPacket::Calibration { features: healthy }]);
    let Some(eq) = rx.equalizer() else {
        return Err("healthy preamble after a fallback must retrain the equalizer".into());
    };
    if eq.weights().iter().any(|w| !w.is_finite()) {
        return Err("retrained equalizer carries non-finite weights".into());
    }
    let stats = rx.stats();
    if stats.eq_trained != 1 || stats.eq_fallbacks != 1 {
        return Err(format!(
            "recovery counters off: trained {}, fallbacks {}",
            stats.eq_trained, stats.eq_fallbacks
        ));
    }
    Ok(format!(
        "degenerate drill: zero-variance {}-point preamble -> typed \
         equalizer_degenerate (rank_deficient), receiver fell back to \
         nearest-neighbor (fallbacks=1, trained=0), healthy retrain \
         recovered the learned classifier with finite weights\n",
        order.points()
    ))
}
