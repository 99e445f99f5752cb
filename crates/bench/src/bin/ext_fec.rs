//! Extension: cross-packet interleaved RS (DESIGN.md §13) — goodput vs
//! interleave depth at the paper's 3 kHz operating point.
//!
//! The paper's per-packet code reserves `2·L_S` parity bytes because a
//! gap-lost run inside one packet is an *unknown-position* error burst.
//! Striping each wire byte across `depth` group codewords turns the same
//! burst into `≈ burst/depth` *declared erasures* per codeword (1 parity
//! byte each instead of 2), so the erasure-aware budget
//! `ceil(1.25·L_S) + ceil(n/depth)` ships more data bytes per packet.
//! This bin measures that trade end to end: depth 0 is the paper's
//! per-packet baseline, depths 2/4/8 the interleaved link, and the
//! `uplift` column is goodput relative to the depth-0 row of the same
//! device × order.
//!
//! Modes:
//!
//! ```text
//! ext_fec                   # full sweep: device × order × depth, 5 seeds
//! ext_fec --smoke           # reduced grid for CI (gated by obs-diff)
//! ext_fec --burst-negative  # deterministic over-budget burst: the decode
//!                           # layer must fail loud and the doctor must
//!                           # attribute every loss to unrecoverable-burst
//! ```
//!
//! `--burst-negative` exits nonzero when the attribution is missing or the
//! doctor's ledgers go inconsistent — CI runs it as a can't-fool-the-gate
//! check, the FEC analogue of `obs-diff --inject-ser-regression`.

use colorbars_bench::{
    cell, devices, run_pool, sweep_threads, AveragedMetrics, Reporter, ResultRow, SEEDS,
};
use colorbars_camera::{CaptureConfig, DeviceProfile};
use colorbars_channel::OpticalChannel;
use colorbars_core::depacket::{Depacketizer, FailReason, ObservedBand, ParsedPacket};
use colorbars_core::transmitter::cal_copies;
use colorbars_core::{
    CskOrder, Label, LinkConfig, LinkMetrics, LinkSimulator, PacketKind, Symbol, Transmitter,
};
use colorbars_fec::Interleaver;
use colorbars_obs::doctor::Doctor;
use colorbars_obs::Value;
use std::process::ExitCode;

/// The sweep's fixed symbol rate: the paper's mid-grid point, where both
/// devices decode reliably and the gap ratio (not SER) bounds goodput.
const RATE_HZ: f64 = 3000.0;

/// Interleave depths swept; 0 is the per-packet RS baseline.
const DEPTHS: [usize; 4] = [0, 2, 4, 8];

/// One operating point of the FEC sweep.
#[derive(Clone)]
struct FecPoint {
    name: &'static str,
    device: DeviceProfile,
    order: CskOrder,
    depth: usize,
}

impl FecPoint {
    /// Row key for reports: the depth is folded into the device name so
    /// `obs-diff` keys each depth as its own operating point.
    fn device_key(&self) -> String {
        if self.depth == 0 {
            self.name.to_string()
        } else {
            format!("{}+d{}", self.name, self.depth)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    if args.iter().any(|a| a == "--burst-negative") {
        return match burst_negative() {
            Ok(report) => {
                print!("{report}");
                println!("ext_fec --burst-negative: ok");
                ExitCode::SUCCESS
            }
            Err(why) => {
                eprintln!("ext_fec --burst-negative: FAILED — {why}");
                ExitCode::from(1)
            }
        };
    }
    sweep(smoke);
    ExitCode::SUCCESS
}

/// One seed of one FEC operating point. `None` when the point is
/// unrealizable or the run fails.
fn run_fec_seed(point: &FecPoint, seconds: f64, seed: u64) -> Option<LinkMetrics> {
    let mut config = LinkConfig::paper_default(point.order, RATE_HZ, point.device.loss_ratio());
    if point.depth > 0 {
        config = config.with_fec(point.depth);
    }
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
    sim.run_random(seconds, seed ^ 0xABCD).ok()
}

/// The depth sweep: every `(point, seed)` cell drains through one bounded
/// worker pool, exactly like `run_grid`.
fn sweep(smoke: bool) {
    let mut reporter = Reporter::new("ext_fec");
    let (orders, depths, seconds): (Vec<CskOrder>, Vec<usize>, f64) = if smoke {
        (vec![CskOrder::Csk8], vec![0, 8], 1.2)
    } else {
        (vec![CskOrder::Csk8, CskOrder::Csk16], DEPTHS.to_vec(), 2.0)
    };
    let mut points = Vec::new();
    for (name, device) in devices() {
        if smoke && name != "iPhone 5S" {
            continue;
        }
        for &order in &orders {
            for &depth in &depths {
                points.push(FecPoint {
                    name,
                    device: device.clone(),
                    order,
                    depth,
                });
            }
        }
    }
    reporter.set_config(Value::object([
        ("rate_hz", Value::from(RATE_HZ)),
        ("smoke", Value::from(smoke)),
        (
            "depths",
            Value::Array(depths.iter().map(|&d| Value::from(d)).collect()),
        ),
        ("seconds", Value::from(seconds)),
    ]));

    let jobs: Vec<_> = points
        .iter()
        .flat_map(|p| SEEDS.iter().map(move |&seed| (p.clone(), seed)))
        .map(|(point, seed)| move || run_fec_seed(&point, seconds, seed))
        .collect();
    let outcomes = run_pool(jobs, sweep_threads());
    let averaged: Vec<Option<AveragedMetrics>> = outcomes
        .chunks(SEEDS.len())
        .map(|chunk| AveragedMetrics::of(&chunk.iter().flatten().cloned().collect::<Vec<_>>()))
        .collect();

    // Depth-0 goodput per (device, order), the uplift denominators.
    let mut baselines: Vec<((&str, usize), f64)> = Vec::new();
    for (p, m) in points.iter().zip(&averaged) {
        if p.depth == 0 {
            if let Some(m) = m {
                baselines.push(((p.name, p.order.points()), m.goodput_bps));
            }
        }
    }
    let baseline_of = |name: &str, order: usize| -> Option<f64> {
        baselines
            .iter()
            .find(|((n, o), _)| *n == name && *o == order)
            .map(|&(_, g)| g)
    };

    let mut best_uplift: Option<(f64, String)> = None;
    let mut it = points.iter().zip(&averaged);
    for (name, _) in devices() {
        if smoke && name != "iPhone 5S" {
            continue;
        }
        reporter.header(
            &format!("Ext (FEC, {name}): goodput vs interleave depth @ 3 kHz"),
            &["order", "depth", "goodput", "±", "thrpt", "ser", "uplift"],
        );
        for _ in 0..orders.len() * depths.len() {
            let (p, m) = it.next().expect("grid matches print order");
            let uplift = m.as_ref().and_then(|m| {
                baseline_of(p.name, p.order.points()).map(|base| {
                    if base > 0.0 {
                        m.goodput_bps / base
                    } else {
                        f64::INFINITY
                    }
                })
            });
            if p.depth > 0 {
                if let Some(u) = uplift {
                    let label = format!("{} {}-CSK depth {}", p.name, p.order.points(), p.depth);
                    if best_uplift.as_ref().is_none_or(|(b, _)| u > *b) {
                        best_uplift = Some((u, label));
                    }
                }
            }
            if let Some(metrics) = m.clone() {
                reporter.add(&ResultRow {
                    experiment: "ext_fec".into(),
                    device: p.device_key(),
                    order: p.order.points(),
                    rate_hz: RATE_HZ,
                    metrics,
                });
            }
            reporter.say(
                [
                    format!("{}", p.order),
                    if p.depth == 0 {
                        "none".to_string()
                    } else {
                        format!("{}", p.depth)
                    },
                    cell(m.as_ref().map(|m| m.goodput_bps), 0),
                    cell(m.as_ref().map(|m| m.goodput_bps_std), 0),
                    cell(m.as_ref().map(|m| m.throughput_bps), 0),
                    cell(m.as_ref().map(|m| m.ser), 4),
                    match uplift {
                        Some(u) if p.depth > 0 => format!("{u:.2}x"),
                        _ => "—".to_string(),
                    },
                ]
                .join("\t"),
            );
        }
    }
    reporter.say("");
    if let Some((u, label)) = best_uplift {
        reporter.say(format!(
            "(Best interleave uplift: {u:.2}x goodput at {label} — erasure-aware"
        ));
        reporter.say("parity spends 1 byte per declared-erasure byte instead of the paper's 2,");
        reporter.say("and deinterleaving spreads each inter-frame burst across the group.)");
    } else {
        reporter.say("(No interleaved point produced a result.)");
    }
    reporter.finish();
}

/// `--burst-negative`: drive the real transmit → depacketize path with a
/// burst deliberately beyond the `depth × parity` interleave budget, then
/// hand the run's counters to the link doctor. Passes only if the decode
/// layer declares every group codeword an unrecoverable burst *and* the
/// doctor pins the packet losses on the `unrecoverable-burst` bin with its
/// ledgers still balancing.
fn burst_negative() -> Result<String, String> {
    let depth = 8usize;
    let order = CskOrder::Csk8;
    let cfg = LinkConfig::paper_default(order, RATE_HZ, DeviceProfile::iphone5s().loss_ratio())
        .with_fec(depth);
    let tx = Transmitter::new(cfg.clone()).map_err(|e| format!("transmitter: {e}"))?;
    let budget = tx.budget();
    let (n, k) = (budget.n_bytes, budget.k_bytes);
    let parity = n - k;
    let code = budget.code();
    let mut de = Depacketizer::new(
        tx.constellation().clone(),
        Some(code.clone()),
        cfg.white_ratio(),
        budget.gap_symbols,
        cal_copies(&cfg),
    )
    .with_fec(Interleaver::new(depth, code).ok_or("depth unrealizable for this code")?);

    // One full group; then drop enough whole data packets that every
    // codeword carries more declared erasures than the parity can absorb.
    let data: Vec<u8> = (0..depth * k).map(|i| (i % 251) as u8).collect();
    let tr = tx.transmit(&data);
    let drop = parity / n.div_ceil(depth) + 1;
    if drop >= depth {
        return Err(format!(
            "burst of {drop} packets cannot exceed the budget at depth {depth}"
        ));
    }
    let data_spans: Vec<(usize, usize)> = tr
        .packets
        .iter()
        .filter(|p| p.kind == PacketKind::Data)
        .map(|p| (p.start, p.end))
        .collect();
    let sent = data_spans.len();
    let dropped: Vec<(usize, usize)> = data_spans.iter().skip(1).take(drop).copied().collect();

    // Classify the surviving wire symbols into one frame of observed bands
    // (frame boundaries are irrelevant here: the burst is injected at
    // symbol granularity, exactly what a multi-frame gap run produces).
    let mut bands: Vec<ObservedBand> = Vec::new();
    for (i, &s) in tr.symbols.iter().enumerate() {
        if dropped
            .iter()
            .any(|&(start, end)| (start..end).contains(&i))
        {
            continue;
        }
        bands.push(ObservedBand {
            label: match s {
                Symbol::Off => Label::Off,
                Symbol::White => Label::White,
                Symbol::Color(c) => Label::Color(c),
            },
            color_idx: match s {
                Symbol::Color(c) => c,
                _ => 0,
            },
            nn_idx: match s {
                Symbol::Color(c) => c,
                _ => 0,
            },
            feature: colorbars_color::Lab::new(
                match s {
                    Symbol::Off => 0.0,
                    Symbol::White => 90.0,
                    Symbol::Color(c) => 40.0 + c as f64,
                },
                0.0,
                0.0,
            ),
            frame_index: 0,
        });
    }
    let survived = bands.len();
    let mut packets = de.push_frame(&bands);
    packets.extend(de.finish());

    // Tally the decode outcomes into the doctor's counter vocabulary.
    let mut ok = 0u64;
    let mut fec_ok = 0u64;
    let mut rescued = 0u64;
    let mut bursts = 0u64;
    let mut fails = [0u64; 4]; // header, overrun, rs, undecoded
    for p in &packets {
        match p {
            ParsedPacket::Data {
                via_interleave,
                erasures_recovered,
                errors_corrected,
                ..
            } => {
                ok += 1;
                if *via_interleave {
                    fec_ok += 1;
                    if erasures_recovered + errors_corrected > 0 {
                        rescued += 1;
                    }
                }
            }
            ParsedPacket::DataFailed { reason, .. } => match reason {
                FailReason::UnrecoverableBurst => bursts += 1,
                FailReason::BadHeader => fails[0] += 1,
                FailReason::Overrun => fails[1] += 1,
                FailReason::RsCapacityExceeded => fails[2] += 1,
                FailReason::DecoderDisabled => fails[3] += 1,
            },
            _ => {}
        }
    }
    if bursts == 0 {
        return Err(format!(
            "a {drop}-packet burst (budget {} erasure bytes/codeword, \
             {} declared) produced no UnrecoverableBurst outcome",
            parity,
            drop * n.div_ceil(depth)
        ));
    }

    let doctor = Doctor::from_counters([
        ("tx.symbols", tr.symbols.len() as u64),
        ("tx.packets.data", sent as u64),
        ("rx.bands.segmented", survived as u64),
        ("rx.bands.classified", survived as u64),
        ("rx.bands.calibrated", survived as u64),
        ("rx.bands.depacketized", survived as u64),
        ("rx.packets.ok", ok),
        ("rx.packets.header_lost", fails[0]),
        ("rx.packets.overrun", fails[1]),
        ("rx.packets.rs_failed", fails[2]),
        ("rx.packets.undecoded", fails[3]),
        ("rx.packets.unrecoverable_burst", bursts),
        ("rx.fec.groups", de.fec_groups() as u64),
        ("rx.fec.codewords", de.fec_codewords() as u64),
        ("rx.fec.codewords_ok", fec_ok),
        ("rx.fec.recovered_by_interleave", rescued),
        ("rx.fec.segments_missing", de.fec_segments_missing() as u64),
    ]);
    let diagnosis = doctor.diagnose();
    if !diagnosis.is_consistent() {
        return Err(format!(
            "doctor ledgers inconsistent: {:?}",
            diagnosis.violations
        ));
    }
    let burst_bin = diagnosis
        .attributions
        .iter()
        .find(|a| a.category == "unrecoverable-burst" && !a.advisory)
        .ok_or("no unrecoverable-burst attribution in the diagnosis")?;
    if burst_bin.amount != bursts {
        return Err(format!(
            "unrecoverable-burst attribution carries {} packets, decode saw {bursts}",
            burst_bin.amount
        ));
    }
    Ok(format!(
        "burst drill: {drop}/{sent} packets dropped at depth {depth} \
         (n={n}, parity={parity}) → {bursts} codewords declared \
         unrecoverable, doctor attribution consistent\n{}",
        diagnosis.render_text()
    ))
}
