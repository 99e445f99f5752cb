//! Decoding a captured clip, timed from outside, and the traced replay of
//! the receiver's stages.
//!
//! A traced decode runs the clip through a fresh [`Receiver`] with a span
//! around every `process_frame`, and beside each call re-runs the
//! receiver's per-frame stages from outside on the same frame:
//! `row_signal`, `segment`, and classification against the receiver's
//! reference store as it stood before the frame. Whichever reads a frame
//! second finds it in cache, so the two alternate going first. After
//! `finish`, a separate [`Depacketizer`] is fed the report's band verdicts
//! with the outside features. The replay must reproduce the receiver's band
//! counts and recovered chunks exactly, and its stage times must add up to
//! the receiver's (the closure rule, see README.md).
//!
//! [`Receiver`]: colorbars_core::Receiver

use crate::links::{mix, Link};
use crate::metrics::{median, per_link, ratio, Outcome, SEGMENT_FRAMES};
use crate::reference::Reference;
use crate::trace::{ms, Trace};
use colorbars_camera::Frame;
use colorbars_core::classify::{classify, nearest_color};
use colorbars_core::depacket::{Depacketizer, ObservedBand, ParsedPacket};
use colorbars_core::receiver::ReceiverStats;
use colorbars_core::segmentation::{row_signal, segment, Band, SegmentationConfig};
use colorbars_core::transmitter::cal_copies;
use colorbars_core::{CapturedRun, LinkMetrics, ReceiverReport, ReferenceStore, TrainedEqualizer};
use std::hint::black_box;
use std::time::Instant;

/// One decoded clip.
#[derive(Debug)]
pub struct Decoded {
    pub metrics: LinkMetrics,
    /// `process_frame` wall time of each frame, ms.
    pub frame_ms: Vec<f64>,
    /// The decode's units for [`Units`](crate::metrics::Units), each with
    /// the reference kernel's time after it, seconds: `process_frame` of
    /// each segment of [`SEGMENT_FRAMES`] frames, then receiver
    /// construction, `finish` and `score` together. Empty unless decoded
    /// by [`decode_units`].
    pub units: Vec<(f64, f64)>,
}

/// Decode `run` through a fresh receiver: `process_frame` per frame, then
/// `finish`, then `score`. With a trace, record spans and replay the stages.
pub fn decode(
    link: &Link,
    run: &CapturedRun,
    trace: Option<(&mut Trace, Option<usize>)>,
) -> Result<Decoded, String> {
    match trace {
        Some((trace, parent)) => decode_traced(link, run, trace, parent),
        None => decode_with(link, run, None),
    }
}

/// An untraced decode that also times its units, running `reference`
/// after each one.
pub fn decode_units(
    link: &Link,
    run: &CapturedRun,
    reference: &Reference,
) -> Result<Decoded, String> {
    decode_with(link, run, Some(reference))
}

fn decode_with(
    link: &Link,
    run: &CapturedRun,
    reference: Option<&Reference>,
) -> Result<Decoded, String> {
    let t0 = Instant::now();
    let mut rx = link.receiver()?;
    let mut rest = t0.elapsed();
    let mut frame_ms = Vec::with_capacity(run.frames.len());
    let mut units = Vec::new();
    for segment in run.frames.chunks(SEGMENT_FRAMES) {
        let mut seconds = 0.0;
        for frame in segment {
            let t0 = Instant::now();
            rx.process_frame(frame);
            let elapsed = t0.elapsed();
            seconds += elapsed.as_secs_f64();
            frame_ms.push(ms(elapsed));
        }
        if let Some(r) = reference {
            units.push((seconds, r.time()));
        }
    }
    let t0 = Instant::now();
    let metrics = link.sim.score(run, rx.finish());
    rest += t0.elapsed();
    if let Some(r) = reference {
        units.push((rest.as_secs_f64(), r.time()));
    }
    Ok(Decoded {
        metrics,
        frame_ms,
        units,
    })
}

fn decode_traced(
    link: &Link,
    run: &CapturedRun,
    trace: &mut Trace,
    parent: Option<usize>,
) -> Result<Decoded, String> {
    let span = trace.open("link.decode", link.slot, parent);
    let mut rx = link.receiver()?;
    let seg = *rx.segmentation();
    let ideal: Vec<(f64, f64)> = (0..rx.store().len())
        .map(|i| rx.store().ideal_reference(i))
        .collect();
    let mut frame_ms = Vec::with_capacity(run.frames.len());
    let mut bands = Vec::with_capacity(run.frames.len());
    for (k, frame) in run.frames.iter().enumerate() {
        let id = k as u64;
        let store = rx.store().clone();
        let equalizer = rx.equalizer().cloned();
        let outside =
            |trace: &mut Trace| stages(trace, span, id, frame, &seg, &store, equalizer.as_ref());
        if k % 2 == 1 {
            bands.push(outside(trace));
        }
        let t0 = Instant::now();
        rx.process_frame(frame);
        let t1 = Instant::now();
        trace.record("receiver.process_frame", id, span, (t0, t1), 0);
        frame_ms.push(ms(t1 - t0));
        if k % 2 == 0 {
            bands.push(outside(trace));
        }
    }
    let report = trace.time("receiver.finish", 0, span, || rx.finish());
    let metrics = link.sim.score(run, report);
    trace.close(span);
    replay_depacketizer(link, run, &bands, &metrics.report, &ideal, trace, parent)?;
    Ok(Decoded {
        metrics,
        frame_ms,
        units: Vec::new(),
    })
}

/// The receiver's per-frame stages, called from outside: bands of the
/// frame, classified against the receiver's state before it.
fn stages(
    trace: &mut Trace,
    parent: Option<usize>,
    id: u64,
    frame: &Frame,
    seg: &SegmentationConfig,
    store: &ReferenceStore,
    equalizer: Option<&TrainedEqualizer>,
) -> Vec<Band> {
    let span = trace.open("replay.frame", id, parent);
    let signal = trace.time("segmentation.row_signal", id, span, || row_signal(frame));
    let bands = trace.time("segmentation.segment", id, span, || segment(&signal, seg));
    trace.time("classify.frame", id, span, || {
        for b in &bands {
            black_box(nearest_color(b.feature, store));
            black_box(classify(b.feature, store));
            if let Some(eq) = equalizer {
                black_box(eq.classify(b.feature));
            }
        }
    });
    trace.close(span);
    bands
}

/// Feed an outside [`Depacketizer`] the report's band verdicts with the
/// outside features, frame by frame, and check it recovers the receiver's
/// chunks.
fn replay_depacketizer(
    link: &Link,
    run: &CapturedRun,
    bands: &[Vec<Band>],
    report: &ReceiverReport,
    ideal: &[(f64, f64)],
    trace: &mut Trace,
    parent: Option<usize>,
) -> Result<(), String> {
    let config = link.sim.config();
    let label = link.label;
    // Built exactly as `Receiver` builds its own.
    let code = if link.raw {
        None
    } else {
        let budget = config
            .packet_budget()
            .map_err(|e| format!("{label}: {e}"))?;
        Some(budget.code())
    };
    let gap_symbols = config.loss_ratio * config.symbol_rate / config.frame_rate;
    let mut depacketizer = Depacketizer::new(
        config.constellation(),
        code.clone(),
        config.white_ratio(),
        gap_symbols,
        cal_copies(config),
    );
    if let (Some(fec), Some(code)) = (config.fec, code) {
        let interleaver = colorbars_fec::Interleaver::new(fec.depth, code)
            .ok_or_else(|| format!("{label}: depth {} unrealizable", fec.depth))?;
        depacketizer = depacketizer.with_fec(interleaver);
    }

    let span = trace.open("replay.depacket", link.slot, parent);
    let mut packets = Vec::new();
    let mut cursor = 0usize;
    for (k, (frame, bands)) in run.frames.iter().zip(bands).enumerate() {
        let verdicts = &report.bands[cursor.min(report.bands.len())..];
        let theirs = verdicts
            .iter()
            .take_while(|b| b.frame_index == frame.meta.index)
            .count();
        if theirs != bands.len() {
            return Err(format!(
                "{label} frame {k}: outside segmentation found {} bands, the report has {theirs}",
                bands.len()
            ));
        }
        let observed: Vec<ObservedBand> = verdicts[..theirs]
            .iter()
            .zip(bands)
            .map(|(v, b)| ObservedBand {
                label: v.label,
                color_idx: v.color_idx,
                nn_idx: v.nn_idx,
                feature: b.feature,
                frame_index: v.frame_index,
            })
            .collect();
        cursor += theirs;
        let out = trace.time("depacket.push_frame", k as u64, span, || {
            depacketizer.push_frame(&observed)
        });
        packets.extend(out);
    }
    let out = trace.time("depacket.finish", 0, span, || depacketizer.finish());
    packets.extend(out);

    // What `Receiver::absorb` does with the packets that costs time:
    // collect chunks, and fit the configured classifier to each preamble
    // over the receiver's window of the last four (a no-op for nearest
    // neighbor).
    let mut chunks = Vec::new();
    let mut samples = Vec::new();
    for p in packets {
        match p {
            ParsedPacket::Data { chunk, .. } => chunks.push(chunk),
            ParsedPacket::Calibration { features } => {
                samples.extend(features);
                let cap = 4 * ideal.len().max(1);
                if samples.len() > cap {
                    samples.drain(..samples.len() - cap);
                }
                trace.time("equalizer.fit", 0, span, || {
                    black_box(TrainedEqualizer::fit(config.equalizer, &samples, ideal)).ok();
                });
            }
            _ => {}
        }
    }
    trace.close(span);
    if cursor != report.bands.len() {
        return Err(format!(
            "{label}: replay consumed {cursor} of the report's {} bands",
            report.bands.len()
        ));
    }
    if chunks.len() != report.stats.packets_ok || chunks != report.chunks {
        return Err(format!(
            "{label}: outside depacketizer recovered {} chunks, the receiver {} ({} packets ok)",
            chunks.len(),
            report.chunks.len(),
            report.stats.packets_ok
        ));
    }
    Ok(())
}

/// The deterministic quality of one pass over a workload's inputs.
#[derive(Debug, Default)]
pub struct Quality {
    ser_errors: f64,
    ser_bands: f64,
    /// Per decoded clip: goodput (coded) or throughput × (1 − SER) (raw).
    goodput: Vec<f64>,
    delivered: f64,
    sent: f64,
    pub stats: Vec<ReceiverStats>,
}

impl Quality {
    pub fn add(&mut self, m: &LinkMetrics, run: &CapturedRun, raw: bool) {
        self.ser_errors += (m.ser * m.ser_bands as f64).round();
        self.ser_bands += m.ser_bands as f64;
        let packets = &run.transmission.packets;
        let data = packets
            .iter()
            .filter(|p| p.kind == colorbars_core::PacketKind::Data);
        if raw {
            // Raw mode decodes nothing: the useful rate is the symbols that
            // arrive right, and a packet is delivered when its framing parses.
            self.goodput.push(m.throughput_bps * (1.0 - m.ser));
            self.delivered += m.report.stats.packets_data_total as f64;
            self.sent += data.count() as f64;
        } else {
            self.goodput.push(m.goodput_bps);
            self.delivered += m.report.stats.packets_ok as f64;
            self.sent += data.filter(|p| p.chunk.is_some()).count() as f64;
        }
        self.stats.push(m.report.stats.clone());
    }

    pub fn ser(&self) -> f64 {
        ratio(self.ser_errors, self.ser_bands)
    }

    pub fn goodput_sum(&self) -> f64 {
        self.goodput.iter().sum()
    }

    pub fn goodput_mean(&self) -> f64 {
        ratio(self.goodput_sum(), self.goodput.len() as f64)
    }

    pub fn delivery(&self) -> f64 {
        ratio(self.delivered, self.sent)
    }

    fn total(&self, f: impl Fn(&ReceiverStats) -> usize) -> f64 {
        self.stats.iter().map(f).sum::<usize>() as f64
    }

    /// The per-layer counts and useful-outcome ratios of the pass.
    pub fn set_layers(&self, out: &mut Outcome) {
        out.set("classify.ser", self.ser());
        out.set("fec.codewords", self.total(|s| s.fec_codewords));
        out.set(
            "fec.recovered_by_interleave",
            self.total(|s| s.fec_recovered_by_interleave),
        );
        out.set(
            "receiver.packet_ok_ratio",
            ratio(
                self.total(|s| s.packets_ok),
                self.total(|s| s.packets_data_total),
            ),
        );
        out.set(
            "receiver.calibration_ok_ratio",
            ratio(
                self.total(|s| s.calibrations),
                self.total(|s| s.calibrations + s.calibrations_failed),
            ),
        );
        out.set(
            "receiver.bands_per_frame",
            ratio(self.total(|s| s.bands), self.total(|s| s.frames)),
        );
    }
}

/// Per-layer times of the decodes: receiver percentiles per link from the
/// untraced decodes (`untraced_ms`, each link's frame times), per-frame
/// stage means from the traced ones, and the closure of stage totals
/// against `process_frame` totals over the traced frames.
pub fn set_receiver_layers(trace: &Trace, untraced_ms: &[Vec<f64>], out: &mut Outcome) {
    let total = |name: &str| trace.self_ms_of(name).iter().sum::<f64>();
    let frames = trace.count("replay.frame") as f64;
    out.set("receiver.process_frame_p50_ms", per_link(untraced_ms, 0.5));
    out.set("receiver.process_frame_p99_ms", per_link(untraced_ms, 0.99));
    for (metric, span) in [
        ("segmentation.row_signal_ms", "segmentation.row_signal"),
        ("segmentation.segment_ms", "segmentation.segment"),
        ("classify.frame_ms", "classify.frame"),
        ("depacket.push_frame_ms", "depacket.push_frame"),
    ] {
        out.set(metric, ratio(total(span), frames));
    }
    // A mean, not a median: a nearest-neighbor fit is a no-op whose
    // nanosecond median could read the same in every run.
    let fits = trace.self_ms_of("equalizer.fit");
    out.set(
        "equalizer.fit_ms",
        ratio(fits.iter().sum(), fits.len() as f64),
    );
    out.set(
        "equalizer.fits",
        ratio(fits.len() as f64, trace.count("replay.depacket") as f64),
    );
    let staged: f64 = [
        "segmentation.row_signal",
        "segmentation.segment",
        "classify.frame",
        "depacket.push_frame",
        "depacket.finish",
        "equalizer.fit",
    ]
    .iter()
    .map(|s| total(s))
    .sum();
    let whole = total("receiver.process_frame") + total("receiver.finish");
    out.set("receiver.closure_ratio", ratio(staged, whole));
    out.set("receiver.unattributed_ms", ratio(whole - staged, frames));
    // The traced receiver against the untraced one, per link.
    let spans = trace.spans();
    let mut traced_ms = vec![Vec::new(); untraced_ms.len()];
    for s in spans.iter().filter(|s| s.name == "receiver.process_frame") {
        let slot = s.parent.map_or(0, |p| spans[p].id) as usize;
        traced_ms[slot].push(s.ms());
    }
    let untraced = per_link(untraced_ms, 0.5);
    out.set(
        "bench.trace_overhead_frac",
        ratio(per_link(&traced_ms, 0.5) - untraced, untraced),
    );
}

/// Per-layer times of the outside capture copies.
pub fn set_capture_layers(trace: &Trace, out: &mut Outcome) {
    for (metric, span) in [
        ("transmitter.transmit_ms", "transmitter.transmit"),
        ("camera.settle_exposure_ms", "camera.settle_exposure"),
        ("camera.capture_frame_ms", "camera.capture_frame"),
    ] {
        out.set(metric, median(&trace.self_ms_of(span)));
    }
}

/// `ReedSolomon::decode` on each link's code: median µs per decode,
/// averaged over the links. A coded link decodes with its mean erasures and
/// errors per recovered packet; a raw link, which decodes nothing, with the
/// load its operating point's RS plan is sized for (one inter-frame gap of
/// erasures, no errors). Links without a realizable plan are skipped. Also
/// the mean erasures per recovered codeword (0 in raw mode).
pub fn set_rs_layers(passes: &[(&Link, &ReceiverStats)], out: &mut Outcome) -> Result<(), String> {
    const DECODES: usize = 200;
    let mut times = Vec::new();
    let (mut erasures, mut recovered) = (0usize, 0usize);
    for (link, stats) in passes {
        let config = link.sim.config();
        let Ok(budget) = config.packet_budget() else {
            continue;
        };
        let label = link.label;
        let code = budget.code();
        let (n, k) = (code.n(), code.k());
        let per_packet = |x: usize| ratio(x as f64, stats.packets_ok as f64).round() as usize;
        let (e, r) = if link.raw {
            let bits = config.order.bits_per_symbol() as f64;
            let gap_bytes = (1.0 - config.white_ratio()) * bits * budget.gap_symbols / 8.0;
            (gap_bytes.ceil() as usize, 0)
        } else {
            (
                per_packet(stats.erasures_recovered),
                per_packet(stats.errors_corrected),
            )
        };
        let e = e.min(n - k);
        let r = r.min((n - k - e) / 2);
        erasures += stats.erasures_recovered;
        recovered += stats.packets_ok;
        let data: Vec<u8> = (0..k as u64).map(|i| mix(i, 3) as u8).collect();
        let mut word = code
            .encode(&data)
            .map_err(|len| format!("{label}: cannot encode {len} bytes"))?;
        // The erasures sit in one burst, as an inter-frame gap leaves them;
        // the errors spread over the rest.
        let erased: Vec<usize> = (0..e).collect();
        word[..e].fill(0);
        for j in 0..r {
            word[e + j * (n - e) / r] ^= 0x5A;
        }
        let mut samples = Vec::with_capacity(DECODES);
        for _ in 0..DECODES {
            let t0 = Instant::now();
            let decoded = code.decode(black_box(&word), &erased);
            samples.push(t0.elapsed().as_secs_f64() * 1e6);
            if !matches!(decoded, Ok(d) if d.data == data) {
                return Err(format!(
                    "{label}: RS({n},{k}) failed {e} erasures + {r} errors"
                ));
            }
        }
        times.push(median(&samples));
    }
    out.set(
        "rscode.decode_us",
        ratio(times.iter().sum(), times.len() as f64),
    );
    out.set(
        "rscode.erasures_per_codeword",
        ratio(erasures as f64, recovered as f64),
    );
    Ok(())
}
