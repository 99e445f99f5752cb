//! End-to-end multi-transmitter link simulation.
//!
//! [`MultiLinkSimulator`] runs the whole multiple-access chain:
//!
//! 1. N independent transmitters each build their own symbol stream and
//!    LED schedule (shared link configuration, per-transmitter payloads).
//! 2. [`Scene`] composes the emitters onto the image plane; one
//!    [`colorbars_camera::CameraRig`] captures the composite with the full
//!    sensor model (`capture_video_scene`).
//! 3. The receive side segments the columns ([`segment_columns`]) with no
//!    knowledge of the layout and decodes each detected region with its
//!    own [`Receiver`], one region after another on the caller's thread.
//! 4. Each region's report is scored against its transmitter's ground
//!    truth with the exact single-link semantics
//!    ([`colorbars_core::compute_metrics`]), then merged into
//!    [`MultiLinkMetrics`]: per-TX SER/goodput, aggregate throughput, and
//!    cross-talk error attribution (symbol errors whose demodulated color
//!    matches what an *adjacent* transmitter had on air at that instant).

use crate::scene::{Scene, SceneLayout, SceneTransmitter};
use crate::segment::{segment_columns, ColumnRegion, ColumnSegmenterConfig};
use colorbars_camera::{CameraRig, CaptureConfig, DeviceProfile};
use colorbars_channel::{AmbientLight, OpticalChannel};
use colorbars_core::receiver::DemodulatedBand;
use colorbars_core::{
    compute_metrics, start_phase, CskOrder, LinkConfig, LinkError, LinkMetrics, Receiver, Symbol,
    Transmission, Transmitter,
};
use colorbars_obs as obs;

/// Which measurement the multi-link run performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SceneMode {
    /// Uncoded random symbols, no RS at either end (the paper's SER / raw
    /// throughput configuration). Works at every operating point.
    Raw,
    /// Full coded pipeline with RS-protected random payloads; goodput is
    /// meaningful. Requires a realizable packet budget.
    Coded,
}

/// Per-transmitter result of a multi-link run.
#[derive(Debug, Clone)]
pub struct TxOutcome {
    /// Transmitter index (left to right on the image plane).
    pub tx: usize,
    /// The true column span the transmitter occupied.
    pub span: (usize, usize),
    /// The detected region assigned to this transmitter, if any.
    pub region: Option<ColumnRegion>,
    /// Single-link metrics for this transmitter's decode (`None` when the
    /// segmenter found no region for it).
    pub metrics: Option<LinkMetrics>,
    /// Symbol errors among this transmitter's calibrated data bands.
    pub ser_errors: usize,
    /// The subset of [`TxOutcome::ser_errors`] where the demodulated color
    /// equals what an adjacent transmitter had on air at that timestamp —
    /// errors attributable to optical cross-talk rather than noise.
    pub crosstalk_errors: usize,
}

/// Merged metrics of one multi-link run.
#[derive(Debug, Clone)]
pub struct MultiLinkMetrics {
    /// One outcome per transmitter, in span order.
    pub per_tx: Vec<TxOutcome>,
    /// Sum of per-TX raw throughput over detected transmitters, bits/s.
    pub aggregate_throughput_bps: f64,
    /// Sum of per-TX goodput over detected transmitters, bits/s.
    pub aggregate_goodput_bps: f64,
    /// Mean SER over transmitters with at least one scored band.
    pub mean_ser: f64,
    /// Transmitters the segmenter located (and that were decoded).
    pub detected: usize,
    /// Detected regions that matched no transmitter span (false positives).
    pub unmatched_regions: usize,
    /// Longest per-transmitter airtime, seconds.
    pub airtime: f64,
}

/// N transmitters + one camera + per-region receivers, ready to run.
#[derive(Debug)]
pub struct MultiLinkSimulator {
    config: LinkConfig,
    device: DeviceProfile,
    channels: Vec<OpticalChannel>,
    layout: SceneLayout,
    capture: CaptureConfig,
}

impl MultiLinkSimulator {
    /// Assemble a multi-link simulator: one optical channel per
    /// transmitter, all sharing the link configuration and the device. As
    /// with [`colorbars_core::LinkSimulator`], the RS plan is sized for the
    /// device's actual loss ratio. The capture ROI width is derived from
    /// the scene layout at run time (any `roi_width` in `capture` is
    /// overridden).
    ///
    /// # Panics
    /// Panics when `channels` is empty or the layout is invalid (spans
    /// narrower than 2 columns, bleed outside `[0, 1)`) — these are
    /// programming errors, not operating-point failures.
    pub fn new(
        mut config: LinkConfig,
        device: DeviceProfile,
        channels: Vec<OpticalChannel>,
        layout: SceneLayout,
        capture: CaptureConfig,
    ) -> Result<MultiLinkSimulator, LinkError> {
        assert!(!channels.is_empty(), "scene needs at least one transmitter");
        assert!(layout.cols_per_tx >= 2, "spans need at least 2 columns");
        assert!((0.0..1.0).contains(&layout.bleed), "bleed must be in [0,1)");
        config.loss_ratio = device.loss_ratio();
        config.validate()?;
        Ok(MultiLinkSimulator {
            config,
            device,
            channels,
            layout,
            capture,
        })
    }

    /// The paper's bench setup extended to `tx_count` transmitters: every
    /// transmitter behind its own copy of the paper's optical channel, the
    /// default layout, and the default capture at `seed`.
    pub fn paper_setup(
        order: CskOrder,
        symbol_rate: f64,
        device: DeviceProfile,
        tx_count: usize,
        seed: u64,
    ) -> Result<MultiLinkSimulator, LinkError> {
        let config = LinkConfig::paper_default(order, symbol_rate, device.loss_ratio());
        let capture = CaptureConfig {
            seed,
            ..CaptureConfig::default()
        };
        MultiLinkSimulator::new(
            config,
            device,
            vec![OpticalChannel::paper_setup(); tx_count],
            SceneLayout::default(),
            capture,
        )
    }

    /// Link configuration in force.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Number of transmitters in the scene.
    pub fn tx_count(&self) -> usize {
        self.channels.len()
    }

    /// Run ~`seconds` of airtime on every transmitter and decode all links.
    pub fn run(
        &self,
        mode: SceneMode,
        seconds: f64,
        seed: u64,
    ) -> Result<MultiLinkMetrics, LinkError> {
        let _span = obs::span!("scene.run");
        let n = self.channels.len();

        // --- Transmit side: independent payloads, shared configuration.
        let mut transmissions = Vec::with_capacity(n);
        let mut scene_txs = Vec::with_capacity(n);
        for (k, channel) in self.channels.iter().enumerate() {
            let (transmission, emitter) =
                self.build_transmission(mode, seconds, tx_seed(seed, k))?;
            transmissions.push(transmission);
            scene_txs.push(SceneTransmitter {
                emitter,
                channel: channel.clone(),
            });
        }
        // The guard gaps show the dim indoor ambient of the paper's setup.
        let scene = Scene::compose(scene_txs, self.layout, AmbientLight::dim_indoor())
            .expect("layout validated at construction");
        obs::counter!("scene.transmitters", n);

        // --- Capture the composite scene once for all links.
        let mut capture = self.capture;
        capture.roi_width = scene.width();
        let mut rig = CameraRig::new(self.device.clone(), self.channels[0].clone(), capture);
        rig.settle_exposure_scene(&scene, 12);
        let phase = start_phase(capture.seed, self.device.frame_period());
        let airtime = transmissions
            .iter()
            .map(|t| t.duration(self.config.symbol_rate))
            .fold(0.0, f64::max);
        let frames_needed = (airtime * self.device.fps).ceil() as usize;
        let frames = {
            let _capture = obs::span!("scene.capture");
            rig.capture_video_scene(&scene, phase, frames_needed.max(1))
        };
        obs::counter!("scene.frames", frames.len());

        // --- Receive side: locate the transmitters, one receiver each.
        let regions = segment_columns(&frames, &ColumnSegmenterConfig::default());
        let (assigned, unmatched_regions) = assign_regions(&scene, &regions);

        let mut reports = Vec::new();
        for (k, region) in assigned.iter().enumerate() {
            let Some(region) = *region else { continue };
            let mut rx = match mode {
                SceneMode::Raw => Receiver::new_raw(self.config.clone(), self.device.row_time())?,
                SceneMode::Coded => Receiver::new(self.config.clone(), self.device.row_time())?,
            };
            let _decode = obs::span!("scene.region_decode");
            for f in &frames {
                let cropped = f.crop_columns(region.col_start, region.col_end);
                rx.process_frame(&cropped);
            }
            reports.push((k, rx.finish()));
        }

        // --- Score every link with the single-link semantics.
        let mut per_tx: Vec<TxOutcome> = (0..n)
            .map(|k| TxOutcome {
                tx: k,
                span: scene.tx_span(k),
                region: assigned[k],
                metrics: None,
                ser_errors: 0,
                crosstalk_errors: 0,
            })
            .collect();
        for (k, report) in reports {
            let own = &transmissions[k];
            let neighbors: Vec<&Transmission> = [k.checked_sub(1), k.checked_add(1)]
                .into_iter()
                .flatten()
                .filter_map(|j| transmissions.get(j))
                .collect();
            let (errors, crosstalk) =
                attribute_crosstalk(&report.bands, own, &neighbors, self.config.symbol_rate);
            let tx_airtime = own.duration(self.config.symbol_rate);
            per_tx[k].metrics = Some(compute_metrics(
                &self.config,
                self.device.fps,
                own,
                report,
                tx_airtime,
            ));
            per_tx[k].ser_errors = errors;
            per_tx[k].crosstalk_errors = crosstalk;
        }

        let detected = per_tx.iter().filter(|o| o.metrics.is_some()).count();
        let aggregate_throughput_bps = per_tx
            .iter()
            .filter_map(|o| o.metrics.as_ref())
            .map(|m| m.throughput_bps)
            .sum();
        let aggregate_goodput_bps = per_tx
            .iter()
            .filter_map(|o| o.metrics.as_ref())
            .map(|m| m.goodput_bps)
            .sum();
        let scored: Vec<f64> = per_tx
            .iter()
            .filter_map(|o| o.metrics.as_ref())
            .filter(|m| m.ser_bands > 0)
            .map(|m| m.ser)
            .collect();
        let mean_ser = if scored.is_empty() {
            0.0
        } else {
            scored.iter().sum::<f64>() / scored.len() as f64
        };
        obs::counter!("scene.tx_detected", detected);
        obs::counter!("scene.regions_unmatched", unmatched_regions);
        // Error attribution for the link doctor: total demodulation errors
        // across links, and the subset explained by a neighbor's color.
        let total_errors: usize = per_tx.iter().map(|o| o.ser_errors).sum();
        let total_crosstalk: usize = per_tx.iter().map(|o| o.crosstalk_errors).sum();
        obs::counter!("scene.ser_errors", total_errors);
        obs::counter!("scene.crosstalk_bands", total_crosstalk);
        Ok(MultiLinkMetrics {
            per_tx,
            aggregate_throughput_bps,
            aggregate_goodput_bps,
            mean_ser,
            detected,
            unmatched_regions,
            airtime,
        })
    }

    /// One transmitter's symbol stream + LED schedule for the run.
    fn build_transmission(
        &self,
        mode: SceneMode,
        seconds: f64,
        seed: u64,
    ) -> Result<(Transmission, colorbars_led::LedEmitter), LinkError> {
        match mode {
            SceneMode::Raw => {
                let t = Transmitter::transmit_raw(&self.config, seconds, seed)?;
                let e = Transmitter::schedule_for(&self.config, &t);
                Ok((t, e))
            }
            SceneMode::Coded => {
                use rand::{Rng, SeedableRng};
                let tx = Transmitter::new(self.config.clone())?;
                // Same payload sizing as LinkSimulator::run_random: one
                // k-byte data packet per non-calibration frame slot.
                let packets_per_sec =
                    (self.config.frame_rate - self.config.calibration_rate).max(1.0);
                let k_bytes = tx.budget().k_bytes;
                let data_bytes = (packets_per_sec * seconds) as usize * k_bytes;
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let data: Vec<u8> = (0..data_bytes.max(k_bytes)).map(|_| rng.gen()).collect();
                let t = tx.transmit(&data);
                let e = tx.schedule(&t);
                Ok((t, e))
            }
        }
    }
}

/// Independent per-transmitter payload seed (splitmix-style mix so TX 0's
/// stream at seed s never collides with TX 1's at seed s).
fn tx_seed(seed: u64, k: usize) -> u64 {
    let mut z = seed ^ (k as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 27)
}

/// Greedily assign detected regions to transmitter spans by maximum column
/// overlap. Returns the per-transmitter assignment plus the count of
/// regions that matched no span at all.
fn assign_regions(scene: &Scene, regions: &[ColumnRegion]) -> (Vec<Option<ColumnRegion>>, usize) {
    let n = scene.tx_count();
    let mut assigned: Vec<Option<ColumnRegion>> = vec![None; n];
    let mut used = vec![false; regions.len()];
    for (k, slot) in assigned.iter_mut().enumerate() {
        let (s, e) = scene.tx_span(k);
        let best = regions
            .iter()
            .enumerate()
            .filter(|(i, r)| !used[*i] && r.overlap(s, e) > 0)
            .max_by_key(|(_, r)| r.overlap(s, e));
        if let Some((i, r)) = best {
            used[i] = true;
            *slot = Some(*r);
        }
    }
    let unmatched = used.iter().filter(|&&u| !u).count();
    (assigned, unmatched)
}

/// Count symbol errors among calibrated data bands, and how many of them
/// are attributable to a neighbor: the demodulated color equals what an
/// adjacent transmitter had on air at the band's timestamp (and differs
/// from the own truth). These are the errors guard gaps and bleed control.
fn attribute_crosstalk(
    bands: &[DemodulatedBand],
    own: &Transmission,
    neighbors: &[&Transmission],
    symbol_rate: f64,
) -> (usize, usize) {
    let mut errors = 0usize;
    let mut crosstalk = 0usize;
    for b in bands {
        if !b.calibrated {
            continue;
        }
        let Some(Symbol::Color(truth)) = own.symbol_at(b.timestamp, symbol_rate) else {
            continue;
        };
        if b.color_idx == truth {
            continue;
        }
        errors += 1;
        let leaked = neighbors.iter().any(|nb| {
            matches!(
                nb.symbol_at(b.timestamp, symbol_rate),
                Some(Symbol::Color(c)) if c == b.color_idx
            )
        });
        if leaked {
            crosstalk += 1;
        }
    }
    (errors, crosstalk)
}

#[cfg(test)]
mod tests {
    use super::*;
    use colorbars_camera::Vignette;

    fn band(timestamp: f64, color_idx: u16) -> DemodulatedBand {
        DemodulatedBand {
            frame_index: 0,
            center_row: 0,
            timestamp,
            label: colorbars_core::Label::Color(color_idx),
            color_idx,
            nn_idx: color_idx,
            calibrated: true,
        }
    }

    fn stream(colors: &[u16]) -> Transmission {
        Transmission {
            symbols: colors.iter().map(|&c| Symbol::Color(c)).collect(),
            packets: vec![],
            budget: None,
            white_ratio: 0.0,
        }
    }

    #[test]
    fn crosstalk_attribution_separates_neighbor_hits_from_noise() {
        // Own truth is color 0 throughout; the neighbor transmits color 3.
        let own = stream(&[0; 100]);
        let nb = stream(&[3; 100]);
        let rate = 1000.0;
        let bands = vec![
            band(0.010, 0), // correct: no error
            band(0.020, 3), // error, matches neighbor → crosstalk
            band(0.030, 5), // error, matches nobody → noise
            band(0.040, 3), // crosstalk again
        ];
        let (errors, crosstalk) = attribute_crosstalk(&bands, &own, &[&nb], rate);
        assert_eq!(errors, 3);
        assert_eq!(crosstalk, 2);

        // Uncalibrated bands and bands past the end of the stream are
        // excluded entirely.
        let mut late = band(10.0, 3);
        late.calibrated = true;
        let mut boot = band(0.020, 3);
        boot.calibrated = false;
        let (errors, crosstalk) = attribute_crosstalk(&[late, boot], &own, &[&nb], rate);
        assert_eq!((errors, crosstalk), (0, 0));
    }

    #[test]
    fn region_assignment_matches_by_overlap_and_counts_strays() {
        let led = colorbars_led::TriLed::typical();
        let mk = |_| SceneTransmitter {
            emitter: colorbars_led::LedEmitter::new(
                led,
                200_000.0,
                &[colorbars_led::ScheduledColor {
                    drive: colorbars_led::DriveLevels::OFF,
                    duration: 1.0,
                }],
            ),
            channel: OpticalChannel::ideal(),
        };
        let scene = Scene::compose(
            (0..2).map(mk).collect(),
            SceneLayout {
                cols_per_tx: 8,
                guard_cols: 4,
                bleed: 0.0,
            },
            AmbientLight::none(),
        )
        .unwrap();
        // Spans are [0,8) and [12,20). Detected: one shifted into TX0, one
        // inside TX1, one stray entirely in the guard gap... which overlaps
        // nothing and must count as unmatched.
        let r = |s, e| ColumnRegion {
            col_start: s,
            col_end: e,
            score: 1.0,
        };
        let (assigned, unmatched) = assign_regions(&scene, &[r(1, 9), r(9, 12), r(13, 19)]);
        assert_eq!(assigned[0], Some(r(1, 9)));
        assert_eq!(assigned[1], Some(r(13, 19)));
        assert_eq!(unmatched, 1);
    }

    /// Small but real end-to-end run: two transmitters, ideal channel and
    /// device, raw mode. Both links must be found and decoded.
    #[test]
    fn two_transmitter_scene_decodes_both_links() {
        let mut device = DeviceProfile::ideal();
        device.rows = 512;
        let config = LinkConfig::paper_default(CskOrder::Csk8, 1000.0, device.loss_ratio());
        let capture = CaptureConfig {
            vignette: Vignette::none(),
            seed: 42,
            ..Default::default()
        };
        let layout = SceneLayout {
            cols_per_tx: 8,
            guard_cols: 4,
            bleed: 0.0,
        };
        let sim = MultiLinkSimulator::new(
            config,
            device,
            vec![OpticalChannel::ideal(); 2],
            layout,
            capture,
        )
        .unwrap();
        let m = sim.run(SceneMode::Raw, 0.08, 7).unwrap();
        assert_eq!(m.per_tx.len(), 2);
        assert_eq!(m.detected, 2, "both transmitters located: {:?}", m.per_tx);
        for o in &m.per_tx {
            let metrics = o.metrics.as_ref().expect("decoded");
            assert!(metrics.report.stats.bands > 0, "TX{} saw bands", o.tx);
            let region = o.region.expect("assigned");
            assert!(
                region.overlap(o.span.0, o.span.1) * 2 >= region.width(),
                "TX{} region {:?} mostly inside span {:?}",
                o.tx,
                region,
                o.span
            );
            assert!(o.crosstalk_errors <= o.ser_errors);
        }
        assert!(m.airtime > 0.0);
        assert!(m.mean_ser >= 0.0 && m.mean_ser <= 1.0);
    }
}
