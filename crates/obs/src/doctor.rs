//! The link doctor: ranked root-cause attribution of symbol/packet losses
//! from the pipeline-stage counter inventory.
//!
//! The paper's evaluation is an exercise in loss accounting — Table 1
//! attributes symbol loss to the inter-frame gap, Fig 9/11 separate raw
//! SER from RS-coded goodput. The counters recorded along the pipeline
//! (`tx.symbols` → `rx.bands.segmented` → … → `rx.packets.ok`) contain the
//! same accounting implicitly; this module makes it explicit. Given a
//! [`crate::snapshot`] or a parsed `results/<experiment>.json` run report,
//! [`Doctor::diagnose`] produces a [`Diagnosis`]: every loss category with
//! its magnitude and share, ranked, plus invariant checks that the
//! attributed losses telescope exactly to the total observed losses.
//!
//! ## The ledgers
//!
//! * **Symbols** — the band pipeline. Transmitted symbols that never
//!   became a depacketized band, attributed stage by stage: inter-frame
//!   gap (transmitted − segmented), exposure/blur mismatch (segmented −
//!   classified), framing residue (classified − depacketized). The stages
//!   telescope, so the categories sum to the total symbol loss *by
//!   construction* — [`Diagnosis::violations`] reports any stage where the
//!   pipeline ran backwards (a counter bug).
//! * **Packets** — the data-packet outcomes. Sent packets end as exactly
//!   one of ok / header-lost / RS-failed / overrun / undecoded /
//!   never-observed (the packet-granular shadow of the gap).
//! * **Repairs** — RS activity that *recovered* data rather than losing
//!   it: erasure bytes (gap-induced) vs corrected error bytes
//!   (noise-induced). Ranked alongside the losses but flagged
//!   `advisory`, and excluded from the loss invariants.
//! * **Fec** — cross-packet interleave accounting (interleaved runs
//!   only): codewords the interleaver rescued from a burst and group
//!   segments reconstructed as declared erasures. Advisory — a rescue is
//!   a packet saved — but the outcomes must balance: decoded + declared
//!   unrecoverable must equal the codewords attempted, or the run is
//!   flagged inconsistent.
//! * **Calibration** — the at-risk annotation: `rx.bands.calibrated`
//!   counts the subset of classified bands demodulated *after* the color
//!   reference first locked, so survivors − calibrated is the bootstrap
//!   window decoded against ideal references. Those bands were not lost
//!   (they reached the depacketizer), so the category is advisory too.

use crate::json::Value;
use crate::LiveSnapshot;
use std::collections::BTreeMap;

/// Which accounting stream a category belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ledger {
    /// Transmitted symbols that never reached the depacketizer.
    Symbols,
    /// Data packets that failed to decode.
    Packets,
    /// RS bytes repaired (recovered, **not** lost).
    Repairs,
    /// Bands decoded before the color reference locked (at risk, not lost).
    Calibration,
    /// Cross-packet interleave activity (codewords rescued from bursts).
    Fec,
}

impl Ledger {
    fn as_str(self) -> &'static str {
        match self {
            Ledger::Symbols => "symbols",
            Ledger::Packets => "packets",
            Ledger::Repairs => "repairs",
            Ledger::Calibration => "calibration",
            Ledger::Fec => "fec",
        }
    }
}

/// One attributed category.
#[derive(Debug, Clone)]
pub struct Attribution {
    /// Stable kebab-case id (`"inter-frame-gap"`, `"rs-correctable-noise"`).
    pub category: &'static str,
    /// The ledger this amount is accounted in.
    pub ledger: Ledger,
    /// Magnitude, in the ledger's unit.
    pub amount: u64,
    /// `amount` as a fraction of the ledger's total (0 when the ledger is
    /// empty).
    pub share: f64,
    /// Whether this category is *advisory* rather than a loss: RS repairs
    /// that recovered data, or bands merely decoded at risk (before
    /// calibration locked). Advisory categories are excluded from the loss
    /// invariants and from [`Diagnosis::dominant`].
    pub advisory: bool,
    /// One-line root-cause explanation.
    pub explanation: String,
}

impl Attribution {
    fn to_json(&self) -> Value {
        Value::object([
            ("category", Value::from(self.category)),
            ("ledger", Value::from(self.ledger.as_str())),
            ("amount", Value::from(self.amount)),
            ("share", Value::from(self.share)),
            ("advisory", Value::from(self.advisory)),
            ("explanation", Value::from(self.explanation.as_str())),
        ])
    }
}

/// The doctor's full verdict for one run.
#[derive(Debug, Clone)]
pub struct Diagnosis {
    /// Symbols put on air (`tx.symbols`).
    pub transmitted_symbols: u64,
    /// Bands that survived to the depacketizer (`rx.bands.depacketized`).
    pub surviving_symbols: u64,
    /// Data packets transmitted (`tx.packets.data`).
    pub data_packets_sent: u64,
    /// Data packets decoded (`rx.packets.ok`).
    pub data_packets_ok: u64,
    /// Loss/advisory categories, ranked most-severe (largest share)
    /// first. Advisory categories (RS repairs, uncalibrated bands) rank by
    /// their share of their own ledger but are excluded from the loss
    /// invariants.
    pub attributions: Vec<Attribution>,
    /// Invariant violations (empty for a consistent counter set).
    pub violations: Vec<String>,
}

impl Diagnosis {
    /// Total symbol loss: transmitted − surviving.
    pub fn total_symbol_loss(&self) -> u64 {
        self.transmitted_symbols
            .saturating_sub(self.surviving_symbols)
    }

    /// Sum of the symbol-ledger attributions.
    pub fn attributed_symbol_loss(&self) -> u64 {
        self.ledger_sum(Ledger::Symbols)
    }

    /// Total packet loss: sent − ok.
    pub fn total_packet_loss(&self) -> u64 {
        self.data_packets_sent.saturating_sub(self.data_packets_ok)
    }

    /// Sum of the packet-ledger attributions.
    pub fn attributed_packet_loss(&self) -> u64 {
        self.ledger_sum(Ledger::Packets)
    }

    fn ledger_sum(&self, ledger: Ledger) -> u64 {
        self.attributions
            .iter()
            .filter(|a| a.ledger == ledger && !a.advisory)
            .map(|a| a.amount)
            .sum()
    }

    /// Whether every invariant held: attributed losses sum to total losses
    /// in both ledgers and no pipeline stage ran backwards.
    pub fn is_consistent(&self) -> bool {
        self.violations.is_empty()
    }

    /// The top-ranked loss category, if any loss was observed.
    pub fn dominant(&self) -> Option<&Attribution> {
        self.attributions
            .iter()
            .find(|a| !a.advisory && a.amount > 0)
    }

    /// Serialize for reports and the `doctor` bin.
    pub fn to_json(&self) -> Value {
        Value::object([
            ("transmitted_symbols", Value::from(self.transmitted_symbols)),
            ("surviving_symbols", Value::from(self.surviving_symbols)),
            ("total_symbol_loss", Value::from(self.total_symbol_loss())),
            ("data_packets_sent", Value::from(self.data_packets_sent)),
            ("data_packets_ok", Value::from(self.data_packets_ok)),
            ("total_packet_loss", Value::from(self.total_packet_loss())),
            (
                "attributions",
                Value::Array(self.attributions.iter().map(Attribution::to_json).collect()),
            ),
            (
                "violations",
                Value::Array(
                    self.violations
                        .iter()
                        .map(|v| Value::from(v.as_str()))
                        .collect(),
                ),
            ),
            ("consistent", Value::from(self.is_consistent())),
        ])
    }

    /// Human-readable report.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "link doctor — ranked loss attribution");
        let _ = writeln!(
            out,
            "  symbols: {} transmitted, {} survived to depacketizer ({} lost)",
            self.transmitted_symbols,
            self.surviving_symbols,
            self.total_symbol_loss()
        );
        let _ = writeln!(
            out,
            "  packets: {} sent, {} decoded ({} lost)",
            self.data_packets_sent,
            self.data_packets_ok,
            self.total_packet_loss()
        );
        for a in &self.attributions {
            let kind = if a.advisory { "advisory" } else { "lost" };
            let _ = writeln!(
                out,
                "  {:>6.2}%  {:<22} {:>10} {} {}  — {}",
                a.share * 100.0,
                a.category,
                a.amount,
                a.ledger.as_str(),
                kind,
                a.explanation
            );
        }
        if self.violations.is_empty() {
            let _ = writeln!(out, "  invariants: OK (attributed losses sum to totals)");
        } else {
            for v in &self.violations {
                let _ = writeln!(out, "  INVARIANT VIOLATION: {v}");
            }
        }
        out
    }
}

/// The doctor: a counter set to be diagnosed.
#[derive(Debug, Clone, Default)]
pub struct Doctor {
    counters: BTreeMap<String, u64>,
}

impl Doctor {
    /// Diagnose a snapshot's counters (unlabeled ones, as
    /// [`crate::snapshot`] returns them).
    pub fn from_snapshot(snapshot: &LiveSnapshot) -> Doctor {
        Doctor {
            counters: snapshot
                .counters
                .iter()
                .map(|c| (c.id.name.clone(), c.value))
                .collect(),
        }
    }

    /// Diagnose an explicit counter set.
    pub fn from_counters<K, I>(counters: I) -> Doctor
    where
        K: Into<String>,
        I: IntoIterator<Item = (K, u64)>,
    {
        Doctor {
            counters: counters.into_iter().map(|(k, v)| (k.into(), v)).collect(),
        }
    }

    /// Diagnose a parsed `results/<experiment>.json` run report (reads its
    /// `"counters"` member).
    pub fn from_report(report: &Value) -> Result<Doctor, String> {
        Ok(Doctor {
            counters: crate::report::counters(report)?,
        })
    }

    /// One counter's value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Run the attribution.
    pub fn diagnose(&self) -> Diagnosis {
        let c = |name: &str| self.counter(name);
        let mut violations = Vec::new();

        // --- Symbol ledger: the band pipeline telescopes.
        let transmitted = c("tx.symbols");
        let segmented = c("rx.bands.segmented");
        let classified = c("rx.bands.classified");
        let calibrated = c("rx.bands.calibrated");
        let depacketized = c("rx.bands.depacketized");
        let stages = [
            ("tx.symbols", transmitted),
            ("rx.bands.segmented", segmented),
            ("rx.bands.classified", classified),
            ("rx.bands.depacketized", depacketized),
        ];
        for pair in stages.windows(2) {
            let (up_name, up) = pair[0];
            let (down_name, down) = pair[1];
            if down > up {
                violations.push(format!(
                    "pipeline ran backwards: {down_name}={down} exceeds {up_name}={up}"
                ));
            }
        }
        // `calibrated` annotates a subset of the classified bands rather
        // than being a stage of its own.
        if calibrated > classified {
            violations.push(format!(
                "rx.bands.calibrated={calibrated} exceeds rx.bands.classified={classified}"
            ));
        }

        let sym_total = transmitted.max(1) as f64;
        let symbol_share = |amount: u64| {
            if transmitted == 0 {
                0.0
            } else {
                amount as f64 / sym_total
            }
        };
        let mut attributions = vec![
            Attribution {
                category: "inter-frame-gap",
                ledger: Ledger::Symbols,
                amount: transmitted.saturating_sub(segmented),
                share: symbol_share(transmitted.saturating_sub(segmented)),
                advisory: false,
                explanation: "symbols on air while the rolling shutter sat in its \
                              inter-frame gap (Table 1's loss mechanism)"
                    .to_string(),
            },
            Attribution {
                category: "exposure-blur",
                ledger: Ledger::Symbols,
                amount: segmented.saturating_sub(classified),
                share: symbol_share(segmented.saturating_sub(classified)),
                advisory: false,
                explanation: "bands detected but rejected by classification — exposure \
                              clipping or PSF blur smeared the color"
                    .to_string(),
            },
            Attribution {
                category: "framing-residue",
                ledger: Ledger::Symbols,
                amount: classified.saturating_sub(depacketized),
                share: symbol_share(classified.saturating_sub(depacketized)),
                advisory: false,
                explanation: "classified bands consumed re-aligning packet framing".to_string(),
            },
        ];

        // Advisory: survivors decoded before the first calibration packet
        // locked the color reference (at risk of misclassification against
        // the ideal-geometry references, not lost).
        let uncalibrated = depacketized.saturating_sub(calibrated);
        if depacketized > 0 {
            attributions.push(Attribution {
                category: "calibration-bootstrap",
                ledger: Ledger::Calibration,
                amount: uncalibrated,
                share: uncalibrated as f64 / depacketized as f64,
                advisory: true,
                explanation: "surviving bands demodulated before the first calibration \
                              packet locked the color reference"
                    .to_string(),
            });
        }

        // --- Packet ledger: every sent data packet ends in exactly one bin.
        let sent = c("tx.packets.data");
        let ok = c("rx.packets.ok");
        let header_lost = c("rx.packets.header_lost");
        let rs_failed = c("rx.packets.rs_failed");
        let overrun = c("rx.packets.overrun");
        let undecoded = c("rx.packets.undecoded");
        let burst_lost = c("rx.packets.unrecoverable_burst");
        let observed = ok + header_lost + rs_failed + overrun + undecoded + burst_lost;
        if observed > sent {
            violations.push(format!(
                "packet outcomes ({observed}) exceed data packets sent ({sent})"
            ));
        }
        let never_observed = sent.saturating_sub(observed);
        let pkt_total = sent.max(1) as f64;
        let packet_share = |amount: u64| {
            if sent == 0 {
                0.0
            } else {
                amount as f64 / pkt_total
            }
        };
        attributions.extend([
            Attribution {
                category: "header-loss",
                ledger: Ledger::Packets,
                amount: header_lost,
                share: packet_share(header_lost),
                advisory: false,
                explanation: "packet headers damaged beyond the header's own protection"
                    .to_string(),
            },
            Attribution {
                category: "rs-failure",
                ledger: Ledger::Packets,
                amount: rs_failed,
                share: packet_share(rs_failed),
                advisory: false,
                explanation: "payload exceeded the RS code's correction budget".to_string(),
            },
            Attribution {
                category: "framing-overrun",
                ledger: Ledger::Packets,
                amount: overrun,
                share: packet_share(overrun),
                advisory: false,
                explanation: "packet framing overran the expected symbol budget".to_string(),
            },
            Attribution {
                category: "undecoded",
                ledger: Ledger::Packets,
                amount: undecoded,
                share: packet_share(undecoded),
                advisory: false,
                explanation: "packets parsed but never decoded (raw/uncoded run)".to_string(),
            },
            Attribution {
                category: "unrecoverable-burst",
                ledger: Ledger::Packets,
                amount: burst_lost,
                share: packet_share(burst_lost),
                advisory: false,
                explanation: "interleaved codewords whose burst exceeded the interleave \
                              budget (depth × parity)"
                    .to_string(),
            },
            Attribution {
                category: "packets-lost-to-gap",
                ledger: Ledger::Packets,
                amount: never_observed,
                share: packet_share(never_observed),
                advisory: false,
                explanation: "packets whose bands never reached the parser — the \
                              inter-frame gap at packet granularity"
                    .to_string(),
            },
        ]);

        // --- Fec ledger: cross-packet interleave accounting. Advisory —
        // a rescued codeword is a packet *saved*, not lost — but the
        // codeword outcomes must still balance: every interleaved
        // codeword either decoded or was declared an unrecoverable burst.
        let fec_codewords = c("rx.fec.codewords");
        let fec_ok = c("rx.fec.codewords_ok");
        let fec_rescued = c("rx.fec.recovered_by_interleave");
        let fec_missing = c("rx.fec.segments_missing");
        if fec_codewords > 0 {
            if fec_ok + burst_lost != fec_codewords {
                violations.push(format!(
                    "fec codewords do not balance: ok {fec_ok} + unrecoverable \
                     {burst_lost} != attempted {fec_codewords}"
                ));
            }
            let fec_share = |amount: u64| amount as f64 / fec_codewords as f64;
            attributions.extend([
                Attribution {
                    category: "recovered-by-interleave",
                    ledger: Ledger::Fec,
                    amount: fec_rescued,
                    share: fec_share(fec_rescued),
                    advisory: true,
                    explanation: "codewords that needed RS corrections after \
                                  deinterleaving — packets the interleaver rescued \
                                  from a burst"
                        .to_string(),
                },
                Attribution {
                    category: "interleave-missing-segments",
                    ledger: Ledger::Fec,
                    amount: fec_missing,
                    share: fec_share(fec_missing),
                    advisory: true,
                    explanation: "group segments never observed (whole packets \
                                  swallowed by bursts), re-entered as declared erasures"
                        .to_string(),
                },
            ]);
        }

        // --- Repair ledger: RS activity that recovered data.
        let erasures = c("rx.rs.erasures_recovered");
        let corrected = c("rx.rs.errors_corrected");
        let repairs = erasures + corrected;
        if repairs > 0 {
            let repair_share = |amount: u64| amount as f64 / repairs as f64;
            attributions.extend([
                Attribution {
                    category: "rs-recovered-erasures",
                    ledger: Ledger::Repairs,
                    amount: erasures,
                    share: repair_share(erasures),
                    advisory: true,
                    explanation: "gap-lost bytes refilled as RS erasures".to_string(),
                },
                Attribution {
                    category: "rs-correctable-noise",
                    ledger: Ledger::Repairs,
                    amount: corrected,
                    share: repair_share(corrected),
                    advisory: true,
                    explanation: "noise-corrupted bytes repaired as RS errors (sensor \
                                  noise / color misclassification within budget)"
                        .to_string(),
                },
            ]);
        }

        attributions.sort_by(|a, b| {
            b.share
                .partial_cmp(&a.share)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.category.cmp(b.category))
        });

        let mut diagnosis = Diagnosis {
            transmitted_symbols: transmitted,
            surviving_symbols: depacketized,
            data_packets_sent: sent,
            data_packets_ok: ok,
            attributions,
            violations,
        };

        // The closing invariant: attributed losses must sum to totals.
        // With monotone stage counters the telescoping guarantees this;
        // verify anyway so a future category edit cannot silently leak.
        if diagnosis.attributed_symbol_loss() != diagnosis.total_symbol_loss() {
            diagnosis.violations.push(format!(
                "symbol losses do not sum: attributed {} vs total {}",
                diagnosis.attributed_symbol_loss(),
                diagnosis.total_symbol_loss()
            ));
        }
        let packet_attr = diagnosis.attributed_packet_loss();
        let packet_total = diagnosis.total_packet_loss();
        if packet_attr != packet_total {
            diagnosis.violations.push(format!(
                "packet losses do not sum: attributed {packet_attr} vs total {packet_total}"
            ));
        }
        diagnosis
    }
}

/// One session's verdict within a [`FleetReview`].
#[derive(Debug, Clone)]
pub struct SessionReview {
    /// The `session` label the counters were grouped under.
    pub session: String,
    /// The session's own diagnosis.
    pub diagnosis: Diagnosis,
    /// Loss categories whose share diverges from the fleet median by more
    /// than the review threshold, as `(category, share, fleet_median)`.
    pub divergent: Vec<(&'static str, f64, f64)>,
}

/// A fleet-wide review of per-session live telemetry: every session
/// diagnosed individually, then compared against the fleet's median loss
/// attribution to surface sessions whose loss profile is unlike the rest
/// (a misaimed camera, a dying link — fleet outliers, not fleet-wide
/// conditions).
#[derive(Debug, Clone)]
pub struct FleetReview {
    /// Per-session verdicts, sorted by session label.
    pub sessions: Vec<SessionReview>,
    /// The fleet-median share per non-advisory loss category.
    pub medians: Vec<(&'static str, f64)>,
    /// Divergence threshold used (absolute difference in share).
    pub threshold: f64,
    /// Counters that fell, or vanished, from one snapshot line to the
    /// next, one message each.
    pub regressions: Vec<String>,
}

impl FleetReview {
    /// Sessions with at least one divergent category or invariant
    /// violation.
    pub fn flagged(&self) -> Vec<&SessionReview> {
        self.sessions
            .iter()
            .filter(|s| !s.divergent.is_empty() || !s.diagnosis.is_consistent())
            .collect()
    }

    /// No session flagged and no counter regressed.
    pub fn is_healthy(&self) -> bool {
        self.regressions.is_empty() && self.flagged().is_empty()
    }

    /// Human-readable report.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fleet doctor — {} session(s), divergence threshold {:.2}",
            self.sessions.len(),
            self.threshold
        );
        for s in &self.sessions {
            let verdict = if !s.diagnosis.is_consistent() {
                "INVARIANT VIOLATION"
            } else if s.divergent.is_empty() {
                "in line with fleet"
            } else {
                "DIVERGES from fleet"
            };
            let _ = writeln!(
                out,
                "  {:<16} symbols lost {:>8}  packets lost {:>6}  {}",
                s.session,
                s.diagnosis.total_symbol_loss(),
                s.diagnosis.total_packet_loss(),
                verdict
            );
            for (category, share, median) in &s.divergent {
                let _ = writeln!(
                    out,
                    "      {category}: share {:.3} vs fleet median {:.3}",
                    share, median
                );
            }
            for v in &s.diagnosis.violations {
                let _ = writeln!(out, "      invariant: {v}");
            }
        }
        if self.regressions.is_empty() {
            let _ = writeln!(out, "  counters: none fell or vanished between lines");
        }
        for r in &self.regressions {
            let _ = writeln!(out, "  COUNTER REGRESSION: {r}");
        }
        out
    }
}

/// One snapshot line's counters, by name and labels.
type LineCounters = BTreeMap<(String, BTreeMap<String, String>), u64>;

/// Parse one snapshot line's `"counters"` array; any entry without a
/// string name, string labels and an unsigned value refuses the line.
fn line_counters(line: &str) -> Result<LineCounters, String> {
    let snapshot = Value::parse(line).map_err(|e| format!("unparseable snapshot line: {e}"))?;
    let entries = snapshot
        .get("counters")
        .and_then(Value::as_array)
        .ok_or("snapshot has no \"counters\" array")?;
    let mut counters = LineCounters::new();
    for entry in entries {
        let name = entry.get("name").and_then(Value::as_str);
        let labels = entry
            .get("labels")
            .and_then(Value::as_object)
            .and_then(|labels| {
                labels
                    .iter()
                    .map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
                    .collect::<Option<BTreeMap<_, _>>>()
            });
        let value = entry.get("value").and_then(Value::as_u64);
        let (Some(name), Some(labels), Some(value)) = (name, labels, value) else {
            return Err(format!("malformed counter entry {}", entry.to_compact()));
        };
        counters.insert((name.to_string(), labels), value);
    }
    Ok(counters)
}

/// A counter as a message names it: `name{label="value",…}`.
fn counter_name((name, labels): &(String, BTreeMap<String, String>)) -> String {
    if labels.is_empty() {
        return name.clone();
    }
    let pairs: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v:?}")).collect();
    format!("{name}{{{}}}", pairs.join(","))
}

/// Review a live-telemetry JSONL snapshot stream (the gateway's
/// `COLORBARS_OBS_LIVE` file, one [`LiveSnapshot::to_json`] per line).
///
/// Every line must parse, or the stream is refused. A counter present in
/// one line must be present in the next with a value no smaller —
/// registry counters only grow — and each that fell or vanished is a
/// [`FleetReview::regressions`] entry naming both values. The **last**
/// line's counters are then grouped by `session` label, each session
/// diagnosed with the standard ledgers, and sessions whose non-advisory
/// loss shares diverge from the fleet median by more than `threshold`
/// flagged. Counters without a `session` label (aggregates) are checked
/// for regressions but not reviewed.
pub fn review_live_jsonl(text: &str, threshold: f64) -> Result<FleetReview, String> {
    let lines = text
        .lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            line_counters(line)
                .map(|counters| (i + 1, counters))
                .map_err(|e| format!("line {}: {e}", i + 1))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mut regressions = Vec::new();
    for pair in lines.windows(2) {
        let ((n0, earlier), (n1, later)) = (&pair[0], &pair[1]);
        for (id, &before) in earlier {
            match later.get(id) {
                None => regressions.push(format!(
                    "counter {} ({before} at line {n0}) is missing from line {n1}",
                    counter_name(id)
                )),
                Some(&after) if after < before => regressions.push(format!(
                    "counter {} fell from {before} at line {n0} to {after} at line {n1}",
                    counter_name(id)
                )),
                Some(_) => {}
            }
        }
    }
    let (_, last) = lines.last().ok_or("live snapshot stream is empty")?;

    let mut per_session: BTreeMap<String, BTreeMap<String, u64>> = BTreeMap::new();
    for ((name, labels), &value) in last {
        if let Some(session) = labels.get("session") {
            per_session
                .entry(session.clone())
                .or_default()
                .insert(name.clone(), value);
        }
    }
    if per_session.is_empty() {
        return Err("no session-labeled counters in the last snapshot".into());
    }

    let diagnosed: Vec<(String, Diagnosis)> = per_session
        .into_iter()
        .map(|(session, counters)| (session, Doctor::from_counters(counters).diagnose()))
        .collect();

    // Fleet medians per non-advisory category.
    let mut by_category: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (_, d) in &diagnosed {
        for a in &d.attributions {
            if !a.advisory {
                by_category.entry(a.category).or_default().push(a.share);
            }
        }
    }
    let medians: Vec<(&'static str, f64)> = by_category
        .into_iter()
        .map(|(category, mut shares)| {
            shares.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let mid = shares.len() / 2;
            let median = if shares.len() % 2 == 1 {
                shares[mid]
            } else {
                (shares[mid - 1] + shares[mid]) / 2.0
            };
            (category, median)
        })
        .collect();

    let sessions = diagnosed
        .into_iter()
        .map(|(session, diagnosis)| {
            let divergent = diagnosis
                .attributions
                .iter()
                .filter(|a| !a.advisory)
                .filter_map(|a| {
                    let median = medians
                        .iter()
                        .find(|(c, _)| *c == a.category)
                        .map(|(_, m)| *m)?;
                    ((a.share - median).abs() > threshold).then_some((a.category, a.share, median))
                })
                .collect();
            SessionReview {
                session,
                diagnosis,
                divergent,
            }
        })
        .collect();

    Ok(FleetReview {
        sessions,
        medians,
        threshold,
        regressions,
    })
}

/// Agreement between the journey ring and the packet ledger, computed from
/// a flight-recorder dump: for every packet-outcome class, the number of
/// `rx.data` journey verdicts (plus per-codeword `rx.fec_group` outcomes)
/// must equal the corresponding `rx.packets.*` counter. The two are
/// recorded by independent code paths, so agreement means the provenance
/// layer saw every packet the ledger accounted — the flight dump tells the
/// whole story.
///
/// A ring that evicted journeys can only have lost outcomes, and only so
/// many: each evicted `rx.data` record held one, and each evicted
/// `rx.fec_group` record one per packet of its group, at most the group's
/// interleave depth. So with `d` journeys evicted, no class may count more
/// outcomes on the ring than in the ledger, and the ledger's surplus over
/// the ring, summed over the classes, may not exceed
/// `d × max(1, deepest fec_depth among the dump's contexts)`.
#[derive(Debug, Clone)]
pub struct JourneyCrossCheck {
    /// Packet outcomes as the journey ring recorded them, per class.
    pub journey_counts: BTreeMap<String, u64>,
    /// Packet outcomes as the counter ledger recorded them
    /// (`rx.packets.<class>`), per class.
    pub ledger_counts: BTreeMap<String, u64>,
    /// Journeys evicted from the bounded ring before the dump.
    pub journeys_dropped: u64,
    /// The most packet outcomes the evicted journeys can have held (0 when
    /// none was evicted).
    pub eviction_bound: u64,
    /// The ledger's surplus over the ring: Σ(ledger − ring) over the
    /// classes whose ledger count is the larger.
    pub surplus: u64,
    /// Classes the per-class check flags: with no eviction, every class
    /// whose two counts differ; with evictions, every class whose ring
    /// count exceeds its ledger count.
    pub mismatches: Vec<String>,
}

impl JourneyCrossCheck {
    /// Whether the journey ring and the ledger tell the same story.
    pub fn is_consistent(&self) -> bool {
        self.mismatches.is_empty() && !self.exceeds_eviction_bound()
    }

    /// Whether the ledger's surplus is more than the evicted journeys can
    /// explain (never with no eviction: the per-class check is exact then).
    fn exceeds_eviction_bound(&self) -> bool {
        self.journeys_dropped > 0 && self.surplus > self.eviction_bound
    }

    /// Serialize the cross-check as a JSON object.
    pub fn to_json(&self) -> Value {
        Value::object([
            (
                "journey_counts",
                Value::object(
                    self.journey_counts
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::from(*v))),
                ),
            ),
            (
                "ledger_counts",
                Value::object(
                    self.ledger_counts
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::from(*v))),
                ),
            ),
            ("journeys_dropped", Value::from(self.journeys_dropped)),
            ("eviction_bound", Value::from(self.eviction_bound)),
            ("surplus", Value::from(self.surplus)),
            (
                "mismatches",
                Value::Array(
                    self.mismatches
                        .iter()
                        .map(|m| Value::from(m.as_str()))
                        .collect(),
                ),
            ),
            ("consistent", Value::from(self.is_consistent())),
        ])
    }

    /// Human-readable comparison table.
    pub fn render_text(&self) -> String {
        let mut out = String::from("journey ↔ ledger cross-check\n");
        out.push_str(&format!(
            "  {:<22} {:>10} {:>10}\n",
            "class", "journeys", "ledger"
        ));
        for (class, j) in &self.journey_counts {
            let l = self.ledger_counts.get(class).copied().unwrap_or(0);
            let mark = if self.mismatches.contains(class) {
                "  <-- MISMATCH"
            } else {
                ""
            };
            out.push_str(&format!("  {class:<22} {j:>10} {l:>10}{mark}\n"));
        }
        if self.journeys_dropped > 0 {
            out.push_str(&format!(
                "  {} journeys evicted from the ring: they can hide at most {} packet outcomes; \
                 the ledger's surplus is {}\n",
                self.journeys_dropped, self.eviction_bound, self.surplus
            ));
        }
        if !self.mismatches.is_empty() {
            let check = if self.journeys_dropped == 0 {
                "ring and ledger counts differ"
            } else {
                "ring count above ledger count"
            };
            out.push_str(&format!(
                "  FAILED ({check}): {}\n",
                self.mismatches.join(", ")
            ));
        }
        if self.exceeds_eviction_bound() {
            out.push_str(&format!(
                "  FAILED (eviction bound): a surplus of {} outcomes exceeds the {} that {} \
                 evicted journeys can hide\n",
                self.surplus, self.eviction_bound, self.journeys_dropped
            ));
        }
        if self.is_consistent() {
            out.push_str(if self.journeys_dropped == 0 {
                "  consistent: the journey ring accounts for every ledgered packet\n"
            } else {
                "  consistent: eviction accounts for every outcome missing from the ring\n"
            });
        }
        out
    }
}

/// The packet-outcome classes cross-checked between journeys and counters.
const PACKET_CLASSES: &[&str] = &[
    "ok",
    "header_lost",
    "overrun",
    "rs_failed",
    "undecoded",
    "unrecoverable_burst",
];

/// Cross-link a flight dump's journeys into the doctor's packet ledger
/// (see [`JourneyCrossCheck`]). `dump` is a parsed `.fdr.json` object as
/// written by [`crate::flight::write_to`].
///
/// Journey-side accounting mirrors the receiver's: each `rx.data` record
/// is one packet outcome (its verdict); each `rx.fec_group` record
/// contributes one outcome per codeword (`ok` when recovered,
/// `unrecoverable_burst` otherwise). `rx.segment` header losses are *not*
/// packet outcomes — an unplaceable segment surfaces in the ledger as its
/// group's missing segment, not as a counted packet.
pub fn cross_check_journeys(dump: &Value) -> JourneyCrossCheck {
    let mut journey_counts: BTreeMap<String, u64> = BTreeMap::new();
    for class in PACKET_CLASSES {
        journey_counts.insert((*class).to_string(), 0);
    }
    let bump = |counts: &mut BTreeMap<String, u64>, class: &str| {
        if let Some(v) = counts.get_mut(class) {
            *v += 1;
        }
    };
    if let Some(journeys) = dump.get("journeys").and_then(Value::as_array) {
        for j in journeys {
            let stage = j.get("stage").and_then(Value::as_str).unwrap_or("");
            match stage {
                "rx.data" => {
                    let verdict = j.get("verdict").and_then(Value::as_str).unwrap_or("");
                    bump(&mut journey_counts, verdict);
                }
                "rx.fec_group" => {
                    let outcomes = j
                        .get("fields")
                        .and_then(|f| f.get("outcomes"))
                        .and_then(Value::as_array);
                    for o in outcomes.into_iter().flatten() {
                        match o.get("recovered") {
                            Some(Value::Bool(true)) => bump(&mut journey_counts, "ok"),
                            _ => bump(&mut journey_counts, "unrecoverable_burst"),
                        }
                    }
                }
                _ => {}
            }
        }
    }

    let mut ledger_counts: BTreeMap<String, u64> = BTreeMap::new();
    for class in PACKET_CLASSES {
        let value = dump
            .get("counters")
            .and_then(|c| c.get(&format!("rx.packets.{class}")))
            .and_then(Value::as_u64)
            .unwrap_or(0);
        ledger_counts.insert((*class).to_string(), value);
    }

    let journeys_dropped = dump
        .get("journeys_dropped")
        .and_then(Value::as_u64)
        .unwrap_or(0);
    let deepest_fec = dump
        .get("contexts")
        .and_then(Value::as_object)
        .into_iter()
        .flatten()
        .filter_map(|(_, ctx)| ctx.get("fec_depth").and_then(Value::as_u64))
        .max()
        .unwrap_or(0);
    let eviction_bound = journeys_dropped.saturating_mul(deepest_fec.max(1));
    let count =
        |counts: &BTreeMap<String, u64>, class: &str| counts.get(class).copied().unwrap_or(0);
    let surplus = PACKET_CLASSES
        .iter()
        .map(|class| count(&ledger_counts, class).saturating_sub(count(&journey_counts, class)))
        .sum();
    let mismatches = PACKET_CLASSES
        .iter()
        .filter(|class| {
            let (ring, ledger) = (count(&journey_counts, class), count(&ledger_counts, class));
            if journeys_dropped == 0 {
                ring != ledger
            } else {
                ring > ledger
            }
        })
        .map(|c| (*c).to_string())
        .collect();

    JourneyCrossCheck {
        journey_counts,
        ledger_counts,
        journeys_dropped,
        eviction_bound,
        surplus,
        mismatches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A consistent single-link counter set shaped like a Table 1 run:
    /// 3000 symbols on air, ~23% gap loss, small classification and
    /// framing losses, a calibration-bootstrap window, clean packet
    /// accounting.
    fn table1_like() -> Doctor {
        Doctor::from_counters([
            ("tx.symbols", 3000u64),
            ("tx.packets.data", 30),
            ("rx.bands.segmented", 2310),
            ("rx.bands.classified", 2290),
            ("rx.bands.calibrated", 2200),
            ("rx.bands.depacketized", 2280),
            ("rx.packets.ok", 21),
            ("rx.packets.header_lost", 2),
            ("rx.packets.rs_failed", 1),
            ("rx.packets.overrun", 0),
            ("rx.packets.undecoded", 0),
            ("rx.rs.erasures_recovered", 310),
            ("rx.rs.errors_corrected", 12),
        ])
    }

    #[test]
    fn attributed_losses_sum_to_totals() {
        let d = table1_like().diagnose();
        assert!(d.is_consistent(), "violations: {:?}", d.violations);
        assert_eq!(d.total_symbol_loss(), 3000 - 2280);
        assert_eq!(d.attributed_symbol_loss(), d.total_symbol_loss());
        assert_eq!(d.total_packet_loss(), 30 - 21);
        assert_eq!(d.attributed_packet_loss(), d.total_packet_loss());
    }

    #[test]
    fn gap_dominates_a_table1_run() {
        let d = table1_like().diagnose();
        let top = d.dominant().expect("losses observed");
        assert_eq!(top.category, "inter-frame-gap");
        assert!(
            (top.share - 690.0 / 3000.0).abs() < 1e-12,
            "gap share {}",
            top.share
        );
        // Ranked: shares are non-increasing.
        for w in d.attributions.windows(2) {
            assert!(w[0].share >= w[1].share - 1e-12);
        }
    }

    #[test]
    fn repairs_are_recovered_not_lost() {
        let d = table1_like().diagnose();
        let noise = d
            .attributions
            .iter()
            .find(|a| a.category == "rs-correctable-noise")
            .expect("rs noise present");
        assert!(noise.advisory);
        assert_eq!(noise.amount, 12);
        assert!((noise.share - 12.0 / 322.0).abs() < 1e-12);
        // Advisory categories are excluded from the loss invariants.
        assert_eq!(d.attributed_symbol_loss(), d.total_symbol_loss());
    }

    #[test]
    fn calibration_bootstrap_is_advisory() {
        let d = table1_like().diagnose();
        let boot = d
            .attributions
            .iter()
            .find(|a| a.category == "calibration-bootstrap")
            .expect("bootstrap window present");
        assert!(boot.advisory);
        // 2280 survivors, 2200 of them calibrated: an 80-band window.
        assert_eq!(boot.amount, 80);
        assert!((boot.share - 80.0 / 2280.0).abs() < 1e-12);
        // A doctored run where `calibrated` overcounts is flagged.
        let bad =
            Doctor::from_counters([("rx.bands.classified", 10u64), ("rx.bands.calibrated", 11)])
                .diagnose();
        assert!(!bad.is_consistent());
    }

    #[test]
    fn backwards_pipeline_is_flagged() {
        let d = Doctor::from_counters([
            ("tx.symbols", 100u64),
            ("rx.bands.segmented", 120), // more bands than symbols: bug
            ("rx.bands.classified", 90),
            ("rx.bands.calibrated", 80),
            ("rx.bands.depacketized", 80),
        ])
        .diagnose();
        assert!(!d.is_consistent());
        assert!(
            d.violations.iter().any(|v| v.contains("backwards")),
            "{:?}",
            d.violations
        );
    }

    #[test]
    fn packet_overcount_is_flagged() {
        let d = Doctor::from_counters([
            ("tx.packets.data", 5u64),
            ("rx.packets.ok", 4),
            ("rx.packets.rs_failed", 3),
        ])
        .diagnose();
        assert!(d
            .violations
            .iter()
            .any(|v| v.contains("exceed data packets sent")));
    }

    /// An interleaved run: 16 codewords attempted, 14 decoded (3 of them
    /// rescued), 2 declared unrecoverable, one whole segment missing.
    fn fec_run() -> Doctor {
        Doctor::from_counters([
            ("tx.symbols", 2000u64),
            ("tx.packets.data", 16),
            ("rx.bands.segmented", 1540),
            ("rx.bands.classified", 1530),
            ("rx.bands.calibrated", 1500),
            ("rx.bands.depacketized", 1520),
            ("rx.packets.ok", 14),
            ("rx.packets.unrecoverable_burst", 2),
            ("rx.fec.groups", 2),
            ("rx.fec.codewords", 16),
            ("rx.fec.codewords_ok", 14),
            ("rx.fec.recovered_by_interleave", 3),
            ("rx.fec.segments_missing", 1),
        ])
    }

    #[test]
    fn interleaved_run_balances_and_surfaces_rescues() {
        let d = fec_run().diagnose();
        assert!(d.is_consistent(), "violations: {:?}", d.violations);
        // Bursts are packet losses, inside the observed invariant.
        let burst = d
            .attributions
            .iter()
            .find(|a| a.category == "unrecoverable-burst")
            .expect("burst bin present");
        assert!(!burst.advisory);
        assert_eq!(burst.amount, 2);
        assert_eq!(d.attributed_packet_loss(), d.total_packet_loss());
        // Rescues are advisory, accounted per attempted codeword.
        let rescued = d
            .attributions
            .iter()
            .find(|a| a.category == "recovered-by-interleave")
            .expect("rescue bin present");
        assert!(rescued.advisory);
        assert_eq!(rescued.amount, 3);
        assert!((rescued.share - 3.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn unbalanced_fec_codewords_are_flagged() {
        let d = Doctor::from_counters([
            ("rx.fec.codewords", 8u64),
            ("rx.fec.codewords_ok", 5),
            ("rx.packets.unrecoverable_burst", 2), // 5 + 2 != 8
        ])
        .diagnose();
        assert!(!d.is_consistent());
        assert!(
            d.violations
                .iter()
                .any(|v| v.contains("fec codewords do not balance")),
            "{:?}",
            d.violations
        );
    }

    #[test]
    fn empty_counters_diagnose_cleanly() {
        let d = Doctor::default().diagnose();
        assert!(d.is_consistent());
        assert_eq!(d.total_symbol_loss(), 0);
        assert!(d.dominant().is_none());
        assert!(d.render_text().contains("invariants: OK"));
    }

    /// One JSONL snapshot line with per-session counters shaped like the
    /// gateway's stream. `segmented` tunes each session's inter-frame-gap
    /// share.
    fn live_line(sessions: &[(&str, u64, u64)]) -> String {
        let counters: Vec<Value> = sessions
            .iter()
            .flat_map(|(name, transmitted, segmented)| {
                [
                    ("tx.symbols", *transmitted),
                    ("rx.bands.segmented", *segmented),
                    ("rx.bands.classified", *segmented),
                    ("rx.bands.calibrated", *segmented),
                    ("rx.bands.depacketized", *segmented),
                ]
                .into_iter()
                .map(move |(counter, value)| {
                    Value::object([
                        ("name", Value::from(counter)),
                        ("labels", Value::object([("session", Value::from(*name))])),
                        ("value", Value::from(value)),
                    ])
                })
            })
            .collect();
        Value::object([
            ("t_ns", Value::from(0u64)),
            ("counters", Value::Array(counters)),
        ])
        .to_compact()
    }

    #[test]
    fn fleet_review_flags_the_divergent_session() {
        // Three healthy sessions at ~23% gap loss, one outlier at 80%.
        let text = format!(
            "{}\n{}\n",
            live_line(&[("s0", 1000, 770)]), // checked for regressions only
            live_line(&[
                ("s0", 1000, 770),
                ("s1", 1000, 760),
                ("s2", 1000, 780),
                ("s3", 1000, 200),
            ])
        );
        let review = review_live_jsonl(&text, 0.25).unwrap();
        assert_eq!(review.sessions.len(), 4);
        let flagged = review.flagged();
        assert_eq!(flagged.len(), 1, "{}", review.render_text());
        assert_eq!(flagged[0].session, "s3");
        let (category, share, median) = flagged[0].divergent[0];
        assert_eq!(category, "inter-frame-gap");
        assert!((share - 0.8).abs() < 1e-9);
        assert!((median - 0.235).abs() < 1e-9, "median {median}");
        assert!(review.render_text().contains("DIVERGES"));
    }

    #[test]
    fn fleet_review_accepts_a_uniform_fleet() {
        let text = live_line(&[("a", 1000, 770), ("b", 1000, 765)]);
        let review = review_live_jsonl(&text, 0.25).unwrap();
        assert!(review.flagged().is_empty(), "{}", review.render_text());
        assert!(review
            .medians
            .iter()
            .any(|(c, m)| *c == "inter-frame-gap" && *m > 0.0));
    }

    #[test]
    fn fleet_review_rejects_empty_or_unlabeled_streams() {
        assert!(review_live_jsonl("", 0.25).is_err());
        assert!(review_live_jsonl("\n  \n", 0.25).is_err());
        // Counters without a session label are aggregates, not sessions.
        let line = Value::object([(
            "counters",
            Value::Array(vec![Value::object([
                ("name", Value::from("tx.symbols")),
                ("labels", Value::object::<&str, _>([])),
                ("value", Value::from(5u64)),
            ])]),
        )])
        .to_compact();
        assert!(review_live_jsonl(&line, 0.25).is_err());
        assert!(review_live_jsonl("not json", 0.25).is_err());
        // Every line must parse, not just the last one reviewed.
        let good = live_line(&[("a", 1000, 770)]);
        let err = review_live_jsonl(&format!("not json\n{good}\n"), 0.25).unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
        // So must every counter entry.
        let bad_value = good.replace("\"value\":770", "\"value\":-1");
        assert_ne!(bad_value, good);
        assert!(review_live_jsonl(&bad_value, 0.25).is_err());
    }

    #[test]
    fn monotone_counter_check_catches_regressions() {
        let first = live_line(&[("s0", 1000, 770), ("s1", 1000, 760)]);
        let stream = |later: &str| format!("{first}\n{later}\n");

        // Counters that grow from line to line pass.
        let grown = live_line(&[("s0", 1500, 1100), ("s1", 1400, 1000)]);
        let review = review_live_jsonl(&stream(&grown), 0.5).unwrap();
        assert!(review.regressions.is_empty(), "{:?}", review.regressions);
        assert!(review.is_healthy(), "{}", review.render_text());

        // A counter lower in a later line fails, naming both values.
        let lowered = live_line(&[("s0", 1500, 700), ("s1", 1400, 1000)]);
        let review = review_live_jsonl(&stream(&lowered), 0.5).unwrap();
        assert!(!review.is_healthy());
        assert!(
            review.regressions.contains(
                &"counter rx.bands.segmented{session=\"s0\"} fell from 770 at line 1 \
                  to 700 at line 2"
                    .to_string()
            ),
            "{:?}",
            review.regressions
        );
        assert!(review.render_text().contains("COUNTER REGRESSION"));

        // A counter missing from a later line fails.
        let missing = live_line(&[("s0", 1500, 1100)]);
        let review = review_live_jsonl(&stream(&missing), 0.5).unwrap();
        assert_eq!(review.regressions.len(), 5, "{:?}", review.regressions);
        assert!(review.regressions.iter().all(
            |r| r.contains("session=\"s1\"") && r.contains("at line 1) is missing from line 2")
        ));
    }

    #[test]
    fn monotone_check_catches_a_registry_reset() {
        let _guard = crate::test_lock::hold();
        crate::init(crate::ObsConfig::default());
        let registry = crate::live::Registry::new();
        let line = || registry.snapshot().to_json().to_compact();
        let s0: &[(&str, &str)] = &[("session", "s0")];
        registry.counter("tx.symbols", s0).add(1000);
        registry.counter("rx.bands.segmented", s0).add(770);
        let first = line();
        registry.counter("rx.bands.segmented", s0).add(10);
        let grown = line();
        // A registry cleared between two snapshots (a restarted gateway, a
        // stray `obs::reset`): whatever it counts again starts from zero.
        registry.clear();
        registry.counter("tx.symbols", s0).add(3);
        let cleared = line();
        crate::disable();

        let review = review_live_jsonl(&format!("{first}\n{grown}\n"), 0.5).unwrap();
        assert!(review.regressions.is_empty(), "{:?}", review.regressions);
        let review = review_live_jsonl(&format!("{first}\n{grown}\n{cleared}\n"), 0.5).unwrap();
        assert_eq!(
            review.regressions,
            vec![
                "counter rx.bands.segmented{session=\"s0\"} (780 at line 2) is missing \
                 from line 3"
                    .to_string(),
                "counter tx.symbols{session=\"s0\"} fell from 1000 at line 2 to 3 at line 3"
                    .to_string(),
            ]
        );
    }

    #[test]
    fn report_round_trip() {
        let report = Value::object([(
            "counters",
            Value::object([
                ("tx.symbols", Value::from(100u64)),
                ("rx.bands.segmented", Value::from(70u64)),
            ]),
        )]);
        let d = Doctor::from_report(&report).unwrap().diagnose();
        assert_eq!(d.total_symbol_loss(), 100);
        let gap = d
            .attributions
            .iter()
            .find(|a| a.category == "inter-frame-gap")
            .unwrap();
        assert_eq!(gap.amount, 30);

        // The diagnosis serializes and re-parses.
        let doc = d.to_json().to_pretty();
        let parsed = Value::parse(&doc).unwrap();
        assert_eq!(
            parsed.get("total_symbol_loss").and_then(Value::as_u64),
            Some(100)
        );
        assert_eq!(parsed.get("consistent"), Some(&Value::Bool(true)));

        // Malformed reports are rejected, not panicked on.
        assert!(Doctor::from_report(&Value::Null).is_err());
        let bad = Value::object([(
            "counters",
            Value::object([("tx.symbols", Value::from(-1i64))]),
        )]);
        assert!(Doctor::from_report(&bad).is_err());
    }

    fn journey(stage: &str, verdict: &str) -> Value {
        Value::object([
            ("stage", Value::from(stage)),
            ("verdict", Value::from(verdict)),
            ("fields", Value::Null),
        ])
    }

    fn fec_group(recovered: &[bool]) -> Value {
        Value::object([
            ("stage", Value::from("rx.fec_group")),
            ("verdict", Value::from("ok")),
            (
                "fields",
                Value::object([(
                    "outcomes",
                    Value::Array(
                        recovered
                            .iter()
                            .map(|&r| Value::object([("recovered", Value::from(r))]))
                            .collect(),
                    ),
                )]),
            ),
        ])
    }

    #[test]
    fn journey_cross_check_agrees_when_accounts_match() {
        let dump = Value::object([
            (
                "journeys",
                Value::Array(vec![
                    journey("rx.data", "ok"),
                    journey("rx.data", "rs_failed"),
                    journey("rx.segment", "header_lost"), // not a packet outcome
                    journey("tx.emit", "scheduled"),      // tx side: ignored
                    fec_group(&[true, false, true]),
                ]),
            ),
            ("journeys_dropped", Value::from(0u64)),
            (
                "counters",
                Value::object([
                    ("rx.packets.ok", Value::from(3u64)),
                    ("rx.packets.rs_failed", Value::from(1u64)),
                    ("rx.packets.unrecoverable_burst", Value::from(1u64)),
                ]),
            ),
        ]);
        let check = cross_check_journeys(&dump);
        assert!(check.is_consistent(), "{:?}", check.mismatches);
        assert_eq!(check.journey_counts["ok"], 3);
        assert_eq!(check.journey_counts["unrecoverable_burst"], 1);
        assert!(check.render_text().contains("consistent"));
    }

    #[test]
    fn journey_cross_check_flags_disagreement() {
        let dump = Value::object([
            (
                "journeys",
                Value::Array(vec![journey("rx.data", "header_lost")]),
            ),
            ("journeys_dropped", Value::from(0u64)),
            (
                "counters",
                Value::object([("rx.packets.header_lost", Value::from(2u64))]),
            ),
        ]);
        let check = cross_check_journeys(&dump);
        assert!(!check.is_consistent());
        assert_eq!(check.mismatches, vec!["header_lost".to_string()]);
        assert!(check.render_text().contains("MISMATCH"));
        assert_eq!(check.to_json().get("consistent"), Some(&Value::Bool(false)));
    }

    /// A dump of `journeys` with `dropped` of them evicted, the ledger's
    /// `rx.packets.*` counters and one replay context per FEC depth.
    fn evicted_dump(
        journeys: Vec<Value>,
        dropped: u64,
        ledger: &[(&str, u64)],
        fec_depths: &[u64],
    ) -> Value {
        Value::object([
            ("journeys", Value::Array(journeys)),
            ("journeys_dropped", Value::from(dropped)),
            (
                "counters",
                Value::object(
                    ledger
                        .iter()
                        .map(|&(class, n)| (format!("rx.packets.{class}"), Value::from(n))),
                ),
            ),
            (
                "contexts",
                Value::object(fec_depths.iter().enumerate().map(|(i, &depth)| {
                    (
                        format!("s{i}"),
                        Value::object([("fec_depth", Value::from(depth))]),
                    )
                })),
            ),
        ])
    }

    #[test]
    fn journey_cross_check_passes_drops_within_the_eviction_bound() {
        // Two of the ledger's outcomes are missing from the ring, in two
        // classes, and two journeys were evicted: each held one.
        let journeys = vec![journey("rx.data", "ok"), journey("rx.data", "rs_failed")];
        let ledger = [("ok", 2), ("rs_failed", 2)];
        let check = cross_check_journeys(&evicted_dump(journeys, 2, &ledger, &[0, 0]));
        assert!(check.is_consistent(), "{}", check.render_text());
        assert_eq!((check.surplus, check.eviction_bound), (2, 2));
        assert!(check.render_text().contains("2 journeys evicted"));
    }

    #[test]
    fn journey_cross_check_flags_a_ring_count_above_the_ledger_despite_drops() {
        // Eviction only removes outcomes, so no class can gain any.
        let journeys = vec![journey("rx.data", "ok"), journey("rx.data", "ok")];
        let ledger = [("ok", 1), ("rs_failed", 1)];
        let check = cross_check_journeys(&evicted_dump(journeys, 5, &ledger, &[]));
        assert!(!check.is_consistent());
        assert_eq!(check.mismatches, vec!["ok".to_string()]);
        assert!(check
            .render_text()
            .contains("FAILED (ring count above ledger count): ok"));
    }

    #[test]
    fn journey_cross_check_flags_a_surplus_beyond_the_eviction_bound() {
        // 49 outcomes missing from the ring, but only 7 journeys evicted on
        // a per-packet link: the ring lost more than eviction explains.
        let journeys = vec![journey("rx.data", "ok")];
        let check = cross_check_journeys(&evicted_dump(journeys, 7, &[("ok", 50)], &[0]));
        assert!(!check.is_consistent());
        assert!(check.mismatches.is_empty());
        assert_eq!((check.surplus, check.eviction_bound), (49, 7));
        let text = check.render_text();
        assert!(text.contains("FAILED (eviction bound)"), "{text}");
        assert_eq!(check.to_json().get("consistent"), Some(&Value::Bool(false)));
    }

    #[test]
    fn journey_cross_check_bound_grows_with_the_deepest_interleave() {
        // An evicted `rx.fec_group` record held one outcome per packet of
        // its group: at depth 8, 7 evictions can hide 56 outcomes.
        let journeys = vec![journey("rx.data", "ok")];
        let ledger = [("ok", 50)];
        let per_packet = cross_check_journeys(&evicted_dump(journeys.clone(), 7, &ledger, &[0]));
        assert!(!per_packet.is_consistent());
        let interleaved = cross_check_journeys(&evicted_dump(journeys, 7, &ledger, &[0, 8, 4]));
        assert_eq!(interleaved.eviction_bound, 56);
        assert!(interleaved.is_consistent(), "{}", interleaved.render_text());
    }
}
