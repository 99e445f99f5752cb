//! `postmortem` — deterministic post-mortem analysis of flight-recorder
//! dumps (DESIGN.md §14).
//!
//! Loads a `.fdr.json` dump written by the obs flight recorder, prints a
//! ranked causal chain for every failure trigger — the pipeline stage that
//! failed, the captured frames the packet's symbols touched, the byte-level
//! erasure map the decoder saw, and the most ambiguous band
//! classifications ranked by nearest-constellation distance margin — and,
//! with `--replay`, re-runs every recorded decode from the dump alone
//! (no captured frames, no RNG) asserting a byte-identical verdict:
//!
//! * `rx.data` journeys replay through the same pure
//!   [`colorbars_core::depacket::decode_data_body`] the live depacketizer
//!   ran, on bands rebuilt from the journey record;
//! * `rx.fec_group` journeys replay through a rebuilt
//!   [`colorbars_fec::Interleaver`] on the recorded segment observations.
//!
//! A trigger's pinned copy of its journey (the record its causal chain
//! prints) must equal the ring's record of the same id; one whose id the
//! ring has evicted is replayed in the ring record's place.
//!
//! `--replay` also cross-checks the journey ring against the dump's
//! packet-ledger counters (`colorbars_obs::doctor::cross_check_journeys`).
//!
//! ```text
//! postmortem <dump.fdr.json> [--replay] [--bands N]
//! ```
//!
//! Exit codes: 0 — analysis done (and, with `--replay`, every decode
//! byte-identical and the ledger consistent); 1 — a replay mismatch or
//! ledger inconsistency; 2 — usage or I/O error.

use colorbars_core::depacket::{band_from_record, DataDecode, ParsedPacket};
use colorbars_core::ReplayLink;
use colorbars_fec::{CodewordOutcome, SegmentObservation};
use colorbars_obs::doctor::cross_check_journeys;
use colorbars_obs::journey::{BandRecord, JourneyRecord, LABEL_COLOR};
use colorbars_obs::Value;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Default number of ambiguous bands shown per causal chain.
const DEFAULT_BANDS_SHOWN: usize = 5;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(options) => options,
        Err(err) => {
            eprintln!("postmortem: {err}");
            eprintln!("usage: postmortem <dump.fdr.json> [--replay] [--bands N]");
            return ExitCode::from(2);
        }
    };
    match run(&options) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(err) => {
            eprintln!("postmortem: {err}");
            ExitCode::from(2)
        }
    }
}

/// What the command line asks for.
struct Options {
    path: String,
    replay: bool,
    bands_shown: usize,
}

/// The command line's options, or what is wrong with it.
fn parse(args: &[String]) -> Result<Options, String> {
    let mut path: Option<String> = None;
    let mut replay = false;
    let mut bands_shown = DEFAULT_BANDS_SHOWN;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--replay" => replay = true,
            "--bands" => {
                bands_shown = it
                    .next()
                    .ok_or("--bands needs a count")?
                    .parse()
                    .map_err(|_| "--bands needs an unsigned integer".to_string())?;
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag:?}")),
            other if path.is_none() => path = Some(other.to_string()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(Options {
        path: path.ok_or("missing dump path")?,
        replay,
        bands_shown,
    })
}

fn run(options: &Options) -> Result<bool, String> {
    let path = &options.path;
    let body = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let dump = Value::parse(&body).map_err(|e| format!("{path}: invalid JSON: {e}"))?;

    let report = analyze(&dump, options.bands_shown)?;
    let mut ok = true;
    if options.replay {
        ok = replay_dump(&dump, &report.links)? && ok;
        let check = cross_check_journeys(&dump);
        print!("{}", check.render_text());
        if !check.is_consistent() {
            eprintln!("postmortem: journey/ledger cross-check FAILED");
            ok = false;
        }
    }
    Ok(ok)
}

/// What `analyze` hands to the replay phase: the per-namespace rebuilt
/// decode links (contexts that failed to rebuild are reported and absent).
struct Analysis {
    links: BTreeMap<String, ReplayLink>,
}

/// Print the dump header and the ranked causal chain per failure trigger.
fn analyze(dump: &Value, bands_shown: usize) -> Result<Analysis, String> {
    let run = dump.get("run").and_then(Value::as_str).unwrap_or("?");
    let version = dump.get("version").and_then(Value::as_u64).unwrap_or(0);
    let journeys = parse_journeys(dump);
    let triggers = dump
        .get("triggers")
        .and_then(Value::as_array)
        .unwrap_or(&[]);
    let triggers_dropped = dump
        .get("triggers_dropped")
        .and_then(Value::as_u64)
        .unwrap_or(0);
    let (recorded, dropped) = (
        dump.get("journeys_recorded")
            .and_then(Value::as_u64)
            .unwrap_or(0),
        dump.get("journeys_dropped")
            .and_then(Value::as_u64)
            .unwrap_or(0),
    );
    println!(
        "flight dump: run {run:?} (format v{version}) — {} trigger(s) (+{triggers_dropped} \
         dropped), {} journey(s) retained ({recorded} recorded, {dropped} evicted)",
        triggers.len(),
        journeys.len(),
    );

    // Rebuild one decode link per recorded namespace context.
    let mut links: BTreeMap<String, ReplayLink> = BTreeMap::new();
    if let Some(contexts) = dump.get("contexts").and_then(Value::as_object) {
        for (namespace, ctx) in contexts {
            match ReplayLink::from_context(ctx) {
                Ok(link) => {
                    links.insert(namespace.clone(), link);
                }
                Err(e) => eprintln!("postmortem: context {namespace:?} unusable: {e}"),
            }
        }
    }
    println!("replay contexts: {}", links.len());

    for (i, trigger) in triggers.iter().enumerate() {
        print_causal_chain(i, trigger, &journeys, &links, bands_shown);
    }
    if triggers.is_empty() {
        println!("no failure triggers recorded — nothing to post-mortem.");
    }
    Ok(Analysis { links })
}

/// All retained journeys in the dump, by correlation id.
fn parse_journeys(dump: &Value) -> BTreeMap<u64, JourneyRecord> {
    dump.get("journeys")
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(JourneyRecord::from_json)
        .map(|r| (r.id, r))
        .collect()
}

/// The trigger's implicated journey: the pinned clone when present, else
/// the ring copy looked up by correlation id.
fn implicated_journey(
    trigger: &Value,
    journeys: &BTreeMap<u64, JourneyRecord>,
) -> Option<JourneyRecord> {
    if let Some(pinned) = trigger
        .get("journey_record")
        .filter(|v| !matches!(v, Value::Null))
        .and_then(JourneyRecord::from_json)
    {
        return Some(pinned);
    }
    let id = trigger.get("journey").and_then(Value::as_u64)?;
    journeys.get(&id).cloned()
}

/// One trigger's ranked causal chain: stage, frames, erasure map, and the
/// most ambiguous band classifications (smallest nearest-vs-runner-up
/// reference margin first — the symbols most likely to have flipped).
fn print_causal_chain(
    index: usize,
    trigger: &Value,
    journeys: &BTreeMap<u64, JourneyRecord>,
    links: &BTreeMap<String, ReplayLink>,
    bands_shown: usize,
) {
    let reason = trigger.get("reason").and_then(Value::as_str).unwrap_or("?");
    let namespace = trigger
        .get("namespace")
        .and_then(Value::as_str)
        .unwrap_or("?");
    let detail_stage = trigger
        .get("detail")
        .and_then(|d| d.get("stage"))
        .and_then(Value::as_str);
    println!("\ntrigger #{index}: {reason} in namespace {namespace:?}");

    let Some(journey) = implicated_journey(trigger, journeys) else {
        let stage = detail_stage.unwrap_or("unknown stage");
        println!("  stage {stage} — no journey recorded (evicted or none implicated)");
        if let Some(detail) = trigger.get("detail") {
            if !matches!(detail, Value::Null) {
                println!("  detail: {}", detail.to_compact());
            }
        }
        return;
    };

    println!(
        "  journey {} — stage {} verdict {:?}",
        journey.id, journey.stage, journey.verdict
    );
    if !journey.frames.is_empty() {
        println!("  frames touched: {:?}", journey.frames);
    }

    // Causal factor 1: the erasure map the decoder saw. Per-packet decodes
    // record `erasures`; segment journeys record `erased`; group journeys
    // record one map per codeword.
    let link = links.get(namespace);
    for key in ["erasures", "erased"] {
        if let Some(list) = journey.fields.get(key).and_then(Value::as_array) {
            let positions: Vec<u64> = list.iter().filter_map(Value::as_u64).collect();
            // An RS(n, k) code corrects up to n − k declared erasures.
            let budget = link
                .and_then(|l| l.code())
                .map(|c| c.n() - c.k())
                .unwrap_or(0);
            let over = if budget > 0 && positions.len() > budget {
                "  <- exceeds RS erasure budget"
            } else {
                ""
            };
            println!(
                "  erasure map ({key}): {} byte(s) {positions:?}{over}",
                positions.len()
            );
        }
    }
    if let Some(maps) = journey.fields.get("erasure_maps").and_then(Value::as_array) {
        for (c, map) in maps.iter().enumerate() {
            let positions: Vec<u64> = map
                .as_array()
                .unwrap_or(&[])
                .iter()
                .filter_map(Value::as_u64)
                .collect();
            println!(
                "  codeword {c} erasure map: {} byte(s) {positions:?}",
                positions.len()
            );
        }
    }
    if let Some(missing) = journey
        .fields
        .get("segments_missing")
        .and_then(Value::as_u64)
    {
        if missing > 0 {
            println!("  segments wholly lost: {missing}");
        }
    }

    // Causal factor 2: classification ambiguity, ranked by margin between
    // the nearest and runner-up reference chromaticities.
    if let Some(link) = link {
        print_ambiguous_bands(&journey.bands, link, bands_shown);
    } else if !journey.bands.is_empty() {
        println!(
            "  ({} band(s) recorded; no replay context for {namespace:?} — distances unavailable)",
            journey.bands.len()
        );
    }
}

/// The `bands_shown` most ambiguous data bands: nearest-reference distance
/// vs runner-up, ascending margin (a band whose feature sits between two
/// constellation points is the likeliest mis-classification).
fn print_ambiguous_bands(bands: &[BandRecord], link: &ReplayLink, bands_shown: usize) {
    /// (margin, band index, band, nearest references) per ranked band.
    type RankedBand<'a> = (f64, usize, &'a BandRecord, Vec<(usize, f64)>);
    let mut ranked: Vec<RankedBand> = bands
        .iter()
        .enumerate()
        .filter(|(_, b)| b.label == LABEL_COLOR)
        .filter_map(|(i, b)| {
            let near = link.nearest_references(b.a, b.b);
            let margin = match (near.first(), near.get(1)) {
                (Some(first), Some(second)) => second.1 - first.1,
                _ => return None,
            };
            Some((margin, i, b, near))
        })
        .collect();
    if ranked.is_empty() {
        return;
    }
    // A hostile dump's infinite a*/b* makes margins NaN; rank them anyway.
    ranked.sort_by(|x, y| x.0.total_cmp(&y.0));
    println!(
        "  most ambiguous classifications ({} of {} data band(s)):",
        ranked.len().min(bands_shown),
        ranked.len()
    );
    for (margin, i, b, near) in ranked.iter().take(bands_shown) {
        let top: Vec<String> = near
            .iter()
            .take(3)
            .map(|(idx, d)| format!("#{idx} d={d:.2}"))
            .collect();
        println!(
            "    band {i} @ frame {}: color {} (a*={:.1} b*={:.1}) — nearest {} (margin {margin:.2})",
            b.frame_index,
            b.color_idx,
            b.a,
            b.b,
            top.join(", ")
        );
    }
}

/// Re-run every replayable decode in the dump and assert byte-identical
/// verdicts, with each trigger's pinned journey held to the ring's record
/// of its id, or replayed when the ring evicted it. Returns false on any
/// mismatch.
fn replay_dump(dump: &Value, links: &BTreeMap<String, ReplayLink>) -> Result<bool, String> {
    let mut journeys = parse_journeys(dump);
    let mut replayed = 0usize;
    let mut skipped = 0usize;
    let mut mismatches = 0usize;
    let pinned = dump
        .get("triggers")
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|t| t.get("journey_record"))
        .filter_map(JourneyRecord::from_json);
    for record in pinned {
        match journeys.get(&record.id) {
            None => {
                journeys.insert(record.id, record);
            }
            Some(ring) if *ring != record => {
                eprintln!(
                    "postmortem: journey {} pinned by a trigger MISMATCHES its ring record \
                     (verdict {:?}, ring {:?})",
                    record.id, record.verdict, ring.verdict
                );
                mismatches += 1;
            }
            Some(_) => {}
        }
    }
    for journey in journeys.values() {
        let Some(link) = links.get(&journey.namespace) else {
            if journey.stage == "rx.data" || journey.stage == "rx.fec_group" {
                skipped += 1;
            }
            continue;
        };
        let outcome = match journey.stage.as_str() {
            "rx.data" => Some(replay_data(journey, link)),
            "rx.fec_group" => Some(replay_group(journey, link)),
            _ => None,
        };
        match outcome {
            Some(Ok(())) => replayed += 1,
            Some(Err(why)) => {
                eprintln!(
                    "postmortem: journey {} ({}, {:?}) replay MISMATCH: {why}",
                    journey.id, journey.stage, journey.verdict
                );
                mismatches += 1;
            }
            None => {}
        }
    }
    println!(
        "\nreplay: {replayed} decode(s) byte-identical, {mismatches} mismatch(es), \
         {skipped} skipped (no context)"
    );
    Ok(mismatches == 0)
}

/// Replay one `rx.data` journey through the pure per-packet decode and
/// compare verdict, chunk bytes, and erasure list with the record.
fn replay_data(journey: &JourneyRecord, link: &ReplayLink) -> Result<(), String> {
    let body: Vec<_> = journey.bands.iter().map(band_from_record).collect();
    let DataDecode { packet, erasures } = link.decode_data(&body);
    let verdict = match &packet {
        ParsedPacket::Data { .. } => "ok".to_string(),
        ParsedPacket::DataFailed { reason, .. } => reason.as_str().to_string(),
        other => format!("{other:?}"),
    };
    if verdict != journey.verdict {
        return Err(format!(
            "verdict {verdict:?}, recorded {:?}",
            journey.verdict
        ));
    }
    let recorded_erasures = u64_list(&journey.fields, "erasures");
    let erasures: Vec<u64> = erasures.iter().map(|&e| e as u64).collect();
    if erasures != recorded_erasures {
        return Err(format!(
            "erasures {erasures:?}, recorded {recorded_erasures:?}"
        ));
    }
    if let ParsedPacket::Data { chunk, .. } = &packet {
        let recorded_chunk = u64_list(&journey.fields, "chunk");
        let chunk: Vec<u64> = chunk.iter().map(|&b| b as u64).collect();
        if chunk != recorded_chunk {
            return Err("recovered chunk bytes differ".to_string());
        }
    }
    Ok(())
}

/// Replay one `rx.fec_group` journey through a rebuilt interleaver and
/// compare every codeword outcome with the record.
fn replay_group(journey: &JourneyRecord, link: &ReplayLink) -> Result<(), String> {
    let segments: Vec<SegmentObservation> = journey
        .fields
        .get("segments")
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|s| {
            Some(SegmentObservation::new(
                s.get("position")?.as_u64()? as usize,
                u64_list(s, "bytes").iter().map(|&b| b as u8).collect(),
                u64_list(s, "erased").iter().map(|&e| e as usize).collect(),
            ))
        })
        .collect();
    let decode = link.decode_group(&segments).map_err(|e| e.to_string())?;
    let outcomes = journey
        .fields
        .get("outcomes")
        .and_then(Value::as_array)
        .unwrap_or(&[]);
    if decode.codewords.len() != outcomes.len() {
        return Err(format!(
            "{} codeword(s), recorded {}",
            decode.codewords.len(),
            outcomes.len()
        ));
    }
    for (c, (cw, recorded)) in decode.codewords.iter().zip(outcomes).enumerate() {
        let rec_ok = matches!(recorded.get("recovered"), Some(Value::Bool(true)));
        match cw {
            CodewordOutcome::Recovered { data, .. } => {
                if !rec_ok {
                    return Err(format!("codeword {c} recovered, recorded unrecoverable"));
                }
                let chunk: Vec<u64> = data.iter().map(|&b| b as u64).collect();
                if chunk != u64_list(recorded, "chunk") {
                    return Err(format!("codeword {c} chunk bytes differ"));
                }
            }
            CodewordOutcome::Unrecoverable { erasures } => {
                if rec_ok {
                    return Err(format!("codeword {c} unrecoverable, recorded recovered"));
                }
                let rec_erasures = recorded.get("erasures").and_then(Value::as_u64);
                if Some(*erasures as u64) != rec_erasures {
                    return Err(format!(
                        "codeword {c} erasure count {} vs recorded {rec_erasures:?}",
                        erasures
                    ));
                }
            }
        }
    }
    Ok(())
}

/// A `fields` array of integers as `Vec<u64>` (empty when absent).
fn u64_list(fields: &Value, key: &str) -> Vec<u64> {
    fields
        .get(key)
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(Value::as_u64)
        .collect()
}
