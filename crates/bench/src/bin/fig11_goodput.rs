//! Fig 11(a)/(b): goodput vs symbol frequency for CSK-4/8/16/32 on Nexus 5
//! and iPhone 5S.
//!
//! Paper definition: Reed–Solomon error correction enabled; count only
//! correctly received or recovered data (here: verified-correct recovered
//! chunks). Unlike raw throughput, higher-order CSK does not always win —
//! at 32-CSK the symbol error rate starts to defeat the parity budget.

use colorbars_bench::{cell, devices, run_grid, GridPoint, Reporter, ResultRow, SweepMode, RATES};
use colorbars_core::CskOrder;

fn main() {
    let mut reporter = Reporter::new("fig11_goodput");
    // The whole device × order × rate grid drains through one bounded
    // worker pool; results come back in construction order.
    let mut points = Vec::new();
    for (_, device) in devices() {
        for order in CskOrder::ALL {
            for &rate in &RATES {
                points.push(GridPoint {
                    device: device.clone(),
                    order,
                    rate_hz: rate,
                });
            }
        }
    }
    let mut results = run_grid(&points, 2.0, SweepMode::Coded).into_iter();
    for (name, _) in devices() {
        reporter.header(
            &format!("Fig 11 ({name}): goodput (bps) vs symbol frequency"),
            &["order", "1 kHz", "2 kHz", "3 kHz", "4 kHz"],
        );
        for order in CskOrder::ALL {
            let mut row = vec![format!("{order}")];
            for &rate in &RATES {
                let m = results.next().expect("grid matches print order");
                if let Some(metrics) = m.clone() {
                    reporter.add(&ResultRow {
                        experiment: "fig11".into(),
                        device: name.into(),
                        order: order.points(),
                        rate_hz: rate,
                        metrics,
                    });
                }
                row.push(cell(m.map(|m| m.goodput_bps), 0));
            }
            reporter.say(row.join("\t"));
        }
    }
    reporter.say("");
    reporter.say("(Paper's shape: goodput peaks at 16-CSK, 4 kHz — ≈5.2 kbps on Nexus 5");
    reporter.say("and ≈2.5 kbps on iPhone 5S; the iPhone's larger inter-frame loss ratio");
    reporter.say("forces a lower-rate RS code, bounding its goodput.)");
    reporter.finish();
}
