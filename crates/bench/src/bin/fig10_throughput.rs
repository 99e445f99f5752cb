//! Fig 10(a)/(b): raw achievable throughput vs symbol frequency for
//! CSK-4/8/16/32 on Nexus 5 and iPhone 5S.
//!
//! Paper definition: no error correction; count received symbols excluding
//! the white illumination symbols, times bits per symbol.

use colorbars_bench::{cell, devices, run_grid, GridPoint, Reporter, ResultRow, SweepMode, RATES};
use colorbars_core::CskOrder;

fn main() {
    let mut reporter = Reporter::new("fig10_throughput");
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
    let mut results = run_grid(&points, 1.5, SweepMode::Raw).into_iter();
    for (name, _) in devices() {
        reporter.header(
            &format!("Fig 10 ({name}): raw throughput (bps) vs symbol frequency"),
            &["order", "1 kHz", "2 kHz", "3 kHz", "4 kHz"],
        );
        for order in CskOrder::ALL {
            let mut row = vec![format!("{order}")];
            for &rate in &RATES {
                let m = results.next().expect("grid matches print order");
                if let Some(metrics) = m.clone() {
                    reporter.add(&ResultRow {
                        experiment: "fig10".into(),
                        device: name.into(),
                        order: order.points(),
                        rate_hz: rate,
                        metrics,
                    });
                }
                row.push(cell(m.map(|m| m.throughput_bps), 0));
            }
            reporter.say(row.join("\t"));
        }
    }
    reporter.say("");
    reporter.say("(Paper's shape: throughput rises with both symbol rate and constellation");
    reporter.say("order; maxima over 11 kbps (Nexus 5) and 9 kbps (iPhone 5S) at 32-CSK,");
    reporter.say("4 kHz; the iPhone trails because its inter-frame gap loses more symbols.)");
    reporter.finish();
}
