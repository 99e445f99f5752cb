//! The paper's uncoded sweep, run once: Table 1, Fig 9(a)/(b) and
//! Fig 10(a)/(b) are three views of the same grid.
//!
//! The paper's configuration: automatic exposure/ISO, CIELAB demodulation,
//! no error correction, Nexus 5 and iPhone 5S × 4/8/16/32-CSK × 1–4 kHz,
//! each point averaged over the capture-phase seeds.
//!
//! * **Table 1** — symbols (bands) received per second at each rate, and
//!   the implied inter-frame loss ratio `1 − received/transmitted`
//!   averaged across the rates, read from the 8-CSK rows.
//! * **Fig 9** — symbol error rate: the fraction of incorrectly
//!   demodulated color symbols, measured after the receiver's first
//!   calibration packet.
//! * **Fig 10** — raw throughput: received symbols excluding the white
//!   illumination symbols, times bits per symbol.

use colorbars_bench::{
    device_peaks, mean_std, measure_paper_grid, print_grid_tables, AveragedMetrics, GridCell,
    GridPoint, Reporter, SweepMode, RATES, RAW_SECONDS,
};
use colorbars_core::CskOrder;

const NEXUS: &str = "Nexus 5";
const IPHONE: &str = "iPhone 5S";

fn main() {
    colorbars_bench::flags(&[]);
    let mut reporter = Reporter::new("raw_grid");
    let grid = measure_paper_grid(&mut reporter, RAW_SECONDS, SweepMode::Raw);
    table1(&mut reporter, &grid);

    print_grid_tables(&mut reporter, &grid, "Fig 9", "SER", |m| m.ser, 4);
    reporter.say("");
    reporter.say("Paper: 4/8-CSK SER stays near zero at every rate — reliable communication;");
    reporter.say("denser constellations err more, and the iPhone 5S demodulates colors more");
    reporter.say("accurately than the Nexus 5.");
    let worst: Vec<String> = [NEXUS, IPHONE]
        .into_iter()
        .filter_map(|device| {
            cells(&grid, device, |order| order.points() <= 8)
                .into_iter()
                .max_by(|a, b| a.1.ser.total_cmp(&b.1.ser))
                .map(|(point, m)| format!("{point} {:.4}", m.ser))
        })
        .collect();
    reporter.say(format!("Measured: worst 4/8-CSK SER {}.", worst.join(", ")));
    let means: Vec<String> = CskOrder::ALL
        .into_iter()
        .map(|order| {
            let sers = grid
                .iter()
                .filter(|(point, _)| point.order == order)
                .filter_map(|(_, m)| Some(m.as_ref()?.ser));
            format!("{order} {:.4}", mean_std(sers).0)
        })
        .collect();
    reporter.say(format!(
        "Measured: mean SER over devices and rates {}.",
        means.join(", ")
    ));
    let csk32 = |device| cells(&grid, device, |order| order == CskOrder::Csk32);
    let (nexus, iphone) = (csk32(NEXUS), csk32(IPHONE));
    let above = iphone
        .iter()
        .zip(&nexus)
        .filter(|(i, n)| i.1.ser > n.1.ser)
        .count();
    reporter.say(format!(
        "Measured: iPhone 5S 32CSK SER is above the Nexus 5's at {above} of {} rates.",
        nexus.len()
    ));

    print_grid_tables(
        &mut reporter,
        &grid,
        "Fig 10",
        "raw throughput (bps)",
        |m| m.throughput_bps,
        0,
    );
    reporter.say("");
    reporter.say("Paper: throughput rises with both symbol rate and constellation order;");
    reporter.say("maxima over 11 kbps (Nexus 5) and 9 kbps (iPhone 5S) at 32-CSK, 4 kHz;");
    reporter.say("the iPhone trails because its inter-frame gap loses more symbols.");
    let maxima: Vec<String> = device_peaks(&grid, |m| m.throughput_bps)
        .into_iter()
        .map(|(point, m)| format!("{point} {:.0} bps", m.throughput_bps))
        .collect();
    reporter.say(format!("Measured: maxima {}.", maxima.join(", ")));
    reporter.finish();
}

/// The measured cells of `device` whose order passes `keep`, in grid order.
fn cells<'a>(
    grid: &'a [GridCell],
    device: &str,
    keep: impl Fn(CskOrder) -> bool,
) -> Vec<(&'a GridPoint, &'a AveragedMetrics)> {
    grid.iter()
        .filter(|(point, _)| point.device.name == device && keep(point.order))
        .filter_map(|(point, m)| Some((point, m.as_ref()?)))
        .collect()
}

/// Table 1 from the grid's 8-CSK rows, with the paper's reference rows.
fn table1(reporter: &mut Reporter, grid: &[GridCell]) {
    const PAPER: [(&str, [f64; 4], f64); 2] = [
        (NEXUS, [772.84, 1506.11, 2352.65, 3060.67], 0.2312),
        (IPHONE, [640.55, 1263.56, 1887.73, 2431.01], 0.3727),
    ];
    reporter.header(
        "Table 1: symbols received per second (avg over capture phases)",
        &[
            "device",
            "1000 Hz",
            "2000 Hz",
            "3000 Hz",
            "4000 Hz",
            "avg loss ratio",
            "paper loss",
        ],
    );
    let mut received = Vec::new();
    for (device, paper_row, paper_loss) in PAPER {
        let csk8 = cells(grid, device, |order| order == CskOrder::Csk8);
        assert_eq!(csk8.len(), RATES.len(), "8-CSK is measurable at every rate");
        let row: Vec<f64> = csk8
            .iter()
            .map(|(_, m)| m.symbols_received_per_sec)
            .collect();
        let loss = mean_std(csk8.iter().map(|(_, m)| m.loss_ratio)).0;
        let row_text: Vec<String> = row.iter().map(|v| format!("{v:.1}")).collect();
        reporter.say(format!(
            "{device}\t{}\t{loss:.4}\t{paper_loss:.4}",
            row_text.join("\t")
        ));
        reporter.say(format!(
            "  (paper)\t{}",
            paper_row.map(|v| format!("{v:.1}")).join("\t")
        ));
        received.push(row);
    }
    reporter.say("");
    reporter.say("Paper: the iPhone 5S spends a larger fraction of each frame period in its");
    reporter.say("inter-frame gap, so it receives fewer symbols despite lower noise.");
    let fewer = received[1]
        .iter()
        .zip(&received[0])
        .filter(|(iphone, nexus)| iphone < nexus)
        .count();
    reporter.say(format!(
        "Measured: the iPhone 5S receives fewer symbols than the Nexus 5 at {fewer} of {} rates.",
        RATES.len()
    ));
}
