//! Extension experiment: multi-transmitter scenes — aggregate throughput
//! vs number of concurrent CSK transmitters sharing one camera sensor.
//!
//! Goes beyond the paper (one LED filling the ROI): 1–4 transmitters are
//! composed side by side on the image plane with guard gaps, the receiver
//! segments the columns by temporal variance, and one decoder runs per
//! detected region. Every (device, order, transmitter count, seed) run is
//! independent, so the runs fan out through the sweep pool and each cell
//! averages its successful seeds. Reported per cell: per-TX SER/goodput,
//! cross-talk error attribution, and the aggregate throughput, which
//! should scale with transmitter count since the links are spatially
//! multiplexed.
//!
//! `--smoke` runs a single reduced cell set for CI.

use colorbars_bench::{cell, devices, run_pool, sweep_threads, Reporter};
use colorbars_camera::DeviceProfile;
use colorbars_core::CskOrder;
use colorbars_obs::Value;
use colorbars_scene::{MultiLinkMetrics, MultiLinkSimulator, SceneMode};

const TX_COUNTS: [usize; 4] = [1, 2, 3, 4];
const RATE_HZ: f64 = 2000.0;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut reporter = Reporter::new("ext_multi_tx");

    let (device_list, orders, tx_counts, seconds, seeds): (
        Vec<_>,
        &[CskOrder],
        &[usize],
        f64,
        &[u64],
    ) = if smoke {
        (
            devices().into_iter().take(1).collect(),
            &[CskOrder::Csk8],
            &[1, 2],
            0.3,
            &[7],
        )
    } else {
        (
            devices().to_vec(),
            &CskOrder::ALL,
            &TX_COUNTS,
            0.75,
            &[7, 21],
        )
    };
    reporter.set_config(Value::object([
        ("rate_hz", Value::from(RATE_HZ)),
        ("seconds", Value::from(seconds)),
        ("mode", Value::from("coded")),
        ("smoke", Value::from(smoke)),
        (
            "seeds",
            Value::Array(seeds.iter().map(|&s| Value::from(s)).collect()),
        ),
    ]));

    // Jobs in print order: device, order, transmitter count, then seed.
    let mut jobs = Vec::new();
    for (_, device) in &device_list {
        for &order in orders {
            for &tx_count in tx_counts {
                for &seed in seeds {
                    jobs.push(move || run_seed(device, order, tx_count, seconds, seed));
                }
            }
        }
    }
    let mut outcomes = run_pool(jobs, sweep_threads()).into_iter();

    for (name, _) in &device_list {
        reporter.header(
            &format!("Ext ({name}): aggregate throughput (bps) vs transmitters, {RATE_HZ} Hz"),
            &["order", "1 TX", "2 TX", "3 TX", "4 TX"],
        );
        for &order in orders {
            let mut row = vec![format!("{order}")];
            for &tx_count in tx_counts {
                let runs: Vec<MultiLinkMetrics> =
                    outcomes.by_ref().take(seeds.len()).flatten().collect();
                if runs.is_empty() {
                    row.push(cell(None, 0));
                    continue;
                }
                let mean = |f: &dyn Fn(&MultiLinkMetrics) -> f64| {
                    runs.iter().map(f).sum::<f64>() / runs.len() as f64
                };
                let agg_tput = mean(&|m| m.aggregate_throughput_bps);
                reporter.add_value(Value::object([
                    ("experiment", Value::from("ext_multi_tx")),
                    ("device", Value::from(*name)),
                    ("order", Value::from(order.points())),
                    ("rate_hz", Value::from(RATE_HZ)),
                    ("tx_count", Value::from(tx_count)),
                    ("runs", Value::from(runs.len())),
                    ("aggregate_throughput_bps", Value::from(agg_tput)),
                    (
                        "aggregate_goodput_bps",
                        Value::from(mean(&|m| m.aggregate_goodput_bps)),
                    ),
                    ("mean_ser", Value::from(mean(&|m| m.mean_ser))),
                    ("detected", Value::from(mean(&|m| m.detected as f64))),
                    (
                        "unmatched_regions",
                        Value::from(mean(&|m| m.unmatched_regions as f64)),
                    ),
                    ("per_tx", per_tx_value(&runs)),
                ]));
                row.push(cell(Some(agg_tput), 0));
            }
            reporter.say(row.join("\t"));
        }
    }
    reporter.say("");
    reporter.say("(Links are spatially multiplexed: aggregate throughput should grow");
    reporter.say("with transmitter count while per-TX rates stay near the single-link");
    reporter.say("figure; crosstalk_errors attributes residual SER to neighbors.)");
    reporter.finish();
}

/// One seed of one cell: a full coded scene run. `None` when the operating
/// point is unrealizable (RS budget) or the run fails; a cell with no
/// successful seed prints n/a, like the single-link sweeps.
fn run_seed(
    device: &DeviceProfile,
    order: CskOrder,
    tx_count: usize,
    seconds: f64,
    seed: u64,
) -> Option<MultiLinkMetrics> {
    MultiLinkSimulator::paper_setup(order, RATE_HZ, device.clone(), tx_count, seed)
        .ok()?
        .run(SceneMode::Coded, seconds, seed)
        .ok()
}

/// Per-transmitter detail averaged over the seed runs (every run has the
/// same transmitter count).
fn per_tx_value(runs: &[MultiLinkMetrics]) -> Value {
    let n = runs[0].per_tx.len();
    let items = (0..n)
        .map(|k| {
            let outcomes = runs.iter().map(|m| &m.per_tx[k]);
            let detected = outcomes.clone().filter(|o| o.metrics.is_some()).count();
            let mean_of = |f: &dyn Fn(&colorbars_core::LinkMetrics) -> f64| {
                let vals: Vec<f64> = runs
                    .iter()
                    .filter_map(|m| m.per_tx[k].metrics.as_ref())
                    .map(f)
                    .collect();
                if vals.is_empty() {
                    0.0
                } else {
                    vals.iter().sum::<f64>() / vals.len() as f64
                }
            };
            let (errors, crosstalk) = outcomes.fold((0usize, 0usize), |acc, o| {
                (acc.0 + o.ser_errors, acc.1 + o.crosstalk_errors)
            });
            Value::object([
                ("tx", Value::from(k)),
                ("detected_runs", Value::from(detected)),
                ("ser", Value::from(mean_of(&|m| m.ser))),
                (
                    "throughput_bps",
                    Value::from(mean_of(&|m| m.throughput_bps)),
                ),
                ("goodput_bps", Value::from(mean_of(&|m| m.goodput_bps))),
                ("ser_errors", Value::from(errors)),
                ("crosstalk_errors", Value::from(crosstalk)),
            ])
        })
        .collect();
    Value::Array(items)
}
