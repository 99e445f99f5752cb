//! # colorbars-bench — the experiment harness
//!
//! The binaries regenerate the paper's evaluation (Section 8 and the
//! design-study figures), each printing the same rows/series the paper
//! reports. Section 8 draws on two sweeps of one operating-point grid, so
//! two binaries run them once each and print every view: `raw_grid`
//! (Table 1, Figs 9–10) and `coded_grid` (Fig 11 and the FSK/OOK baseline
//! comparison). See DESIGN.md §3 for the experiment index and
//! EXPERIMENTS.md for recorded paper-vs-measured results.
//!
//! Shared machinery lives here: the seed-averaged link sweep (experiments
//! average over capture-phase seeds, since transmitter and camera clocks
//! are unsynchronized), the operating-point grid the paper uses
//! ([`paper_grid`]: Nexus 5/iPhone 5S × 4/8/16/32-CSK × 1–4 kHz) and its
//! per-device tables, and the [`Reporter`] every bench binary uses to write
//! a machine-readable `results/<experiment>.json` run report alongside its
//! stdout table.
//!
//! ## The sweep pool
//!
//! Every `(device, order, rate, seed)` cell of an experiment's grid is an
//! independent full link simulation, so the harness flattens the whole
//! grid into one job list and drains it through a single bounded worker
//! pool ([`run_grid`] / [`run_pool`]) sized to the machine. A link run
//! captures and decodes on the thread that runs it, so the pool width is
//! the *only* source of concurrency — grid × seed fan-out can never
//! oversubscribe.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use colorbars_camera::DeviceProfile;
use colorbars_core::{CskOrder, LinkMetrics, LinkSimulator};
use colorbars_obs as obs;
use colorbars_obs::Value;
use std::sync::Mutex;

/// The symbol rates of the paper's sweeps (Hz).
pub const RATES: [f64; 4] = [1000.0, 2000.0, 3000.0, 4000.0];

/// Capture-phase seeds each operating point is averaged over.
pub const SEEDS: [u64; 5] = [7, 21, 63, 105, 177];

/// Airtime of each uncoded run of the paper grid, seconds (Table 1,
/// Figs 9–10).
pub const RAW_SECONDS: f64 = 1.5;

/// Airtime of each coded run of the paper grid, seconds (Fig 11).
pub const CODED_SECONDS: f64 = 2.0;

/// The two evaluation devices.
pub fn devices() -> [(&'static str, DeviceProfile); 2] {
    [
        ("Nexus 5", DeviceProfile::nexus5()),
        ("iPhone 5S", DeviceProfile::iphone5s()),
    ]
}

/// Whether a sweep runs the coded link (goodput) or the uncoded
/// measurement (SER / raw throughput, paper Figs 9–10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepMode {
    /// `run_raw`: random symbols, no RS at either end.
    Raw,
    /// `run_random`: RS-coded random payload.
    Coded,
}

/// Seed-averaged metrics at one operating point, with the per-seed spread
/// of the headline metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AveragedMetrics {
    /// Mean symbol error rate.
    pub ser: f64,
    /// Mean raw throughput, bits/s.
    pub throughput_bps: f64,
    /// Mean goodput, bits/s.
    pub goodput_bps: f64,
    /// Mean symbols received per second (Table 1).
    pub symbols_received_per_sec: f64,
    /// Mean inferred inter-frame loss ratio.
    pub loss_ratio: f64,
    /// Per-seed sample standard deviation of the SER (0 below two runs).
    pub ser_std: f64,
    /// Per-seed sample standard deviation of the raw throughput, bits/s.
    pub throughput_bps_std: f64,
    /// Per-seed sample standard deviation of the goodput, bits/s.
    pub goodput_bps_std: f64,
    /// Seeds that produced a result.
    pub runs: usize,
}

impl AveragedMetrics {
    /// Average per-seed metrics: means, and the [`mean_std`] spread of the
    /// headline metrics. `None` when no seed produced a result.
    pub fn of(samples: &[LinkMetrics]) -> Option<AveragedMetrics> {
        if samples.is_empty() {
            return None;
        }
        let stat = |f: fn(&LinkMetrics) -> f64| mean_std(samples.iter().map(f));
        let (ser, ser_std) = stat(|m| m.ser);
        let (throughput_bps, throughput_bps_std) = stat(|m| m.throughput_bps);
        let (goodput_bps, goodput_bps_std) = stat(|m| m.goodput_bps);
        Some(AveragedMetrics {
            ser,
            throughput_bps,
            goodput_bps,
            symbols_received_per_sec: stat(|m| m.symbols_received_per_sec).0,
            loss_ratio: stat(|m| m.loss_ratio).0,
            ser_std,
            throughput_bps_std,
            goodput_bps_std,
            runs: samples.len(),
        })
    }

    /// Serialize for the run report.
    pub fn to_value(&self) -> Value {
        Value::object([
            ("ser", Value::from(self.ser)),
            ("throughput_bps", Value::from(self.throughput_bps)),
            ("goodput_bps", Value::from(self.goodput_bps)),
            (
                "symbols_received_per_sec",
                Value::from(self.symbols_received_per_sec),
            ),
            ("loss_ratio", Value::from(self.loss_ratio)),
            ("ser_std", Value::from(self.ser_std)),
            ("throughput_bps_std", Value::from(self.throughput_bps_std)),
            ("goodput_bps_std", Value::from(self.goodput_bps_std)),
            ("runs", Value::from(self.runs)),
        ])
    }
}

/// Mean and sample standard deviation, in two passes: the mean, then the
/// squared deviations from it over n − 1. The spread is 0 below two
/// samples; both are 0 for none.
pub fn mean_std(values: impl IntoIterator<Item = f64>) -> (f64, f64) {
    let values: Vec<f64> = values.into_iter().collect();
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    if values.len() < 2 {
        return (mean, 0.0);
    }
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0);
    (mean, var.max(0.0).sqrt())
}

/// Width of the sweep pool: `COLORBARS_SWEEP_THREADS` when set to a
/// positive integer, else one worker per available core.
pub fn sweep_threads() -> usize {
    std::env::var("COLORBARS_SWEEP_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Drain `jobs` through at most `threads` scoped workers and return the
/// results in job order. One shared queue feeds the workers, so long jobs
/// never leave idle threads behind a fixed pre-partition. `threads <= 1`
/// runs everything inline with no spawns.
pub fn run_pool<T, F>(jobs: Vec<F>, threads: usize) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = jobs.len();
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 {
        return jobs.into_iter().map(|job| job()).collect();
    }
    let queue = Mutex::new(jobs.into_iter().enumerate());
    let results = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        for worker in 0..threads {
            let queue = &queue;
            let results = &results;
            scope.spawn(move || {
                // Name this worker's track so the span timeline groups its
                // jobs under a stable label (no-op unless tracing).
                obs::trace::register_thread(&format!("pool-worker-{worker}"));
                loop {
                    // Take the job while holding the lock, run it after.
                    let next = queue.lock().expect("pool queue poisoned").next();
                    let Some((i, job)) = next else { break };
                    let out = job();
                    results
                        .lock()
                        .expect("pool results poisoned")
                        .push((i, out));
                }
            });
        }
    });
    let mut results = results.into_inner().expect("pool results poisoned");
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, out)| out).collect()
}

/// One operating point of the evaluation grid (device × order × rate).
#[derive(Debug, Clone)]
pub struct GridPoint {
    /// Device profile (carries its display name).
    pub device: DeviceProfile,
    /// CSK constellation order.
    pub order: CskOrder,
    /// Symbol rate, Hz.
    pub rate_hz: f64,
}

impl std::fmt::Display for GridPoint {
    /// `Nexus 5 32CSK @ 4 kHz`, as footers name a cell.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let khz = self.rate_hz / 1000.0;
        write!(f, "{} {} @ {khz} kHz", self.device.name, self.order)
    }
}

/// The paper's evaluation grid in print order: device-major (as
/// [`devices`]), then [`CskOrder::ALL`], then [`RATES`].
pub fn paper_grid() -> Vec<GridPoint> {
    let mut points = Vec::new();
    for (_, device) in devices() {
        for order in CskOrder::ALL {
            for rate_hz in RATES {
                points.push(GridPoint {
                    device: device.clone(),
                    order,
                    rate_hz,
                });
            }
        }
    }
    points
}

/// Run every `(point, seed)` cell of the grid through one bounded worker
/// pool ([`sweep_threads`] wide) and return the per-point seed averages in
/// input order. `None` marks a point that produced no successful seed
/// (unrealizable at that order/rate, or every run failed).
pub fn run_grid(
    points: &[GridPoint],
    seconds: f64,
    mode: SweepMode,
) -> Vec<Option<AveragedMetrics>> {
    let _span = obs::span!("bench.grid");
    let threads = sweep_threads();
    if obs::is_enabled() {
        obs::live::global()
            .gauge("bench.pool.threads", &[])
            .set(threads as f64);
    }
    obs::counter!("bench.grid.points", points.len());
    let jobs: Vec<_> = points
        .iter()
        .flat_map(|p| SEEDS.iter().map(move |&seed| (p.clone(), seed)))
        .map(|(point, seed)| move || run_seed(&point, seconds, mode, seed))
        .collect();
    run_pool(jobs, threads)
        .chunks(SEEDS.len())
        .map(|chunk| AveragedMetrics::of(&chunk.iter().flatten().cloned().collect::<Vec<_>>()))
        .collect()
}

/// One seed of one operating point: a full link simulation. Returns `None`
/// when the point is unrealizable or the run fails.
fn run_seed(point: &GridPoint, seconds: f64, mode: SweepMode, seed: u64) -> Option<LinkMetrics> {
    let _span = obs::span!("bench.seed_run");
    obs::counter!("bench.seed_runs");
    let sim =
        LinkSimulator::paper_setup(point.order, point.rate_hz, point.device.clone(), seed).ok()?;
    let result = match mode {
        SweepMode::Raw => sim.run_raw(seconds, seed ^ 0xABCD),
        SweepMode::Coded => sim.run_random(seconds, seed ^ 0xABCD),
    };
    result.ok()
}

/// Run one operating point, averaged over [`SEEDS`], through the same
/// bounded pool as [`run_grid`]. Returns `None` when the operating point
/// is unrealizable in the requested mode.
pub fn run_point(
    order: CskOrder,
    rate: f64,
    device: &DeviceProfile,
    seconds: f64,
    mode: SweepMode,
) -> Option<AveragedMetrics> {
    let point = GridPoint {
        device: device.clone(),
        order,
        rate_hz: rate,
    };
    run_grid(std::slice::from_ref(&point), seconds, mode)
        .pop()
        .flatten()
}

/// One labeled result row for machine-readable output.
#[derive(Debug, Clone)]
pub struct ResultRow {
    /// Experiment id (e.g. "raw_grid").
    pub experiment: String,
    /// Device name.
    pub device: String,
    /// CSK order as M.
    pub order: usize,
    /// Symbol rate in Hz.
    pub rate_hz: f64,
    /// The averaged metrics.
    pub metrics: AveragedMetrics,
}

impl ResultRow {
    /// Serialize for the run report.
    pub fn to_value(&self) -> Value {
        Value::object([
            ("experiment", Value::from(self.experiment.as_str())),
            ("device", Value::from(self.device.as_str())),
            ("order", Value::from(self.order)),
            ("rate_hz", Value::from(self.rate_hz)),
            ("metrics", self.metrics.to_value()),
        ])
    }
}

/// The flags a bin was run with, each one of `known`. Any other argument
/// prints a usage line and exits 2 before the bin writes anything, so a
/// mistyped or stale flag cannot run a sweep over committed results.
pub fn flags(known: &[&'static str]) -> Vec<&'static str> {
    let mut args = std::env::args();
    let bin = args.next().unwrap_or_default();
    let bin = std::path::Path::new(&bin)
        .file_name()
        .map_or(bin.clone(), |name| name.to_string_lossy().into_owned());
    args.map(|arg| {
        known
            .iter()
            .copied()
            .find(|k| *k == arg)
            .unwrap_or_else(|| {
                let usage: String = known.iter().map(|k| format!(" [{k}]")).collect();
                eprintln!("{bin}: unknown argument {arg:?}");
                eprintln!("usage: {bin}{usage}");
                std::process::exit(2)
            })
    })
    .collect()
}

/// Directory run reports are written to (`COLORBARS_RESULTS_DIR`, default
/// `results/`).
pub fn results_dir() -> String {
    std::env::var("COLORBARS_RESULTS_DIR").unwrap_or_else(|_| "results".to_string())
}

/// The per-binary run reporter: turns on the observability layer, collects
/// result rows while the experiment prints its stdout table, and on
/// [`Reporter::finish`] writes `results/<experiment>.json` carrying the
/// rows plus every span timing and stage counter of the run.
#[derive(Debug)]
pub struct Reporter {
    report: obs::RunReport,
    lines: Vec<String>,
}

impl Reporter {
    /// Start a report for `experiment` and enable observability. Metrics
    /// accumulated by earlier runs in the process are cleared.
    pub fn new(experiment: &str) -> Reporter {
        obs::init(obs::ObsConfig::from_env());
        obs::reset();
        // Name the harness thread's timeline track; pool workers register
        // their own.
        obs::trace::register_thread("main");
        let mut report = obs::RunReport::new(experiment);
        report.set_seeds(SEEDS);
        Reporter {
            report,
            lines: Vec::new(),
        }
    }

    /// Print one line to stdout *and* record it, so
    /// `results/<experiment>.txt` is byte-for-byte the printed table —
    /// both outputs come from this one call.
    pub fn say<S: AsRef<str>>(&mut self, line: S) {
        let line = line.as_ref();
        println!("{line}");
        self.lines.push(line.to_string());
    }

    /// Print (and record) a table header in the harness's uniform style.
    pub fn header(&mut self, title: &str, columns: &[&str]) {
        self.say("");
        self.say(format!("=== {title} ==="));
        self.say(columns.join("\t"));
    }

    /// Attach the experiment's configuration (free-form object).
    pub fn set_config(&mut self, config: Value) {
        self.report.set_config(config);
    }

    /// Record one table row.
    pub fn add(&mut self, row: &ResultRow) {
        self.report.push_row(row.to_value());
    }

    /// Record one free-form row (for experiments whose output is not a
    /// [`ResultRow`] grid).
    pub fn add_value(&mut self, row: Value) {
        self.report.push_row(row);
    }

    /// Write `results/<experiment>.json` (and, when the bin printed through
    /// [`Reporter::say`], the matching `.txt` transcript) and return the
    /// JSON path. Failures are reported on stderr, never panicking a
    /// finished experiment.
    pub fn finish(self) -> Option<std::path::PathBuf> {
        obs::flush();
        let dir = results_dir();
        if !self.lines.is_empty() {
            let txt = std::path::Path::new(&dir).join(format!("{}.txt", self.report.experiment()));
            let mut body = self.lines.join("\n");
            body.push('\n');
            let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&txt, body));
            if let Err(err) = written {
                eprintln!("colorbars-bench: cannot write text transcript: {err}");
            }
        }
        match self.report.write_to_dir(results_dir()) {
            Ok(path) => {
                eprintln!("run report: {}", path.display());
                Some(path)
            }
            Err(err) => {
                eprintln!("colorbars-bench: cannot write run report: {err}");
                None
            }
        }
    }
}

/// Format an optional metric cell.
pub fn cell(v: Option<f64>, digits: usize) -> String {
    match v {
        Some(x) => format!("{x:.digits$}"),
        None => "n/a".to_string(),
    }
}

/// One measured cell of the paper grid: the operating point and its seed
/// average (`None` where no seed produced a result).
pub type GridCell = (GridPoint, Option<AveragedMetrics>);

/// Cells per device in [`paper_grid`]: one per order × rate.
const DEVICE_CELLS: usize = CskOrder::ALL.len() * RATES.len();

/// Run [`paper_grid`] once through [`run_grid`] and record one
/// [`ResultRow`] per measured cell, tagged with the report's experiment.
/// Every table a binary prints of the sweep is a view of these cells.
pub fn measure_paper_grid(reporter: &mut Reporter, seconds: f64, mode: SweepMode) -> Vec<GridCell> {
    let points = paper_grid();
    let results = run_grid(&points, seconds, mode);
    for (point, metrics) in points.iter().zip(&results) {
        if let Some(metrics) = metrics {
            let row = ResultRow {
                experiment: reporter.report.experiment().to_string(),
                device: point.device.name.to_string(),
                order: point.order.points(),
                rate_hz: point.rate_hz,
                metrics: metrics.clone(),
            };
            reporter.add(&row);
        }
    }
    points.into_iter().zip(results).collect()
}

/// Print one table per device of a [`measure_paper_grid`] sweep in the
/// paper's figure layout: a row per order, a column per rate, each cell
/// `value` to `digits` decimals (`n/a` where the point has no result).
pub fn print_grid_tables(
    reporter: &mut Reporter,
    grid: &[GridCell],
    figure: &str,
    quantity: &str,
    value: fn(&AveragedMetrics) -> f64,
    digits: usize,
) {
    for device in grid.chunks(DEVICE_CELLS) {
        let name = device[0].0.device.name;
        reporter.header(
            &format!("{figure} ({name}): {quantity} vs symbol frequency"),
            &["order", "1 kHz", "2 kHz", "3 kHz", "4 kHz"],
        );
        for row in device.chunks(RATES.len()) {
            let cells = row.iter().map(|(_, m)| cell(m.as_ref().map(value), digits));
            let line: Vec<String> = std::iter::once(row[0].0.order.to_string())
                .chain(cells)
                .collect();
            reporter.say(line.join("\t"));
        }
    }
}

/// Each device's largest measured cell of `value` in a
/// [`measure_paper_grid`] sweep: the measured counterpart a footer prints
/// beside a paper "peak" claim.
pub fn device_peaks(
    grid: &[GridCell],
    value: fn(&AveragedMetrics) -> f64,
) -> Vec<(&GridPoint, &AveragedMetrics)> {
    grid.chunks(DEVICE_CELLS)
        .filter_map(|device| {
            device
                .iter()
                .filter_map(|(point, m)| Some((point, m.as_ref()?)))
                .max_by(|a, b| value(a.1).total_cmp(&value(b.1)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The obs registry and the `COLORBARS_*` environment are process-wide:
    /// tests that drive `run_point` (which counts into the registry whenever
    /// a sibling test has enabled obs) or set those variables must not
    /// interleave.
    fn sweep_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::OnceLock<std::sync::Mutex<()>> = std::sync::OnceLock::new();
        LOCK.get_or_init(|| std::sync::Mutex::new(()))
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn grid_constants_match_paper() {
        assert_eq!(RATES, [1000.0, 2000.0, 3000.0, 4000.0]);
        assert_eq!(devices()[0].0, "Nexus 5");
        assert_eq!(devices()[1].0, "iPhone 5S");
    }

    #[test]
    fn paper_grid_is_device_major_and_peaks_skip_missing_cells() {
        let points = paper_grid();
        assert_eq!(points.len(), 2 * DEVICE_CELLS);
        assert_eq!(points[5].to_string(), "Nexus 5 8CSK @ 2 kHz");
        assert_eq!(points[DEVICE_CELLS].to_string(), "iPhone 5S 4CSK @ 1 kHz");
        // Goodput rises along the grid; each device's last cell is missing.
        let grid: Vec<GridCell> = points
            .into_iter()
            .enumerate()
            .map(|(i, p)| {
                let last = i % DEVICE_CELLS == DEVICE_CELLS - 1;
                let m = AveragedMetrics {
                    goodput_bps: i as f64,
                    ..Default::default()
                };
                (p, (!last).then_some(m))
            })
            .collect();
        let peaks: Vec<String> = device_peaks(&grid, |m| m.goodput_bps)
            .into_iter()
            .map(|(p, m)| format!("{p} {}", m.goodput_bps))
            .collect();
        assert_eq!(
            peaks,
            ["Nexus 5 32CSK @ 3 kHz 14", "iPhone 5S 32CSK @ 3 kHz 30"]
        );
    }

    #[test]
    fn run_point_averages_over_seeds() {
        let _guard = sweep_lock();
        // Smallest sensible sweep: one point, short airtime.
        let (_, dev) = &devices()[0];
        let m =
            run_point(CskOrder::Csk8, 3000.0, dev, 0.4, SweepMode::Raw).expect("realizable point");
        assert!(m.runs >= 4, "most seeds should run: {}", m.runs);
        assert!(m.symbols_received_per_sec > 1500.0);
    }

    #[test]
    fn pool_returns_results_in_job_order() {
        let jobs: Vec<_> = (0..37).map(|i| move || i * i).collect();
        let want: Vec<i32> = (0..37).map(|i| i * i).collect();
        assert_eq!(run_pool(jobs, 4), want);
        // More workers than jobs, and no jobs at all, both degrade sanely.
        let one = vec![|| 7];
        assert_eq!(run_pool(one, 16), vec![7]);
        let empty: Vec<fn() -> i32> = Vec::new();
        assert!(run_pool(empty, 8).is_empty());
    }

    /// A cell is the same number whichever grid measures it: a run is
    /// seeded by its point and seed, never by its job index or the worker
    /// that drains it. Ablation 1 reads Fig 9's cell through `run_point`
    /// on this invariant.
    #[test]
    fn grid_cell_does_not_depend_on_its_grid() {
        let _guard = sweep_lock();
        let [(_, nexus), (_, iphone)] = devices();
        let point = |device: &DeviceProfile, order, rate_hz| GridPoint {
            device: device.clone(),
            order,
            rate_hz,
        };
        let points = [
            point(&iphone, CskOrder::Csk16, 4000.0),
            point(&nexus, CskOrder::Csk8, 3000.0),
            point(&iphone, CskOrder::Csk4, 2000.0),
        ];
        for threads in ["1", "2"] {
            std::env::set_var("COLORBARS_SWEEP_THREADS", threads);
            let in_grid = run_grid(&points, 0.3, SweepMode::Raw).swap_remove(1);
            let alone = run_point(CskOrder::Csk8, 3000.0, &nexus, 0.3, SweepMode::Raw);
            assert_eq!(alone.as_ref().map(|m| m.runs), Some(SEEDS.len()));
            assert_eq!(in_grid, alone, "{threads} sweep threads");
        }
        std::env::remove_var("COLORBARS_SWEEP_THREADS");
    }

    #[test]
    fn pool_single_thread_runs_inline() {
        // threads == 1 must not spawn: jobs observe the caller's thread.
        let caller = std::thread::current().id();
        let jobs: Vec<_> = (0..4)
            .map(|_| move || std::thread::current().id() == caller)
            .collect();
        assert!(run_pool(jobs, 1).into_iter().all(|same| same));
    }

    #[test]
    fn averaged_metrics_compute_seed_spread() {
        let (mean, std) = mean_std([1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!((mean - 3.0).abs() < 1e-12);
        // Sample std of 1..=5 is √2.5; a scaled series scales with it.
        let want = 2.5f64.sqrt();
        assert!((std - want).abs() < 1e-9, "std {std}");
        let (_, scaled) = mean_std([1.0, 2.0, 3.0, 4.0, 5.0].map(|v| 100.0 * v));
        assert!((scaled - 100.0 * want).abs() < 1e-7);

        assert_eq!(mean_std([0.5]), (0.5, 0.0), "a single run has no spread");
        assert_eq!(mean_std([]), (0.0, 0.0));
    }

    #[test]
    fn seed_spread_reaches_the_run_report() {
        let metrics = AveragedMetrics {
            ser: 0.25,
            ser_std: 0.03,
            throughput_bps_std: 12.5,
            runs: 5,
            ..Default::default()
        };
        let doc = metrics.to_value().to_compact();
        assert!(doc.contains("\"ser_std\":0.03"), "{doc}");
        assert!(doc.contains("\"throughput_bps_std\":12.5"), "{doc}");
    }

    #[test]
    fn sweep_threads_honors_env_override() {
        let _guard = sweep_lock();
        std::env::set_var("COLORBARS_SWEEP_THREADS", "3");
        assert_eq!(sweep_threads(), 3);
        std::env::set_var("COLORBARS_SWEEP_THREADS", "junk");
        assert!(sweep_threads() >= 1, "bad override falls back to cores");
        std::env::remove_var("COLORBARS_SWEEP_THREADS");
        assert!(sweep_threads() >= 1);
    }

    #[test]
    fn empty_grid_is_empty() {
        assert!(run_grid(&[], 0.1, SweepMode::Raw).is_empty());
    }

    #[test]
    fn cell_formatting() {
        assert_eq!(cell(Some(1.23456), 2), "1.23");
        assert_eq!(cell(None, 2), "n/a");
    }

    #[test]
    fn result_rows_convert_to_report_values() {
        let row = ResultRow {
            experiment: "fig10".into(),
            device: "iPhone 5S".into(),
            order: 32,
            rate_hz: 2000.0,
            metrics: AveragedMetrics {
                throughput_bps: 1234.5,
                runs: 5,
                ..Default::default()
            },
        };
        let doc = row.to_value().to_compact();
        assert!(doc.contains("\"experiment\":\"fig10\""));
        assert!(doc.contains("\"order\":32"));
        assert!(doc.contains("\"throughput_bps\":1234.5"));
        assert!(doc.contains("\"runs\":5"));
    }

    #[test]
    fn reporter_transcript_matches_stdout_lines() {
        let _guard = sweep_lock();
        let dir = std::env::temp_dir().join("colorbars_bench_transcript_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::env::set_var("COLORBARS_RESULTS_DIR", &dir);
        let mut reporter = Reporter::new("transcript_unit");
        reporter.header("A table", &["x", "y"]);
        reporter.say("1\t2");
        reporter.say(String::from("3\t4"));
        let json_path = reporter.finish().expect("report written");
        assert!(json_path.ends_with("transcript_unit.json"));
        let txt = std::fs::read_to_string(dir.join("transcript_unit.txt")).unwrap();
        // The .txt is byte-for-byte the `say` stream: header() is three says.
        assert_eq!(txt, "\n=== A table ===\nx\ty\n1\t2\n3\t4\n");
        std::env::remove_var("COLORBARS_RESULTS_DIR");
        let _ = std::fs::remove_dir_all(&dir);
        obs::disable();
    }

    /// End-to-end doctor check on a Table-1-style run: a real coded sweep
    /// populates the `tx.*`/`rx.*` counters, and the doctor's attributed
    /// losses must sum exactly to the observed totals (the DESIGN.md §10
    /// ledger invariant) on live data, not just on fixtures.
    #[test]
    fn doctor_ledgers_balance_on_a_live_coded_run() {
        let _guard = sweep_lock();
        obs::init(obs::ObsConfig::default());
        obs::reset();
        let (_, dev) = &devices()[0];
        run_point(CskOrder::Csk8, 3000.0, dev, 0.4, SweepMode::Coded).expect("realizable point");
        let snapshot = obs::snapshot();
        let diagnosis = obs::doctor::Doctor::from_snapshot(&snapshot).diagnose();
        assert!(
            diagnosis.is_consistent(),
            "violations: {:?}",
            diagnosis.violations
        );
        assert_eq!(
            diagnosis.attributed_symbol_loss(),
            diagnosis.total_symbol_loss()
        );
        assert_eq!(
            diagnosis.attributed_packet_loss(),
            diagnosis.total_packet_loss()
        );
        // A rolling-shutter link always loses symbols to the inter-frame
        // gap; the doctor must both see the loss and attribute it.
        assert!(diagnosis.total_symbol_loss() > 0);
        assert!(diagnosis.dominant().is_some());
        obs::disable();
        obs::reset();
    }
}
