//! README's benchmark section names one instrument per timed fact. These
//! tests hold its owner table to the instruments it names: `perf_probe`
//! must print exactly the fields of the table's perf_probe rows, every
//! linkbench workload and metric the table names must be declared in
//! `BENCHMARK.json` (read here, never written), and no name may appear in
//! two rows.

use colorbars_obs::Value;
use std::collections::BTreeSet;
use std::process::Command;

const README: &str = include_str!("../../../README.md");
const BENCHMARK: &str = include_str!("../../../BENCHMARK.json");

/// The header row of README's owner table.
const HEADER: &str = "| fact | owner | reported as |";

/// One row of the owner table.
struct Row {
    /// The owner cell's first word: `linkbench`, `perf_probe`, ...
    instrument: String,
    /// The owner cell's quoted names: linkbench workloads, criterion
    /// benches, gateway flags.
    qualifiers: Vec<String>,
    /// The names the row is reported as.
    names: Vec<String>,
}

/// The names between backquotes in a markdown cell.
fn quoted(cell: &str) -> Vec<String> {
    cell.split('`')
        .skip(1)
        .step_by(2)
        .map(str::to_string)
        .collect()
}

fn owner_table() -> Vec<Row> {
    let mut lines = README.lines().skip_while(|line| line.trim() != HEADER);
    assert!(
        lines.next().is_some(),
        "README has no owner table headed {HEADER:?}"
    );
    let rows: Vec<Row> = lines
        .skip(1)
        .take_while(|line| line.starts_with('|'))
        .map(|line| {
            let cells: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
            assert_eq!(
                cells.len(),
                3,
                "owner table row {line:?} has {} cells",
                cells.len()
            );
            Row {
                instrument: cells[1].split_whitespace().next().unwrap_or("").to_string(),
                qualifiers: quoted(cells[1]),
                names: quoted(cells[2]),
            }
        })
        .collect();
    assert!(!rows.is_empty(), "README's owner table has no rows");
    rows
}

/// The names that the rows of `instrument` report.
fn names_of(rows: &[Row], instrument: &str) -> BTreeSet<String> {
    rows.iter()
        .filter(|row| row.instrument == instrument)
        .flat_map(|row| row.names.iter().cloned())
        .collect()
}

/// The `name` of every entry of `BENCHMARK.json`'s list `list`.
fn declared(benchmark: &Value, list: &str) -> BTreeSet<String> {
    benchmark
        .get(list)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no list {list:?}"))
        .iter()
        .filter_map(|entry| entry.get("name").and_then(Value::as_str))
        .map(str::to_string)
        .collect()
}

#[test]
fn perf_probe_prints_exactly_the_fields_the_table_names() {
    let out = Command::new(env!("CARGO_BIN_EXE_perf_probe"))
        .arg("--smoke")
        .output()
        .expect("perf_probe starts");
    // The report prints whether or not the closure gate passes, and this
    // test reads only its field names, so the exit status is not checked.
    let stdout = String::from_utf8_lossy(&out.stdout);
    let report = Value::parse(stdout.trim()).unwrap_or_else(|e| {
        panic!(
            "perf_probe --smoke printed no JSON object ({e:?}); stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    // Every number is a measured fact; `smoke` is the run's mode.
    let printed: BTreeSet<String> = report
        .as_object()
        .expect("perf_probe's report is an object")
        .iter()
        .filter(|(_, value)| value.as_f64().is_some())
        .map(|(name, _)| name.clone())
        .collect();
    let listed = names_of(&owner_table(), "perf_probe");
    let unlisted: Vec<_> = printed.difference(&listed).collect();
    let unprinted: Vec<_> = listed.difference(&printed).collect();
    assert!(
        unlisted.is_empty() && unprinted.is_empty(),
        "perf_probe prints {unlisted:?}, which README's owner table lacks; \
         the table lists {unprinted:?}, which perf_probe does not print"
    );
}

#[test]
fn linkbench_rows_name_declared_workloads_and_metrics() {
    let benchmark = Value::parse(BENCHMARK).expect("BENCHMARK.json parses");
    let workloads = declared(&benchmark, "workloads");
    let metrics: BTreeSet<String> = declared(&benchmark, "end_to_end")
        .union(&declared(&benchmark, "per_layer"))
        .cloned()
        .collect();
    let rows = owner_table();
    let mut undeclared = Vec::new();
    for row in rows.iter().filter(|row| row.instrument == "linkbench") {
        undeclared.extend(row.qualifiers.iter().filter(|w| !workloads.contains(*w)));
        undeclared.extend(row.names.iter().filter(|m| !metrics.contains(*m)));
    }
    assert!(
        undeclared.is_empty(),
        "README's owner table names linkbench workloads or metrics that \
         BENCHMARK.json does not declare: {undeclared:?}"
    );
    assert!(
        !names_of(&rows, "linkbench").is_empty(),
        "README's owner table has no linkbench rows"
    );
}

#[test]
fn no_name_is_reported_by_two_rows() {
    let mut seen = BTreeSet::new();
    let twice: Vec<String> = owner_table()
        .into_iter()
        .flat_map(|row| row.names)
        .filter(|name| !seen.insert(name.clone()))
        .collect();
    assert!(
        twice.is_empty(),
        "README's owner table reports {twice:?} in more than one row"
    );
}
