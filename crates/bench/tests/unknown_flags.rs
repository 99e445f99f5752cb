//! Every bin of this package refuses an argument it does not know: it
//! exits 2 before writing anything, so a mistyped or stale flag cannot run
//! a sweep and overwrite committed results.

use std::path::Path;
use std::process::Command;

/// Every bin of the package: its name and Cargo's path to it.
const BINS: [(&str, &str); 19] = [
    ("ablations", env!("CARGO_BIN_EXE_ablations")),
    ("coded_grid", env!("CARGO_BIN_EXE_coded_grid")),
    ("doctor", env!("CARGO_BIN_EXE_doctor")),
    (
        "ext_constellation_opt",
        env!("CARGO_BIN_EXE_ext_constellation_opt"),
    ),
    (
        "ext_distance_sweep",
        env!("CARGO_BIN_EXE_ext_distance_sweep"),
    ),
    ("ext_fec", env!("CARGO_BIN_EXE_ext_fec")),
    ("ext_gray_mapping", env!("CARGO_BIN_EXE_ext_gray_mapping")),
    ("ext_highorder", env!("CARGO_BIN_EXE_ext_highorder")),
    (
        "fig1_constellations",
        env!("CARGO_BIN_EXE_fig1_constellations"),
    ),
    ("fig3b_flicker", env!("CARGO_BIN_EXE_fig3b_flicker")),
    ("fig3c_bandwidth", env!("CARGO_BIN_EXE_fig3c_bandwidth")),
    ("fig6_diversity", env!("CARGO_BIN_EXE_fig6_diversity")),
    (
        "fig8b_lab_variance",
        env!("CARGO_BIN_EXE_fig8b_lab_variance"),
    ),
    ("gateway", env!("CARGO_BIN_EXE_gateway")),
    ("linkbench", env!("CARGO_BIN_EXE_linkbench")),
    ("obs-diff", env!("CARGO_BIN_EXE_obs-diff")),
    ("perf_probe", env!("CARGO_BIN_EXE_perf_probe")),
    ("postmortem", env!("CARGO_BIN_EXE_postmortem")),
    ("raw_grid", env!("CARGO_BIN_EXE_raw_grid")),
];

#[test]
fn the_list_holds_every_bin_of_the_package() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
    let mut sources: Vec<String> = std::fs::read_dir(dir)
        .expect("src/bin is readable")
        .map(|entry| {
            let name = entry.expect("a directory entry").file_name();
            let name = name.to_string_lossy();
            name.strip_suffix(".rs").unwrap_or(&name).to_string()
        })
        .collect();
    sources.sort();
    // Cargo.toml renames `obs_diff.rs` to the hyphenated `obs-diff`.
    let listed: Vec<String> = BINS
        .iter()
        .map(|(name, _)| name.replace('-', "_"))
        .collect();
    assert_eq!(listed, sources);
}

#[test]
fn every_bin_refuses_an_unknown_flag_before_writing() {
    let dir = std::env::temp_dir().join(format!("colorbars-unknown-flag-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (name, exe) in BINS {
        // Run from the empty directory too, so a bin that ignored
        // COLORBARS_RESULTS_DIR and wrote `results/` would still show.
        let out = Command::new(exe)
            .arg("--no-such-flag")
            .env("COLORBARS_RESULTS_DIR", &dir)
            .current_dir(&dir)
            .output()
            .unwrap_or_else(|e| panic!("cannot run {name}: {e}"));
        assert_eq!(
            out.status.code(),
            Some(2),
            "{name} --no-such-flag: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let left: Vec<_> = std::fs::read_dir(&dir)
            .expect("temp dir is readable")
            .map(|e| e.expect("a directory entry").file_name())
            .collect();
        assert!(left.is_empty(), "{name} --no-such-flag wrote {left:?}");
    }
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
}
