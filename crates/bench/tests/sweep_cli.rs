//! Process-level test of `tei sweep` over the real binary: a 4-point
//! continuous-Vdd sweep of `cg` must reproduce pinned AVM rows and the
//! pinned minimum voltage, identically at the default thread count and
//! at one thread with lane width 1.

use std::path::PathBuf;
use std::process::Command;

/// Pinned `(vdd, avm, masked, sdc)` per grid row; crash and timeout
/// are zero in every row.
const ROWS: [(f64, f64, u64, u64); 4] = [
    (0.880, 0.125, 105, 15),
    (0.953, 0.100, 108, 12),
    (1.027, 0.0, 120, 0),
    (1.100, 0.0, 120, 0),
];

/// Lowest grid voltage whose AVM meets the default 0.01 target.
const MIN_VDD: f64 = 1.027;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tei-sweep-cli-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[derive(Debug, PartialEq, serde::Deserialize)]
struct Row {
    vdd: f64,
    avm: f64,
    masked: u64,
    sdc: u64,
    crash: u64,
    timeout: u64,
}

/// The fields of a sweep result this test pins; the rest are skipped.
#[derive(Debug, PartialEq, serde::Deserialize)]
struct Sweep {
    min_vdd_at_target: Option<f64>,
    grid: Vec<Row>,
}

/// Run the sweep in its own directory (so nothing lands in the source
/// tree) and return its parsed result.
fn run_sweep(tag: &str, env: &[(&str, &str)]) -> Sweep {
    let dir = scratch_dir(tag);
    let out = dir.join("s.json");
    let output = Command::new(env!("CARGO_BIN_EXE_tei"))
        .current_dir(&dir)
        .envs(env.iter().copied())
        .args(["sweep", "--benchmark", "cg", "--grid", "4", "--runs", "120"])
        .args(["--dta-cap", "4000", "--out"])
        .arg(&out)
        .output()
        .expect("spawn tei sweep");
    assert!(
        output.status.success(),
        "tei sweep failed: {}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let body = std::fs::read_to_string(&out).expect("sweep result");
    std::fs::remove_dir_all(&dir).ok();
    serde_json::from_str(&body).expect("parse sweep result")
}

fn assert_pinned(result: &Sweep, what: &str) {
    assert_eq!(result.grid.len(), ROWS.len(), "{what}: grid length");
    for (row, &(vdd, avm, masked, sdc)) in result.grid.iter().zip(&ROWS) {
        assert!(
            (row.vdd - vdd).abs() < 1e-3,
            "{what}: vdd {} != {vdd}",
            row.vdd
        );
        assert_eq!(row.avm, avm, "{what}: avm at {vdd}");
        assert_eq!(row.masked, masked, "{what}: masked at {vdd}");
        assert_eq!(row.sdc, sdc, "{what}: sdc at {vdd}");
        assert_eq!(row.crash, 0, "{what}: crash at {vdd}");
        assert_eq!(row.timeout, 0, "{what}: timeout at {vdd}");
    }
    let min_vdd = result
        .min_vdd_at_target
        .expect("a grid voltage meets the target");
    assert!(
        (min_vdd - MIN_VDD).abs() < 1e-3,
        "{what}: min Vdd {min_vdd} != {MIN_VDD}"
    );
}

#[test]
fn cg_sweep_matches_pinned_grid_at_any_thread_and_lane_count() {
    let default = run_sweep("default", &[]);
    assert_pinned(&default, "default threads");
    let serial = run_sweep("serial", &[("TEI_THREADS", "1"), ("TEI_LANES", "1")]);
    assert_pinned(&serial, "TEI_THREADS=1 TEI_LANES=1");
    assert_eq!(
        default, serial,
        "sweep differs across threads and lane widths"
    );
}
