//! Smoke test: every workload at tiny sizes, in both modes, through the
//! built benchmark binary (so the fabric workload spawns real worker
//! processes). Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

fn run(trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_tei-perfbench"))
        .args(["--workload", "all", "--seed", "7", "--seconds", "0.5"])
        .args(["--trace", trace, "--smoke"])
        .output()
        .expect("run tei-perfbench");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_workload_is_correct_at_tiny_sizes() {
    let result = run("0");
    assert!(result.starts_with("{\"correct\":true,"), "{result}");
    assert!(result.contains("\"failed\":0,"), "{result}");
    for w in ["paper-eval", "model-dev", "durable-cell", "fabric-cell"] {
        for m in ["wall_s", "setup_s", "peak_rss_mb"] {
            assert!(
                result.contains(&format!("\"{w}/{m}\"")),
                "{w}/{m} missing: {result}"
            );
        }
    }
}

#[test]
fn traced_run_reports_layers_and_covers_the_pipeline() {
    let result = run("1");
    assert!(result.starts_with("{\"correct\":true,"), "{result}");
    for m in [
        "paper-eval/campaign.share",
        "model-dev/dta.share",
        "durable-cell/journal.share",
        "fabric-cell/fabric.vs_threads",
        "fabric-cell/trace.overhead_frac",
    ] {
        assert!(
            result.contains(&format!("\"{m}\"")),
            "{m} missing: {result}"
        );
    }
}
