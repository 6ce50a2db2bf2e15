//! Process-level fabric tests over the real `tei` binary: a 2-worker
//! campaign with a chaos SIGKILL mid-lease must reassign the dead
//! worker's leases and still merge to the exact serial result, and a
//! `tei serve` + `tei submit` round trip must stream that same result
//! (twice — the second submission answers from the journals without
//! re-executing). These are the CI smoke tests of DESIGN.md's
//! "Campaign fabric" section. The same result must come from the
//! in-process `tei campaign`, and malformed command lines must fail
//! before any work starts.

use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::OnceLock;
use tei_core::campaign::{self, GoldenRun};
use tei_core::{CampaignResult, DaModel};
use tei_timing::VoltageReduction;
use tei_workloads::{build, BenchmarkId, Scale};

const RUNS: usize = 64;

fn tei_bin() -> &'static str {
    env!("CARGO_BIN_EXE_tei")
}

fn scratch_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("tei-fabric-cli-{}-{tag}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The serial ground truth, computed in-process with the exact campaign
/// identity the fabric derives from the same spec flags (throttle and
/// worker count are excluded from the manifest, so they cannot matter).
fn reference_json() -> &'static str {
    static REF: OnceLock<String> = OnceLock::new();
    REF.get_or_init(|| {
        let dir = scratch_dir("ref");
        let bench = build(BenchmarkId::Sobel, Scale::Test);
        let golden = GoldenRun::capture(&bench, 8 << 20, u64::MAX).expect("golden run");
        let model = DaModel::from_fixed(VoltageReduction::VR20, 1e-2);
        let cfg = campaign::CampaignConfig {
            runs: RUNS,
            seed: 1,
            timeout_factor: 2.0,
            threads: 1,
            ..Default::default()
        };
        let result = campaign::run_campaign_durable("sobel", &golden, &model, &cfg, &dir)
            .expect("serial reference campaign");
        std::fs::remove_dir_all(&dir).ok();
        serde_json::to_string(&result).expect("serialize reference")
    })
}

/// Parse a result artifact and re-serialize it compactly so byte
/// comparison ignores the pretty-printing of the file format.
fn read_result(path: &Path) -> String {
    let body = std::fs::read_to_string(path).expect("result artifact");
    let parsed: CampaignResult = serde_json::from_str(&body).expect("parse result artifact");
    serde_json::to_string(&parsed).expect("re-serialize result")
}

#[test]
fn two_worker_campaign_with_chaos_kill_matches_serial() {
    let dir = scratch_dir("chaos");
    let out = dir.join("fabric.json");
    // Throttle each run so leases take long enough (~8 runs × 25 ms)
    // that the 200 ms chaos tick reliably catches worker 0 mid-lease.
    let output = Command::new(tei_bin())
        .args([
            "campaign",
            "--benchmark",
            "sobel",
            "--runs",
            "64",
            "--seed",
            "1",
            "--workers",
            "2",
            "--throttle-ms",
            "25",
            "--chaos-kill-worker",
            "0:1",
            "--journal-dir",
        ])
        .arg(dir.join("journal"))
        .arg("--out")
        .arg(&out)
        .output()
        .expect("run tei campaign");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "tei campaign failed:\n{stderr}");
    assert!(
        stderr.contains("chaos: killed worker 0"),
        "chaos hook did not fire:\n{stderr}"
    );
    assert!(
        stderr.contains("worker 0 died"),
        "worker death went undetected:\n{stderr}"
    );
    assert_eq!(
        read_result(&out),
        reference_json(),
        "kill-and-reassign changed the merged result"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[cfg(unix)]
#[test]
fn sigstopped_worker_is_detected_by_heartbeat_not_lease_expiry() {
    let dir = scratch_dir("sigstop");
    let out = dir.join("fabric.json");
    let start = std::time::Instant::now();
    // SIGSTOP (unlike SIGKILL) keeps the socket open, so EOF never
    // arrives; with the lease timeout cranked to 600 s only heartbeat
    // loss can recover the frozen worker's leases within the deadline.
    let output = Command::new(tei_bin())
        .args([
            "campaign",
            "--benchmark",
            "sobel",
            "--runs",
            "64",
            "--seed",
            "1",
            "--workers",
            "2",
            "--throttle-ms",
            "25",
            "--chaos-stop-worker",
            "0:1",
            "--lease-timeout-s",
            "600",
            "--heartbeat-timeout-s",
            "2",
            "--tick-ms",
            "100",
            "--journal-dir",
        ])
        .arg(dir.join("journal"))
        .arg("--out")
        .arg(&out)
        .output()
        .expect("run tei campaign");
    let elapsed = start.elapsed();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "tei campaign failed:\n{stderr}");
    assert!(
        stderr.contains("chaos: stopped worker 0"),
        "chaos stop hook did not fire:\n{stderr}"
    );
    assert!(
        stderr.contains("heartbeat lost"),
        "frozen worker went undetected by heartbeats:\n{stderr}"
    );
    assert!(
        elapsed < std::time::Duration::from_secs(120),
        "recovery took {elapsed:?}; heartbeat detection should beat the 600 s lease timeout"
    );
    assert_eq!(
        read_result(&out),
        reference_json(),
        "freeze-and-reassign changed the merged result"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_submit_round_trip_matches_serial() {
    let dir = scratch_dir("serve");
    let mut serve = Command::new(tei_bin())
        .args(["serve", "--listen", "127.0.0.1:0", "--workers", "2"])
        .arg("--journal-dir")
        .arg(dir.join("journal"))
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn tei serve");
    let stderr = serve.stderr.take().expect("serve stderr");
    let mut lines = std::io::BufReader::new(stderr).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("serve exited before announcing its address")
            .expect("read serve stderr");
        if let Some(rest) = line.strip_prefix("[fabric] serving on ") {
            break rest
                .split_whitespace()
                .next()
                .expect("address on the serving line")
                .to_string();
        }
    };
    // Keep draining stderr so the server never blocks on a full pipe.
    let drain = std::thread::spawn(move || for _ in lines {});

    let submit = |out: &Path| {
        Command::new(tei_bin())
            .args([
                "submit",
                "--connect",
                &addr,
                "--benchmark",
                "sobel",
                "--runs",
                "64",
                "--seed",
                "1",
                "--out",
            ])
            .arg(out)
            .output()
            .expect("run tei submit")
    };

    let first_out = dir.join("first.json");
    let first = submit(&first_out);
    let first_err = String::from_utf8_lossy(&first.stderr);
    assert!(first.status.success(), "tei submit failed:\n{first_err}");
    assert!(
        first_err.contains("accepted as campaign"),
        "no acceptance streamed:\n{first_err}"
    );
    assert_eq!(
        read_result(&first_out),
        reference_json(),
        "served campaign diverged from the serial reference"
    );

    // Same spec again: every run is journaled, so the server must answer
    // from the merge without re-executing anything.
    let again_out = dir.join("again.json");
    let again = submit(&again_out);
    assert!(
        again.status.success(),
        "re-submit failed:\n{}",
        String::from_utf8_lossy(&again.stderr)
    );
    assert_eq!(
        read_result(&again_out),
        reference_json(),
        "replayed submission diverged"
    );

    serve.kill().ok();
    serve.wait().ok();
    drain.join().ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn in_process_campaign_matches_serial() {
    let dir = scratch_dir("inproc");
    let out = dir.join("campaign.json");
    let output = Command::new(tei_bin())
        .args([
            "campaign",
            "--benchmark",
            "sobel",
            "--runs",
            "64",
            "--seed",
            "1",
            "--journal-dir",
        ])
        .arg(dir.join("journal"))
        .arg("--out")
        .arg(&out)
        .output()
        .expect("run tei campaign");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "tei campaign failed:\n{stderr}");
    assert_eq!(
        read_result(&out),
        reference_json(),
        "in-process campaign diverged from the serial reference"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Bad command lines exit 2 (usage) or 1 (a typed failure) without
/// journaling or writing anything into the working directory.
#[test]
fn bad_command_lines_fail_before_any_work() {
    let rows: [(i32, &[&str]); 15] = [
        (2, &["campaign", "--benchmark", "sobel", "--bogus"]),
        (2, &["campaign", "--runs", "64"]),
        (2, &["campaign", "--benchmark", "sobel", "--runs", "many"]),
        (
            2,
            &[
                "campaign",
                "--benchmark",
                "sobel",
                "--workers",
                "2",
                "--seed",
                "x",
            ],
        ),
        (2, &["campaign", "--benchmark", "sobel", "--tick-ms", "100"]),
        (2, &["sweep", "--benchmark", "cg", "--bogus"]),
        (2, &["sweep", "--grid", "4"]),
        (2, &["sweep", "--benchmark", "cg", "--grid", "four"]),
        (2, &["figures", "--bogus"]),
        (2, &["figures"]),
        (2, &["figures", "fig99"]),
        (2, &["models", "develop", "--bogus"]),
        (2, &["models", "develop"]),
        (2, &["models", "explode", "x"]),
        (1, &["models", "show", "missing.json"]),
    ];
    let dir = scratch_dir("usage");
    for (code, args) in rows {
        let output = Command::new(tei_bin())
            .current_dir(&dir)
            .env_remove("TEI_JOURNAL_DIR")
            .args(args)
            .output()
            .expect("run tei");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(
            output.status.code(),
            Some(code),
            "tei {args:?} exited {}:\n{stderr}",
            output.status
        );
        let expected = if code == 2 {
            format!("usage: tei {}", args[0])
        } else {
            "read model file".to_string()
        };
        assert!(
            stderr.contains(&expected),
            "tei {args:?} did not report {expected:?}:\n{stderr}"
        );
        let left: Vec<_> = std::fs::read_dir(&dir).expect("scratch dir").collect();
        assert!(left.is_empty(), "tei {args:?} wrote {left:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
