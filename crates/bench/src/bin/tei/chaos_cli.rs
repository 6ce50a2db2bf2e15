//! `tei chaos`: the seeded failpoint-schedule matrix.
//!
//! For each seed, derive a deterministic failure schedule from the
//! failpoint catalog ([`tei_core::failpoint::seeded_schedule`]), run the
//! multi-process fabric campaign under it, and hold the run to the
//! durability contract:
//!
//! * the campaign **completes** and its merged result is byte-identical
//!   to the clean (fault-free) reference run, **or**
//! * it **fails with a typed [`TeiError`]** leaving resumable journals —
//!   verified by disarming the schedule and re-running the same journal
//!   directory, which must then complete byte-identical to the
//!   reference.
//!
//! Anything else — a divergent result, a failed resume, a hang (CI
//! wraps the matrix in `timeout`) — is a real durability bug. Failing
//! seeds leave their journal directory in place and drop a repro file
//! under `results/` so the exact schedule can be replayed by hand.
//!
//! Requires a `--features failpoints` build; the unfeatured binary
//! refuses loudly rather than silently running a fault-free matrix.

use crate::cli::Flags;
use crate::fabric_cli;
use std::path::{Path, PathBuf};
use std::time::Duration;
use tei_core::{failpoint, CampaignResult, CampaignSpec, FabricConfig, TeiError};

/// Chaos fleets run with deliberately aggressive failure-detection
/// clocks so every seed converges in seconds, not minutes.
const CHAOS_LEASE_TIMEOUT: Duration = Duration::from_secs(5);
const CHAOS_TICK: Duration = Duration::from_millis(100);
const CHAOS_HEARTBEAT_TIMEOUT: Duration = Duration::from_secs(3);

const CHAOS_USAGE: &str =
    "usage: tei chaos --benchmark <name> [options]   (needs --features failpoints)

Runs the campaign clean, then once per seed under that seed's failpoint
schedule; every seed must end identical to the clean run, or in a typed
failure whose resume then matches.

chaos options:
  --benchmark <name>       benchmark (required; e.g. is, sobel, k-means)
  --model fixed[:<er>]     fixed-ratio DA model (default fixed:1e-2)
  --vr vr15|vr20           voltage-reduction corner (default vr20)
  --scale test|small|full  benchmark problem size (default test)
  --runs <n>               injection runs (default 48)
  --seed <n>               base RNG seed (default 1)
  --timeout-factor <x>     timeout as a multiple of golden instructions (default 2)
  --workers <n>            worker processes (default 2)
  --seeds <a,b,..>         schedule seeds to run (default 1,2,3)
  --journal-dir <dir>      journal base directory (default journal-chaos/)
  --out <dir>              report and repro directory (default results/)
  --keep-going             run every seed even after a failure";

struct ChaosArgs {
    spec: CampaignSpec,
    workers: usize,
    seeds: Vec<u64>,
    journal_base: PathBuf,
    results_dir: PathBuf,
    keep_going: bool,
}

fn parse_args(args: &[String]) -> ChaosArgs {
    let f = Flags::parse("chaos", CHAOS_USAGE, args, false);
    // Chaos runs want deterministic hit ordering inside each worker.
    let (spec, _) = f.spec(CampaignSpec {
        runs: 48,
        threads_per_worker: 1,
        ..CampaignSpec::new("")
    });
    let seeds = f
        .get_with("--seeds", |v| {
            v.split(',')
                .filter(|s| !s.trim().is_empty())
                .map(|s| s.trim().parse().ok())
                .collect::<Option<Vec<u64>>>()
        })
        .unwrap_or_else(|| vec![1, 2, 3]);
    if seeds.is_empty() {
        f.fail("--seeds named no seeds");
    }
    ChaosArgs {
        spec,
        workers: f.get("--workers").unwrap_or(2),
        seeds,
        journal_base: f
            .get("--journal-dir")
            .unwrap_or_else(|| PathBuf::from("journal-chaos")),
        results_dir: f.get("--out").unwrap_or_else(|| PathBuf::from("results")),
        keep_going: f.has("--keep-going"),
    }
}

fn fleet(journal_dir: PathBuf, workers: usize) -> Result<FabricConfig, TeiError> {
    let mut cfg = FabricConfig::new(fabric_cli::self_worker_cmd()?, journal_dir);
    cfg.workers = workers;
    cfg.lease_timeout = CHAOS_LEASE_TIMEOUT;
    cfg.tick = CHAOS_TICK;
    cfg.heartbeat_timeout = CHAOS_HEARTBEAT_TIMEOUT;
    Ok(cfg)
}

/// One fabric campaign over `journal_dir`. Whatever `TEI_FAILPOINTS`
/// holds at call time is armed in-process (coordinator role) and
/// inherited by the spawned workers.
fn run_once(
    spec: &CampaignSpec,
    journal_dir: &Path,
    workers: usize,
) -> Result<CampaignResult, TeiError> {
    let cfg = fleet(journal_dir.to_path_buf(), workers)?;
    tei_core::run_fabric_campaign(spec, &cfg, &mut fabric_cli::print_event)
}

/// The byte-identity fingerprint: the full serialized result (outcome
/// counts, AVM inputs, quarantine list) — every field is deterministic.
fn canonical(result: &CampaignResult) -> String {
    serde_json::to_string(result).unwrap_or_default()
}

#[derive(serde::Serialize)]
struct SeedReport {
    seed: u64,
    schedule: String,
    status: String,
    detail: String,
}

/// `tei chaos`: run the seeded schedule matrix; nonzero on any
/// contract violation.
pub(crate) fn chaos(args: &[String]) -> Result<(), TeiError> {
    let ca = parse_args(args);
    if !failpoint::enabled() {
        return Err(TeiError::Config {
            knob: "tei chaos".to_string(),
            reason: "this build has no failpoint support; \
                     rebuild with --features failpoints"
                .to_string(),
        });
    }
    // A leaked schedule from the environment must not contaminate the
    // clean reference run (each seed sets its own below).
    std::env::remove_var("TEI_FAILPOINTS");
    failpoint::reset();

    eprintln!(
        "[chaos] clean reference: {} × {} × {} ({} runs, {} workers)",
        ca.spec.benchmark, ca.spec.model, ca.spec.vr, ca.spec.runs, ca.workers
    );
    let clean_dir = ca.journal_base.join("clean");
    let _ = std::fs::remove_dir_all(&clean_dir);
    let reference = run_once(&ca.spec, &clean_dir, ca.workers)?;
    let ref_json = canonical(&reference);
    let _ = std::fs::remove_dir_all(&clean_dir);

    let mut reports: Vec<SeedReport> = Vec::new();
    let mut failures = 0usize;
    for &seed in &ca.seeds {
        let schedule = failpoint::seeded_schedule(seed, ca.spec.runs);
        eprintln!("[chaos] seed {seed}: {schedule}");
        let dir = ca.journal_base.join(format!("s{seed}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::env::set_var("TEI_FAILPOINTS", &schedule);
        let first = run_once(&ca.spec, &dir, ca.workers);
        std::env::remove_var("TEI_FAILPOINTS");
        failpoint::reset();
        let (status, detail) = match first {
            Ok(result) => {
                if canonical(&result) == ref_json {
                    ("identical".to_string(), String::new())
                } else {
                    (
                        "diverged".to_string(),
                        "campaign completed but its result differs from the clean run".to_string(),
                    )
                }
            }
            Err(e) => {
                eprintln!("[chaos] seed {seed}: typed failure ({e}); disarming and resuming");
                match run_once(&ca.spec, &dir, ca.workers) {
                    Ok(result) if canonical(&result) == ref_json => {
                        ("resumed-identical".to_string(), e.to_string())
                    }
                    Ok(_) => (
                        "resume-diverged".to_string(),
                        format!("after {e}, the resumed result differs from the clean run"),
                    ),
                    Err(e2) => (
                        "resume-failed".to_string(),
                        format!("after {e}, resume failed: {e2}"),
                    ),
                }
            }
        };
        let passed = matches!(status.as_str(), "identical" | "resumed-identical");
        eprintln!("[chaos] seed {seed}: {status}");
        if passed {
            let _ = std::fs::remove_dir_all(&dir);
        } else {
            failures += 1;
            quarantine(&ca, seed, &schedule, &status, &detail, &dir);
        }
        reports.push(SeedReport {
            seed,
            schedule,
            status,
            detail,
        });
        if !passed && !ca.keep_going {
            break;
        }
    }

    let report_path = ca.results_dir.join("chaos-report.json");
    let body = serde_json::to_string_pretty(&reports).unwrap_or_default();
    tei_bench::write_artifact(&report_path, (body + "\n").as_bytes())?;
    eprintln!("wrote {}", report_path.display());
    if failures > 0 {
        return Err(TeiError::Fabric {
            detail: format!(
                "{failures} chaos seed(s) violated the durability contract; \
                 see {} and the quarantined journal dirs",
                report_path.display()
            ),
        });
    }
    let _ = std::fs::remove_dir_all(&ca.journal_base);
    println!(
        "chaos: {} seed(s) upheld the durability contract ({} runs each)",
        ca.seeds.len(),
        ca.spec.runs
    );
    Ok(())
}

/// A failing seed keeps its journals and gets a repro recipe.
fn quarantine(ca: &ChaosArgs, seed: u64, schedule: &str, status: &str, detail: &str, dir: &Path) {
    let repro = format!(
        "tei chaos seed {seed} failed: {status}\n\
         {detail}\n\n\
         schedule: {schedule}\n\
         journals: {}\n\n\
         replay by hand:\n\
         TEI_FAILPOINTS='{schedule}' tei campaign --benchmark {} --runs {} \\\n\
         \x20  --workers {} --journal-dir {} --lease-timeout-s 5 --tick-ms 100 \\\n\
         \x20  --heartbeat-timeout-s 3\n",
        dir.display(),
        ca.spec.benchmark,
        ca.spec.runs,
        ca.workers,
        dir.display(),
    );
    let path = ca.results_dir.join(format!("chaos-s{seed}-repro.txt"));
    if std::fs::create_dir_all(&ca.results_dir).is_ok() {
        if let Err(e) = std::fs::write(&path, repro) {
            eprintln!("[chaos] could not write {}: {e}", path.display());
        } else {
            eprintln!("[chaos] repro recipe: {}", path.display());
        }
    }
}
