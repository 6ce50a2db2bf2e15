//! The durable-campaign subcommands: `tei campaign` (in process, or
//! over a locally spawned worker fleet with `--workers`), the resident
//! coordinator (`tei serve`), the submission client (`tei submit`), and
//! the worker process body the coordinator spawns (`tei fabric-worker`).

use crate::cli::{declared, Flags};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;
use tei_core::config::{default_journal_dir, default_lease_timeout, default_runs, default_threads};
use tei_core::fabric::{wire, ChaosKill, Message};
use tei_core::{campaign, CampaignResult, CampaignSpec, FabricConfig, FabricEvent, TeiError};

/// The campaign-spec flags `tei campaign` and `tei submit` share, all
/// applied by [`Flags::spec`].
macro_rules! spec_flags {
    () => {
        "  --benchmark <name>       benchmark (required; e.g. is, sobel, k-means)
  --model fixed[:<er>]     fixed-ratio DA model (default fixed:1e-2)
  --vr vr15|vr20           voltage-reduction corner (default vr20)
  --scale test|small|full  benchmark problem size (default test)
  --seed <n>               base RNG seed (default 1)
  --timeout-factor <x>     timeout as a multiple of golden instructions (default 2)
  --throttle-ms <n>        per-run sleep, for kill tests (default 0)
  --out <file>             result JSON (default results/campaign-<bench>.json)
"
    };
}

/// The fleet flags `tei campaign --workers` and `tei serve` share, all
/// applied by [`fleet_config`].
macro_rules! fleet_flags {
    () => {
        "  --leases-per-worker <n>  lease granularity when partitioning (default 4)
  --lease-timeout-s <n>    hung-worker lease expiry backstop
                           (default TEI_LEASE_TIMEOUT or 600)
  --tick-ms <n>            scheduler timer period (default TEI_FABRIC_TICK or 200)
  --heartbeat-timeout-s <n>  silent-worker dead-peer detection (default 5)
  --chaos-kill-worker <w>:<n>  test hook: SIGKILL worker w after n leases
  --chaos-stop-worker <w>:<n>  test hook: SIGSTOP worker w after n leases"
    };
}

const CAMPAIGN_USAGE: &str = concat!(
    "usage: tei campaign --benchmark <name> [--workers <n>] [options]

One injection campaign whose every run is journaled before it counts:
re-running the same command resumes it. Without --workers it runs in
this process; with it, lease-partitioned over that many worker
processes. The result is byte-identical either way.

campaign options:
",
    spec_flags!(),
    "  --runs <n>               injection runs (default TEI_RUNS or 120)
  --threads <n>            threads per campaign process (default TEI_THREADS
                           or all cores in process, 1 per fabric worker)
  --journal-dir <dir>      journal directory (default TEI_JOURNAL_DIR or journal/)

fleet options (need --workers):
  --workers <n>            worker processes
",
    fleet_flags!()
);

const SERVE_USAGE: &str = concat!(
    "usage: tei serve [options]

Resident coordinator: queued campaigns (tei submit) share one fleet.

serve options:
  --listen <addr>          address to serve on (default 127.0.0.1:2017)
  --workers <n>            worker processes (default 2)
  --journal-dir <dir>      journal directory (default TEI_JOURNAL_DIR or journal/)
",
    fleet_flags!()
);

const SUBMIT_USAGE: &str = concat!(
    "usage: tei submit --connect <addr> --benchmark <name> [options]

submit options:
  --connect <addr>         address of a running tei serve (required)
",
    spec_flags!(),
    "  --runs <n>               injection runs (default 120)
  --threads <n>            threads inside each worker process (default 1)
  --lease-timeout-s <n>    give up after this plus 60 s without a frame
                           (default TEI_LEASE_TIMEOUT or 600)"
);

const WORKER_USAGE: &str = "usage: tei fabric-worker [options]   (spawned by the coordinator)
  --connect <addr>         coordinator address
  --token <t>              fleet token
  --index <i>              worker index
  --journal-dir <dir>      journal directory";

/// Default `tei serve` address (0x7e1, like the default campaign seed).
const DEFAULT_LISTEN: &str = "127.0.0.1:2017";

fn parse_chaos(value: &str) -> Option<ChaosKill> {
    let (w, n) = value.split_once(':')?;
    Some(ChaosKill {
        worker: w.parse().ok()?,
        after_leases: n.parse().ok()?,
    })
}

/// The worker command the coordinator spawns: this very binary, in its
/// `fabric-worker` role, so fleet and coordinator are one build by
/// construction (the manifest-hash cross-check still verifies it).
pub(crate) fn self_worker_cmd() -> Result<Vec<String>, TeiError> {
    let exe = std::env::current_exe().map_err(|e| TeiError::Fabric {
        detail: format!("resolve the tei binary path: {e}"),
    })?;
    Ok(vec![
        exe.to_string_lossy().into_owned(),
        "fabric-worker".to_string(),
    ])
}

fn fleet_config(f: &Flags, workers: usize, journal_dir: PathBuf) -> Result<FabricConfig, TeiError> {
    let mut cfg = FabricConfig::new(self_worker_cmd()?, journal_dir);
    cfg.workers = workers;
    f.set("--leases-per-worker", &mut cfg.leases_per_worker);
    if let Some(s) = f.get("--lease-timeout-s") {
        cfg.lease_timeout = Duration::from_secs(s);
    }
    if let Some(ms) = f.get("--tick-ms") {
        cfg.tick = Duration::from_millis(ms);
    }
    if let Some(s) = f.get("--heartbeat-timeout-s") {
        cfg.heartbeat_timeout = Duration::from_secs(s);
    }
    cfg.chaos_kill_worker = f.get_with("--chaos-kill-worker", parse_chaos);
    cfg.chaos_stop_worker = f.get_with("--chaos-stop-worker", parse_chaos);
    Ok(cfg)
}

/// Narrate coordinator events on stderr (stdout carries the result).
pub(crate) fn print_event(ev: &FabricEvent) {
    match ev {
        FabricEvent::WorkerSpawned { worker } => eprintln!("[fabric] worker {worker} spawned"),
        FabricEvent::WorkerConnected { worker } => eprintln!("[fabric] worker {worker} connected"),
        FabricEvent::WorkerDied { worker, reassigned } => {
            eprintln!("[fabric] worker {worker} died; {reassigned} lease(s) back to pending")
        }
        FabricEvent::LeaseGranted {
            campaign,
            worker,
            lo,
            hi,
        } => eprintln!("[fabric] campaign {campaign}: runs [{lo}, {hi}) -> worker {worker}"),
        FabricEvent::Progress {
            campaign,
            completed,
            total,
        } => eprintln!("[fabric] campaign {campaign}: {completed}/{total} runs durable"),
        FabricEvent::Queued {
            campaign,
            benchmark,
        } => eprintln!("[fabric] campaign {campaign} queued ({benchmark})"),
        FabricEvent::Finished { campaign } => eprintln!("[fabric] campaign {campaign} finished"),
        FabricEvent::ChaosKilled { worker } => eprintln!("[fabric] chaos: killed worker {worker}"),
        FabricEvent::ChaosStopped { worker } => {
            eprintln!("[fabric] chaos: stopped worker {worker} (SIGSTOP)")
        }
        FabricEvent::HeartbeatLost { worker, silent_for } => eprintln!(
            "[fabric] worker {worker} heartbeat lost after {:.1}s",
            silent_for.as_secs_f64()
        ),
    }
}

/// Print a campaign result on stdout, in one shape for both campaign
/// paths and `tei submit`, so diffs between them are trivial.
fn print_result(result: &CampaignResult) {
    let f = result.fractions();
    println!(
        "{}: Masked {:.1}% SDC {:.1}% Crash {:.1}% Timeout {:.1}%  AVM {:.3} ({} quarantined)",
        result.benchmark,
        100.0 * f[0],
        100.0 * f[1],
        100.0 * f[2],
        100.0 * f[3],
        result.avm(),
        result.counts.quarantined,
    );
}

fn write_result(result: &CampaignResult, out: Option<PathBuf>) -> Result<(), TeiError> {
    let out =
        out.unwrap_or_else(|| PathBuf::from(format!("results/campaign-{}.json", result.benchmark)));
    let body = serde_json::to_string_pretty(result).unwrap_or_default();
    tei_bench::write_artifact(&out, (body + "\n").as_bytes())?;
    eprintln!("wrote {}", out.display());
    Ok(())
}

/// `tei campaign`: one durable campaign, in process or over a fleet.
pub(crate) fn campaign(args: &[String]) -> Result<(), TeiError> {
    let f = Flags::parse("campaign", CAMPAIGN_USAGE, args, false);
    let workers: Option<usize> = f.get("--workers");
    if workers.is_none() {
        if let Some((flag, _)) = declared(fleet_flags!()).find(|(flag, _)| f.has(flag)) {
            f.fail(format!("{flag} needs --workers"));
        }
    }
    let (spec, _) = f.spec(CampaignSpec {
        runs: default_runs() as u64,
        threads_per_worker: if workers.is_some() {
            1
        } else {
            default_threads() as u64
        },
        ..CampaignSpec::new("")
    });
    let journal_dir = f.get("--journal-dir").unwrap_or_else(default_journal_dir);
    eprintln!(
        "[campaign] {} × {} × {} ({} runs, {} process(es) × {} thread(s), journal {})",
        spec.benchmark,
        spec.model,
        spec.vr,
        spec.runs,
        workers.unwrap_or(1),
        spec.threads_per_worker,
        journal_dir.display()
    );
    let result = match workers {
        Some(workers) => {
            let cfg = fleet_config(&f, workers, journal_dir)?;
            tei_core::run_fabric_campaign(&spec, &cfg, &mut print_event)?
        }
        None => {
            let ctx = spec.resolve()?;
            campaign::run_campaign_durable(
                &spec.benchmark,
                &ctx.golden,
                &ctx.model,
                &ctx.cfg,
                &journal_dir,
            )?
        }
    };
    print_result(&result);
    write_result(&result, f.get("--out"))
}

/// `tei serve`: resident coordinator + worker fleet; returns on signal.
pub(crate) fn serve(args: &[String]) -> Result<(), TeiError> {
    let f = Flags::parse("serve", SERVE_USAGE, args, false);
    let journal_dir = f.get("--journal-dir").unwrap_or_else(default_journal_dir);
    let cfg = fleet_config(&f, f.get("--workers").unwrap_or(2), journal_dir)?;
    let listen = f
        .get("--listen")
        .unwrap_or_else(|| DEFAULT_LISTEN.to_string());
    tei_core::serve(&listen, &cfg, &mut print_event)
}

/// `tei submit`: queue a campaign on a running server, stream progress,
/// and print + persist the merged result.
pub(crate) fn submit(args: &[String]) -> Result<(), TeiError> {
    let f = Flags::parse("submit", SUBMIT_USAGE, args, false);
    let addr: String = f.require("--connect");
    let (spec, _) = f.spec(CampaignSpec::new(""));
    let out: Option<PathBuf> = f.get("--out");
    let stream = TcpStream::connect(&addr).map_err(|e| TeiError::Fabric {
        detail: format!("connect to server {addr}: {e}"),
    })?;
    stream.set_nodelay(true).ok();
    // Bounded reads: a dead server is detected instead of blocking the
    // client forever. The idle cap is one lease timeout plus margin —
    // the server reports progress at least once per lease.
    let _ = wire::set_timeouts(
        &stream,
        Some(Duration::from_millis(500)),
        Some(Duration::from_secs(10)),
    );
    let lease_timeout = f
        .get("--lease-timeout-s")
        .map_or_else(default_lease_timeout, Duration::from_secs);
    let idle_cap = lease_timeout + Duration::from_secs(60);
    let reader_half = stream.try_clone().map_err(|e| TeiError::Fabric {
        detail: format!("clone stream to {addr}: {e}"),
    })?;
    let mut writer = stream;
    let peer = format!("server {addr}");
    wire::send(&mut writer, &peer, &Message::Submit { spec })?;
    let mut reader = wire::FrameReader::new(reader_half);
    let mut last_frame = std::time::Instant::now();
    loop {
        let step = reader.step().map_err(|e| TeiError::Fabric {
            detail: format!("receive from {peer}: {e}"),
        })?;
        let msg = match step {
            wire::FrameStep::Frame(payload) => {
                last_frame = std::time::Instant::now();
                Some(wire::decode(&payload, &peer)?)
            }
            wire::FrameStep::Idle => {
                if last_frame.elapsed() > idle_cap {
                    return Err(TeiError::Fabric {
                        detail: format!(
                            "{peer} sent nothing for {:.0}s; giving up",
                            idle_cap.as_secs_f64()
                        ),
                    });
                }
                continue;
            }
            wire::FrameStep::Eof => None,
        };
        match msg {
            None => {
                return Err(TeiError::Fabric {
                    detail: format!("{peer} closed the connection before the result"),
                })
            }
            Some(Message::Accepted { campaign }) => {
                eprintln!("[submit] accepted as campaign {campaign}");
            }
            Some(Message::Refused { detail }) => {
                return Err(TeiError::Fabric {
                    detail: format!("{peer} refused the campaign: {detail}"),
                })
            }
            Some(Message::Progress {
                completed, total, ..
            }) => eprintln!("[submit] {completed}/{total} runs durable"),
            Some(Message::Finished { result, .. }) => {
                match serde_json::from_str::<CampaignResult>(&result) {
                    Ok(parsed) => {
                        print_result(&parsed);
                        write_result(&parsed, out)?;
                    }
                    // Schema drift between client and server build:
                    // still deliver the payload.
                    Err(_) => println!("{result}"),
                }
                return Ok(());
            }
            Some(other) => eprintln!("[submit] ignoring unexpected message: {other:?}"),
        }
    }
}

/// `tei fabric-worker`: the process body the coordinator spawns.
pub(crate) fn worker(args: &[String]) -> Result<(), TeiError> {
    let f = Flags::parse("fabric-worker", WORKER_USAGE, args, false);
    let connect: String = f.require("--connect");
    let token: u64 = f.require("--token");
    let index: u32 = f.require("--index");
    let journal_dir: PathBuf = f.require("--journal-dir");
    tei_core::config::validate_env()?;
    tei_core::shutdown::install_handlers();
    tei_core::fabric::worker_main(&connect, token, index, &journal_dir)
}
