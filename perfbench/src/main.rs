//! End-to-end performance ledger of the tei toolflow.
//!
//! `tei-perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//! sets up several times, then repeats the workload's pipeline in one
//! closed loop (one client, each call after the previous one returns)
//! for `--seconds`, checks every repetition's simulated results, and
//! prints one JSON object as the last line of standard output: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics from spans
//! with `--trace 1`. `METRICS.md` defines every metric. A full ledger
//! (host facts, set-ups, repetitions, spans) is written under
//! `.bench_work/` at the checkout root.
//!
//! `tei-perfbench fabric-worker ...` is the fabric worker process body,
//! the same calls `tei fabric-worker` makes.

mod host;
mod metrics;
mod trace;
mod workloads;

use metrics::{Metrics, Run, RunRep};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use tei_core::TeiError;
use trace::Tracer;
use workloads::{Ctx, Seeds, Sizes, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Reference digests: workload → sizes key → seed → digest (hex).
type Refs = BTreeMap<String, BTreeMap<String, BTreeMap<String, String>>>;

fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn refs_path() -> PathBuf {
    bench_dir().join("references.json")
}

/// Scratch root for journals and ledgers: `.bench_work/` at the checkout
/// root, on the same filesystem as the checkout (journal fsync cost is
/// part of what is measured, so it must not land on tmpfs).
fn work_root() -> PathBuf {
    bench_dir()
        .parent()
        .unwrap_or(bench_dir())
        .join(".bench_work")
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    record: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: tei-perfbench --workload <paper-eval|model-dev|durable-cell|fabric-cell|all> \
         --seed <n> --seconds <s> --trace <0|1> [--smoke] [--record-reference]"
    );
    std::process::exit(2);
}

fn parse_args(args: &[String]) -> Args {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        record: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => a.workload = val(),
            "--seed" => a.seed = val().parse().unwrap_or_else(|_| usage()),
            "--seconds" => a.seconds = val().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                a.trace = match val().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--smoke" => a.smoke = true,
            "--record-reference" => a.record = true,
            _ => usage(),
        }
    }
    if a.workload.is_empty() || !a.seconds.is_finite() || a.seconds <= 0.0 {
        usage();
    }
    a
}

fn fabric_worker(args: &[String]) -> Result<(), TeiError> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in args.chunks(2) {
        if let [k, v] = pair {
            flags.insert(k.as_str(), v.as_str());
        }
    }
    let bad = |what: &str| TeiError::Config {
        knob: "fabric-worker".to_string(),
        reason: format!("missing or malformed {what}"),
    };
    let connect = flags.get("--connect").ok_or_else(|| bad("--connect"))?;
    let token = flags
        .get("--token")
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| bad("--token"))?;
    let index = flags
        .get("--index")
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| bad("--index"))?;
    let dir = flags
        .get("--journal-dir")
        .ok_or_else(|| bad("--journal-dir"))?;
    tei_core::config::validate_env()?;
    tei_core::shutdown::install_handlers();
    tei_core::fabric::worker_main(connect, token, index, Path::new(dir))
}

fn load_refs() -> Result<Refs, String> {
    match std::fs::read_to_string(refs_path()) {
        Ok(s) => serde_json::from_str(&s).map_err(|e| format!("references.json: {e:?}")),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Refs::new()),
        Err(e) => Err(format!("references.json: {e}")),
    }
}

/// One workload run: set up `SETUPS` times, then repeat the pipeline for
/// `seconds` (alternating untraced and traced repetitions with tracing).
fn run_workload(w: Workload, a: &Args, sizes: Sizes, scrubbed: &[String]) -> Result<Run, TeiError> {
    let setups_n = if a.record { 1 } else { SETUPS };
    let mut setup_times = Vec::new();
    let mut setup = None;
    for _ in 0..setups_n {
        drop(setup.take());
        let (s, t) = workloads::setup(w, &sizes)?;
        setup = Some(s);
        setup_times.push(t);
    }
    let setup = setup.expect("at least one set-up");
    let work = work_root().join(format!("{}-{}", w.name(), std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| TeiError::io("create work directory", &work, e))?;
    let facts = host::facts(&setup.bank, &work, scrubbed)?;
    let exe = std::env::current_exe()
        .map_err(|e| TeiError::io("resolve executable", Path::new("."), e))?;
    let ctx = Ctx {
        setup: &setup,
        sizes,
        seeds: Seeds::new(w, a.seed),
        work: work.clone(),
        worker_cmd: vec![
            exe.to_string_lossy().into_owned(),
            "fabric-worker".to_string(),
        ],
    };
    let result = measure(w, a, &ctx);
    // Journals are removed with the work directory, also after a failure.
    let _ = std::fs::remove_dir_all(&work);
    let (reps, tracer) = result?;
    Ok(Run {
        workload: w,
        seed: a.seed,
        traced: a.trace,
        sizes,
        facts,
        setups: setup_times,
        reps,
        spans: tracer.spans().to_vec(),
    })
}

fn measure(w: Workload, a: &Args, ctx: &Ctx) -> Result<(Vec<RunRep>, Tracer), TeiError> {
    let start = Instant::now();
    let mut tr = Tracer::new(start);
    let mut reps: Vec<RunRep> = Vec::new();
    // Untraced repetitions give the end-to-end numbers; with tracing on,
    // traced and untraced repetitions alternate so both see the same
    // host conditions and their difference is the tracing overhead.
    let min_reps = if a.record {
        1
    } else if a.trace {
        2
    } else {
        3
    };
    let mut slowest = 0.0f64;
    for idx in 1u32.. {
        let traced = a.trace && idx.is_multiple_of(2);
        let dir = ctx.work.join(format!("rep{idx}"));
        std::fs::create_dir_all(&dir)
            .map_err(|e| TeiError::io("create journal directory", &dir, e))?;
        let cycle = Instant::now();
        tr.arm(traced, idx);
        host::reset_peak_rss();
        let t = Instant::now();
        let mut out = tr.span("harness", "rep", |tr| workloads::run_rep(w, ctx, tr, &dir))?;
        let wall = t.elapsed().as_secs_f64();
        let rss_mb = host::peak_rss_mb();
        tr.span("harness", "gate", |tr| {
            workloads::gate(w, ctx, tr, &mut out, &dir, idx == 1)
        })?;
        tr.arm(false, idx);
        std::fs::remove_dir_all(&dir)
            .map_err(|e| TeiError::io("remove journal directory", &dir, e))?;
        slowest = slowest.max(cycle.elapsed().as_secs_f64());
        reps.push(RunRep {
            idx,
            traced,
            wall,
            rss_mb,
            out,
        });
        let done = reps.len() >= min_reps
            && (!a.trace || reps.len().is_multiple_of(2))
            && start.elapsed().as_secs_f64() + slowest * if a.trace { 2.0 } else { 1.0 }
                > a.seconds;
        if done {
            break;
        }
    }
    Ok((reps, tr))
}

fn write_ledger(run: &Run, m: &Metrics) {
    let path = work_root().join(format!(
        "ledger-{}-seed{}-trace{}.json",
        run.workload.name(),
        run.seed,
        u8::from(run.traced)
    ));
    let body = serde_json::to_string_pretty(&run.ledger(m)).unwrap_or_default();
    if let Err(e) = std::fs::write(&path, body) {
        eprintln!("tei-perfbench: could not write {}: {e}", path.display());
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let scrubbed = host::scrub_env();
    if argv.first().map(String::as_str) == Some("fabric-worker") {
        if let Err(e) = fabric_worker(&argv[1..]) {
            eprintln!("tei-perfbench fabric-worker: {e}");
            std::process::exit(1);
        }
        return;
    }
    let a = parse_args(&argv);
    let workloads: Vec<Workload> = if a.workload == "all" {
        Workload::ALL.to_vec()
    } else {
        vec![Workload::parse(&a.workload).unwrap_or_else(|| usage())]
    };
    let sizes = if a.smoke { Sizes::SMOKE } else { Sizes::LEDGER };
    let mut refs = load_refs().unwrap_or_else(|e| {
        eprintln!("tei-perfbench: {e}");
        std::process::exit(1);
    });
    let mut summary = metrics::Summary::default();
    for w in workloads {
        let run = match run_workload(w, &a, sizes, &scrubbed) {
            Ok(run) => run,
            Err(e) => {
                eprintln!("tei-perfbench: {}: {e}", w.name());
                summary.fail();
                continue;
            }
        };
        let expected = refs
            .get(w.name())
            .and_then(|by_size| by_size.get(&sizes.key(w)))
            .and_then(|by_seed| by_seed.get(&a.seed.to_string()))
            .cloned();
        let m = run.metrics(expected.as_deref());
        write_ledger(&run, &m);
        m.print_table(w);
        if a.record {
            refs.entry(w.name().to_string())
                .or_default()
                .entry(sizes.key(w))
                .or_default()
                .insert(a.seed.to_string(), m.digest.clone());
        }
        summary.add(w, m);
    }
    if a.record {
        let body = serde_json::to_string_pretty(&refs).unwrap_or_default() + "\n";
        if let Err(e) = std::fs::write(refs_path(), body) {
            eprintln!("tei-perfbench: could not write references.json: {e}");
            std::process::exit(1);
        }
    }
    println!(
        "{}",
        serde_json::to_string(&summary.result(a.trace)).unwrap_or_default()
    );
}
