//! The four measured pipelines. Each repetition rebuilds every simulated
//! result from the set-up products, so repetitions are independent and
//! their digests must agree.

use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use tei_core::campaign::{self, CampaignConfig, CampaignResult, GoldenRun};
use tei_core::{
    dev, fnv64, CampaignSpec, DaCalibration, DaModel, FabricConfig, FabricEvent, InjectionModel,
    StatModel, TeiError,
};
use tei_fpu::{FpuBank, FpuTimingSpec};
use tei_softfloat::FpOp;
use tei_timing::VoltageReduction;
use tei_workloads::{build, Benchmark, BenchmarkId, Scale};

/// Data-memory size of every simulation (the toolflow's default).
pub const MEM: usize = 8 << 20;

/// The paper's two corners.
pub const LEVELS: [VoltageReduction; 2] = [VoltageReduction::VR15, VoltageReduction::VR20];

/// Error ratio of the calibration-free DA model the single-cell
/// workloads inject with.
const CELL_ER: f64 = 1e-2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperEval,
    ModelDev,
    DurableCell,
    FabricCell,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperEval,
        Workload::ModelDev,
        Workload::DurableCell,
        Workload::FabricCell,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperEval => "paper-eval",
            Workload::ModelDev => "model-dev",
            Workload::DurableCell => "durable-cell",
            Workload::FabricCell => "fabric-cell",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    fn salt(self) -> u64 {
        self as u64 + 1
    }
}

/// Problem sizes. Every field is passed to the library explicitly; none
/// is read from the environment.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Benchmark scale of paper-eval and model-dev.
    pub scale: Scale,
    /// Injection runs per paper-eval cell.
    pub paper_runs: usize,
    /// DTA operand pairs per op in paper-eval (the toolflow default).
    pub paper_dta: usize,
    /// DTA operand pairs per op in model-dev.
    pub model_dta: usize,
    /// Benchmark scale of the single durable / fabric cell.
    pub cell_scale: Scale,
    /// Injection runs of the single durable / fabric cell.
    pub cell_runs: usize,
    /// Campaign threads, and fabric worker processes.
    pub threads: usize,
}

impl Sizes {
    pub const LEDGER: Sizes = Sizes {
        scale: Scale::Small,
        paper_runs: 72,
        paper_dta: 20_000,
        model_dta: 100_000,
        cell_scale: Scale::Test,
        cell_runs: 16_384,
        threads: 2,
    };

    /// Tiny sizes for the smoke test: every code path, seconds of work.
    pub const SMOKE: Sizes = Sizes {
        scale: Scale::Test,
        paper_runs: 4,
        paper_dta: 300,
        model_dta: 600,
        cell_scale: Scale::Test,
        cell_runs: 64,
        threads: 2,
    };

    /// The part of the sizes a workload's simulated results depend on;
    /// reference digests are stored under this key.
    pub fn key(&self, w: Workload) -> String {
        match w {
            Workload::PaperEval => format!(
                "{:?}/runs{}/dta{}",
                self.scale, self.paper_runs, self.paper_dta
            ),
            Workload::ModelDev => format!("{:?}/dta{}", self.scale, self.model_dta),
            Workload::DurableCell | Workload::FabricCell => {
                format!("{:?}/runs{}", self.cell_scale, self.cell_runs)
            }
        }
    }

    pub fn to_json(self) -> serde_json::Value {
        serde_json::json!({
            "scale": format!("{:?}", self.scale),
            "paper_runs_per_cell": self.paper_runs,
            "paper_dta_pairs_per_op": self.paper_dta,
            "model_dta_pairs_per_op": self.model_dta,
            "cell_scale": format!("{:?}", self.cell_scale),
            "cell_runs": self.cell_runs,
            "threads": self.threads,
        })
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The inputs a seed selects: the injection seed of every campaign and
/// the operand seed of the IA model.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    pub campaign: u64,
    pub operands: u64,
}

impl Seeds {
    pub fn new(w: Workload, seed: u64) -> Self {
        let base = splitmix(seed ^ (w.salt() << 56));
        Seeds {
            campaign: splitmix(base ^ 1),
            operands: splitmix(base ^ 2),
        }
    }
}

/// Set-up products: the FPU bank, warmed for DTA, the workload's
/// benchmark programs, and the single cell's benchmark (sobel).
pub struct Setup {
    pub bank: FpuBank,
    pub spec: FpuTimingSpec,
    pub benches: Vec<Benchmark>,
    pub cell: Benchmark,
}

/// Host seconds of one set-up, by step.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub bank_s: f64,
    pub warm_s: f64,
    pub build_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.bank_s + self.warm_s + self.build_s
    }
}

/// Operand pairs per op of the set-up's DTA warm-up call.
const WARM_PAIRS: usize = 2_000;

/// Generate the bank, warm the DTA path, and build the workload's
/// benchmarks.
///
/// The first DTA call through the per-op worker pool in a process runs
/// about 0.3 s slower than later ones at 100 k pairs per op. Building
/// the compiled netlists and the kernel registry up front does not
/// remove that (they take milliseconds), nor does a serial pass over
/// every unit on the main thread; one small IA build through the pool
/// does. It is one-time process set-up, so it is charged to `setup_s`.
pub fn setup(w: Workload, sizes: &Sizes) -> Result<(Setup, SetupTimes), TeiError> {
    let t = Instant::now();
    let (bank, spec) = dev::default_bank();
    let bank_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let registry = tei_kernels::registry();
    for unit in bank.iter() {
        std::hint::black_box(registry.covers(unit));
    }
    std::hint::black_box(StatModel::instruction_aware(
        &bank,
        &spec,
        VoltageReduction::VR15,
        WARM_PAIRS,
        0,
    )?);
    let warm_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let benches = match w {
        Workload::PaperEval | Workload::ModelDev => BenchmarkId::all()
            .into_iter()
            .map(|id| build(id, sizes.scale))
            .collect(),
        Workload::DurableCell | Workload::FabricCell => Vec::new(),
    };
    let cell = build(BenchmarkId::Sobel, sizes.cell_scale);
    let build_s = t.elapsed().as_secs_f64();
    Ok((
        Setup {
            bank,
            spec,
            benches,
            cell,
        },
        SetupTimes {
            bank_s,
            warm_s,
            build_s,
        },
    ))
}

/// What one repetition produced: a digest of every simulated result,
/// counts taken at the layer boundaries, and the operations it issued.
#[derive(Debug, Default)]
pub struct RepOut {
    pub digest: u64,
    pub counts: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Cross-mode identities that did not hold.
    pub violations: Vec<String>,
}

impl RepOut {
    fn add(&mut self, key: &'static str, v: f64) {
        *self.counts.entry(key).or_insert(0.0) += v;
    }

    fn call(&mut self) {
        self.attempted += 1;
    }

    /// Account a finished campaign cell: requested runs are the
    /// attempted operations, quarantined and mistargeted runs failed.
    fn cell(&mut self, requested: usize, r: &CampaignResult) {
        self.attempted += requested as u64;
        self.failed += r.counts.quarantined + r.counts.mistargeted;
        if r.counts.total() != requested as u64 {
            self.violations.push(format!(
                "{}/{}/{}: {} runs classified, {requested} requested",
                r.benchmark,
                r.model,
                r.vr.label(),
                r.counts.total()
            ));
        }
    }
}

/// Canonical bytes of a cell result: every outcome count, the AVM and
/// the injected error ratio, bit-exact.
fn cell_bytes(out: &mut Vec<u8>, r: &CampaignResult) {
    let c = &r.counts;
    out.extend_from_slice(
        format!(
            "{}|{}|{}|{},{},{},{},{},{},{},{}|{:016x}|{:016x};",
            r.benchmark,
            r.model,
            r.vr.label(),
            c.masked,
            c.sdc,
            c.crash,
            c.timeout,
            c.masked_wrong_path,
            c.masked_no_error,
            c.mistargeted,
            c.quarantined,
            r.avm().to_bits(),
            r.error_ratio.to_bits()
        )
        .as_bytes(),
    );
}

/// Canonical bytes of a model: its name, corner and per-op error ratio.
fn model_bytes(out: &mut Vec<u8>, m: &dyn InjectionModel) {
    out.extend_from_slice(format!("{}|{}|", m.name(), m.vr().label()).as_bytes());
    for op in FpOp::all() {
        out.extend_from_slice(&m.error_ratio(op).to_bits().to_le_bytes());
    }
    out.push(b';');
}

fn calibration_bytes(out: &mut Vec<u8>, cal: &DaCalibration) {
    for (vr, er) in &cal.er {
        out.extend_from_slice(format!("da-cal|{}|{:016x};", vr.label(), er.to_bits()).as_bytes());
    }
}

fn transitions(n: usize) -> f64 {
    n.saturating_sub(1) as f64
}

/// Per-run context shared by every repetition.
pub struct Ctx<'a> {
    pub setup: &'a Setup,
    pub sizes: Sizes,
    pub seeds: Seeds,
    /// Directory this run's journals go under, on the checkout's disk.
    pub work: PathBuf,
    /// Command that starts a fabric worker (this executable).
    pub worker_cmd: Vec<String>,
}

impl Ctx<'_> {
    fn cfg(&self, runs: usize, threads: usize) -> CampaignConfig {
        CampaignConfig {
            runs,
            seed: self.seeds.campaign,
            threads,
            ..CampaignConfig::default()
        }
    }

    fn fabric_spec(&self) -> CampaignSpec {
        CampaignSpec {
            scale: format!("{:?}", self.sizes.cell_scale).to_lowercase(),
            model: format!("fixed:{CELL_ER}"),
            vr: "vr20".to_string(),
            runs: self.sizes.cell_runs as u64,
            seed: self.seeds.campaign,
            timeout_factor: CampaignConfig::default().timeout_factor,
            threads_per_worker: 1,
            throttle_ms: 0,
            ..CampaignSpec::new(BenchmarkId::Sobel.name())
        }
    }

    fn fabric_config(&self, journal_dir: PathBuf) -> FabricConfig {
        FabricConfig {
            workers: self.sizes.threads,
            leases_per_worker: 4,
            lease_timeout: std::time::Duration::from_secs(600),
            tick: std::time::Duration::from_millis(200),
            heartbeat_timeout: std::time::Duration::from_secs(5),
            ..FabricConfig::new(self.worker_cmd.clone(), journal_dir)
        }
    }
}

/// The measured pipeline of one repetition.
pub fn run_rep(w: Workload, ctx: &Ctx, tr: &mut Tracer, dir: &Path) -> Result<RepOut, TeiError> {
    match w {
        Workload::PaperEval => paper_eval(ctx, tr),
        Workload::ModelDev => model_dev(ctx, tr),
        Workload::DurableCell | Workload::FabricCell => {
            let mut out = RepOut::default();
            let r = if w == Workload::DurableCell {
                let g = golden(tr, &mut out, &ctx.setup.cell)?;
                durable_cell(ctx, tr, &mut out, &g, dir, false)?
            } else {
                fabric_cell(ctx, tr, &mut out, dir, false)?
            };
            out.add("runs", r.counts.total() as f64);
            out.digest = cell_digest(&r);
            Ok(out)
        }
    }
}

fn ia_models(
    ctx: &Ctx,
    tr: &mut Tracer,
    out: &mut RepOut,
    dta: usize,
) -> Result<Vec<StatModel>, TeiError> {
    let (bank, spec) = (&ctx.setup.bank, &ctx.setup.spec);
    LEVELS
        .iter()
        .map(|&vr| {
            out.call();
            out.add("ia_pairs", FpOp::all().len() as f64 * transitions(dta));
            tr.span("dta", "ia", |_| {
                StatModel::instruction_aware(bank, spec, vr, dta, ctx.seeds.operands)
            })
        })
        .collect()
}

fn trace_of(tr: &mut Tracer, out: &mut RepOut, bench: &Benchmark, cap: usize) -> dev::TraceSet {
    let t = tr.span("dev", "trace", |_| {
        dev::TraceSet::capture(&bench.program, MEM, u64::MAX, cap)
    });
    out.add("trace_pairs", t.len() as f64);
    t
}

fn wa_model(
    ctx: &Ctx,
    tr: &mut Tracer,
    out: &mut RepOut,
    vr: VoltageReduction,
    trace: &dev::TraceSet,
    dta: usize,
) -> Result<StatModel, TeiError> {
    out.call();
    let pairs: f64 = FpOp::all()
        .into_iter()
        .map(|op| transitions(trace.of(op).len().min(dta)))
        .sum();
    out.add("wa_pairs", pairs);
    tr.span("dta", "wa", |_| {
        StatModel::workload_aware(&ctx.setup.bank, &ctx.setup.spec, vr, trace, dta)
    })
}

/// Pooled DA calibration, as the toolflow builds it: a slice of every
/// benchmark's trace, DTA at both corners.
fn da_calibration(
    ctx: &Ctx,
    tr: &mut Tracer,
    out: &mut RepOut,
    dta: usize,
) -> Result<DaCalibration, TeiError> {
    let per_bench = (dta / BenchmarkId::all().len()).max(500);
    let mut pooled = dev::TraceSet::default();
    for bench in &ctx.setup.benches {
        pooled.merge(&trace_of(tr, out, bench, per_bench));
    }
    out.call();
    let pairs: f64 = FpOp::all()
        .into_iter()
        .map(|op| transitions(pooled.of(op).len().min(dta)))
        .sum();
    out.add("da_pairs", pairs);
    tr.span("dta", "da_cal", |_| {
        dev::calibrate_da(&ctx.setup.bank, &ctx.setup.spec, &pooled, &LEVELS, dta)
    })
}

fn golden(tr: &mut Tracer, out: &mut RepOut, bench: &Benchmark) -> Result<GoldenRun, TeiError> {
    out.call();
    let g = tr.span("uarch", "golden", |_| {
        GoldenRun::capture(bench, MEM, u64::MAX)
    })?;
    out.add("golden_insn", g.instructions as f64);
    out.add("golden_checkpoints", g.checkpoints.len() as f64);
    Ok(g)
}

/// paper-eval: the cell set of the figures' campaign sweep.
fn paper_eval(ctx: &Ctx, tr: &mut Tracer) -> Result<RepOut, TeiError> {
    let mut out = RepOut::default();
    let dta = ctx.sizes.paper_dta;
    let mut goldens = Vec::new();
    let mut traces = Vec::new();
    for bench in &ctx.setup.benches {
        goldens.push(golden(tr, &mut out, bench)?);
        traces.push(trace_of(tr, &mut out, bench, dta));
    }
    let cal = da_calibration(ctx, tr, &mut out, dta)?;
    let ia = ia_models(ctx, tr, &mut out, dta)?;
    let mut wa = Vec::new();
    for trace in &traces {
        for vr in LEVELS {
            wa.push(wa_model(ctx, tr, &mut out, vr, trace, dta)?);
        }
    }
    let cfg = ctx.cfg(ctx.sizes.paper_runs, ctx.sizes.threads);
    let mut bytes = Vec::new();
    calibration_bytes(&mut bytes, &cal);
    for (b, bench) in ctx.setup.benches.iter().enumerate() {
        let name = bench.id.name();
        for (v, &vr) in LEVELS.iter().enumerate() {
            let da = DaModel::from_calibration(&cal, vr)?;
            let models: [&(dyn InjectionModel + Sync); 3] =
                [&da, &ia[v], &wa[b * LEVELS.len() + v]];
            for m in models {
                let r = tr.span("campaign", "cell", |_| {
                    campaign::run_campaign_checked(name, &goldens[b], m, &cfg)
                })?;
                out.cell(cfg.runs, &r);
                out.add("cells", 1.0);
                out.add("runs", r.counts.total() as f64);
                out.add("campaign_runs", r.counts.total() as f64);
                out.add("sdc", r.counts.sdc as f64);
                out.add("crash", r.counts.crash as f64);
                out.add("timeout", r.counts.timeout as f64);
                out.add("masked_no_error", r.counts.masked_no_error as f64);
                out.add("masked_wrong_path", r.counts.masked_wrong_path as f64);
                model_bytes(&mut bytes, m);
                cell_bytes(&mut bytes, &r);
            }
        }
    }
    out.add(
        "pairs",
        out.counts["ia_pairs"] + out.counts["wa_pairs"] + out.counts["da_pairs"],
    );
    out.digest = fnv64(&bytes);
    Ok(out)
}

/// model-dev: IA from random operands, WA from every benchmark's trace,
/// pooled DA calibration; no golden run, injection or journal.
fn model_dev(ctx: &Ctx, tr: &mut Tracer) -> Result<RepOut, TeiError> {
    let mut out = RepOut::default();
    let dta = ctx.sizes.model_dta;
    let mut bytes = Vec::new();
    for m in ia_models(ctx, tr, &mut out, dta)? {
        model_bytes(&mut bytes, &m);
    }
    for bench in &ctx.setup.benches {
        let trace = trace_of(tr, &mut out, bench, dta);
        for vr in LEVELS {
            let m = wa_model(ctx, tr, &mut out, vr, &trace, dta)?;
            model_bytes(&mut bytes, &m);
        }
    }
    calibration_bytes(&mut bytes, &da_calibration(ctx, tr, &mut out, dta)?);
    out.add(
        "pairs",
        out.counts["ia_pairs"] + out.counts["wa_pairs"] + out.counts["da_pairs"],
    );
    out.digest = fnv64(&bytes);
    Ok(out)
}

fn dir_bytes(dir: &Path) -> f64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len() as f64)
                .sum()
        })
        .unwrap_or(0.0)
}

fn same_cell(a: &CampaignResult, b: &CampaignResult) -> bool {
    a.counts == b.counts
        && a.quarantined == b.quarantined
        && a.avm().to_bits() == b.avm().to_bits()
        && a.error_ratio.to_bits() == b.error_ratio.to_bits()
}

fn cell_digest(r: &CampaignResult) -> u64 {
    let mut bytes = Vec::new();
    cell_bytes(&mut bytes, r);
    fnv64(&bytes)
}

/// The single cell through `run_campaign_durable` into a fresh journal,
/// then a resume call on the completed journal. `reference` names the
/// spans for a run outside the timed pipeline.
fn durable_cell(
    ctx: &Ctx,
    tr: &mut Tracer,
    out: &mut RepOut,
    g: &GoldenRun,
    dir: &Path,
    reference: bool,
) -> Result<CampaignResult, TeiError> {
    let (durable, resume) = if reference {
        ("durable_ref", "resume_ref")
    } else {
        ("durable", "resume")
    };
    let model = DaModel::from_fixed(VoltageReduction::VR20, CELL_ER);
    let cfg = ctx.cfg(ctx.sizes.cell_runs, ctx.sizes.threads);
    let name = BenchmarkId::Sobel.name();
    let r = tr.span("journal", durable, |_| {
        campaign::run_campaign_durable(name, g, &model, &cfg, dir)
    })?;
    out.cell(cfg.runs, &r);
    out.add("appends", r.counts.total() as f64);
    out.add("journal_bytes", dir_bytes(dir));
    out.call();
    let resumed = tr.span("journal", resume, |_| {
        campaign::run_campaign_durable(name, g, &model, &cfg, dir)
    })?;
    if !same_cell(&r, &resumed) {
        out.violations
            .push("resume of a completed journal differs from the durable run".into());
    }
    Ok(r)
}

/// The single cell through `run_fabric_campaign` with worker processes.
fn fabric_cell(
    ctx: &Ctx,
    tr: &mut Tracer,
    out: &mut RepOut,
    dir: &Path,
    reference: bool,
) -> Result<CampaignResult, TeiError> {
    let spec = ctx.fabric_spec();
    let cfg = ctx.fabric_config(dir.to_path_buf());
    let t0 = Instant::now();
    let mut first_lease: Option<f64> = None;
    let mut finished = 0.0;
    let (mut leases, mut reassigned, mut died) = (0.0, 0.0, 0.0);
    let name = if reference {
        "campaign_ref"
    } else {
        "campaign"
    };
    let r = tr.span("fabric", name, |_| {
        tei_core::run_fabric_campaign(&spec, &cfg, &mut |ev| match ev {
            FabricEvent::LeaseGranted { .. } => {
                first_lease.get_or_insert(t0.elapsed().as_secs_f64());
                leases += 1.0;
            }
            FabricEvent::WorkerDied { reassigned: n, .. } => {
                died += 1.0;
                reassigned += *n as f64;
            }
            FabricEvent::Finished { .. } => finished = t0.elapsed().as_secs_f64(),
            _ => {}
        })
    })?;
    let wall = t0.elapsed().as_secs_f64();
    out.cell(ctx.sizes.cell_runs, &r);
    out.add("first_lease_s", first_lease.unwrap_or(0.0));
    out.add("shutdown_s", wall - finished);
    out.add("leases", leases);
    out.add("reassigned", reassigned);
    out.add("workers_died", died);
    Ok(r)
}

/// The cross-mode identities of the single cell, run after the timed
/// pipeline: 2 threads equal 1 thread in memory, and durable, its resume
/// and the fabric equal in-memory. paper-eval runs the whole check after
/// its first repetition and after every traced one, which is where its
/// journal and fabric per-layer numbers come from. durable-cell and
/// fabric-cell compare their pipeline's result with the in-memory runs;
/// traced fabric-cell repetitions also run the cell durably in-process,
/// the base of `fabric.vs_threads`. The spans sit under the
/// `harness.gate` root, outside the timed repetition.
pub fn gate(
    w: Workload,
    ctx: &Ctx,
    tr: &mut Tracer,
    rep: &mut RepOut,
    dir: &Path,
    first: bool,
) -> Result<(), TeiError> {
    match w {
        Workload::ModelDev => return Ok(()),
        Workload::PaperEval if !(first || tr.is_on()) => return Ok(()),
        _ => {}
    }
    let name = BenchmarkId::Sobel.name();
    let model = DaModel::from_fixed(VoltageReduction::VR20, CELL_ER);
    let g = GoldenRun::capture(&ctx.setup.cell, MEM, u64::MAX)?;
    let runs = ctx.sizes.cell_runs;
    let two = tr.span("campaign", "memory_ref", |_| {
        campaign::run_campaign_checked(name, &g, &model, &ctx.cfg(runs, ctx.sizes.threads))
    })?;
    let one = campaign::run_campaign_checked(name, &g, &model, &ctx.cfg(runs, 1))?;
    let mut digests = vec![("in-memory at 1 thread", cell_digest(&one))];
    match w {
        Workload::PaperEval => {
            let d = durable_cell(ctx, tr, rep, &g, &dir.join("durable"), true)?;
            digests.push(("durable", cell_digest(&d)));
            let f = fabric_cell(ctx, tr, rep, &dir.join("fabric"), true)?;
            digests.push(("fabric", cell_digest(&f)));
        }
        Workload::FabricCell if tr.is_on() => {
            let d = durable_cell(ctx, tr, rep, &g, &dir.join("durable"), true)?;
            digests.push(("in-process durable", cell_digest(&d)));
            digests.push(("fabric", rep.digest));
        }
        _ => digests.push((w.name(), rep.digest)),
    }
    let reference = cell_digest(&two);
    for (what, digest) in digests {
        if digest != reference {
            rep.violations
                .push(format!("{what} differs from in-memory at 2 threads"));
        }
    }
    Ok(())
}
