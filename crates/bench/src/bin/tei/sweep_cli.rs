//! `tei sweep` — AVM as a continuous function of supply voltage.
//!
//! The paper characterizes two discrete undervolting corners (VR15,
//! VR20). The sweep treats Vdd as a continuous knob instead: it runs
//! *one* DTA campaign per FPU op whose settle passes are re-thresholded
//! at every grid voltage (delay derating interpolated between the
//! characterized corners, bit-exact at the corners themselves), builds
//! a workload-aware error model per grid point, and injects a full
//! campaign at each — reporting AVM(Vdd) and the minimum voltage that
//! still meets an AVM target. Results land in
//! `results/sweep-<benchmark>.json` with a `.fnv` checksum sidecar.

use crate::cli::Flags;
use std::path::PathBuf;
use tei_core::{
    dev, CampaignConfig, CampaignSpec, DtaTuning, GoldenRun, MaskSampling, ModelKind, OpErrorStats,
    StatModel, TeiError,
};
use tei_softfloat::FpOp;
use tei_timing::VoltageReduction;
use tei_workloads::build;

/// Memory given to golden runs and trace capture (matches the fabric).
const MEM: usize = 8 << 20;

const SWEEP_USAGE: &str = "usage: tei sweep --benchmark <name> [options]

One DTA settle pass per FPU op, re-thresholded at each grid point's
interpolated derating, then an injection campaign per point: AVM per
point and the minimum Vdd meeting --avm-target.

sweep options:
  --benchmark <name>       benchmark (required; e.g. is, sobel, k-means)
  --scale test|small|full  benchmark problem size (default test)
  --runs <n>               injection runs per grid point (default 120)
  --seed <n>               base RNG seed (default 1)
  --grid <n>               Vdd grid points (default 12, min 2)
  --vdd-min <v>            lowest Vdd, volts (default the VR20 corner)
  --vdd-max <v>            highest Vdd, volts (default nominal)
  --avm-target <x>         AVM threshold for min-Vdd (default 0.01)
  --dta-cap <n>            per-op transition cap for DTA (default 4000)
  --out <file>             result JSON (default results/sweep-<bench>.json)";

/// The sweep body: one multi-level DTA pass per op, then one injection
/// campaign per grid voltage off the shared statistics.
pub(crate) fn sweep(args: &[String]) -> Result<(), TeiError> {
    let f = Flags::parse("sweep", SWEEP_USAGE, args, false);
    let (cell, parsed) = f.spec(CampaignSpec::new(""));
    let (scale, runs, seed) = (cell.scale, cell.runs as usize, cell.seed);
    let grid_points: usize = f.get("--grid").unwrap_or(12);
    if grid_points < 2 {
        f.fail("--grid must be at least 2");
    }
    let (lo, hi) = (
        VoltageReduction::VR20.vdd(),
        VoltageReduction::Nominal.vdd(),
    );
    let vdd_min: f64 = f.get("--vdd-min").unwrap_or(lo);
    let vdd_max: f64 = f.get("--vdd-max").unwrap_or(hi);
    if !(vdd_min < vdd_max && vdd_min >= lo && vdd_max <= hi) {
        f.fail(format!(
            "Vdd range [{vdd_min}, {vdd_max}] must be increasing and within the \
             characterized corners [{lo}, {hi}]"
        ));
    }
    let avm_target: f64 = f.get("--avm-target").unwrap_or(0.01);
    let dta_cap: usize = f.get("--dta-cap").unwrap_or(4000);
    let id = parsed.id;

    let bench = build(id, parsed.scale);
    let (bank, spec) = dev::default_bank();
    let threads = tei_core::config::default_threads();
    let grid: Vec<f64> = (0..grid_points)
        .map(|i| vdd_min + (vdd_max - vdd_min) * i as f64 / (grid_points - 1) as f64)
        .collect();
    let levels: Vec<VoltageReduction> = grid.iter().map(|&v| VoltageReduction::Vdd(v)).collect();

    eprintln!(
        "tei sweep: {} ({}), {} grid points over Vdd [{:.3}, {:.3}] V, \
         {} runs/point",
        id.name(),
        scale,
        grid_points,
        vdd_min,
        vdd_max,
        runs,
    );

    // One settle pass per op covers every grid voltage: the DTA engine
    // re-thresholds each transition's settle times at all `levels` in a
    // single walk, so the sweep's circuit cost is independent of the
    // grid resolution.
    let trace = dev::TraceSet::capture(&bench.program, MEM, u64::MAX, dta_cap);
    let tuning = DtaTuning::default();
    let mut per_level: Vec<Vec<OpErrorStats>> = vec![Vec::new(); levels.len()];
    for op in FpOp::all() {
        let pairs = trace.of(op);
        if pairs.len() < 2 {
            continue;
        }
        let stats = dev::dta_campaign(bank.unit(op), pairs, spec.clk, &levels, threads, tuning)?;
        for (slot, s) in per_level.iter_mut().zip(stats) {
            slot.push(s);
        }
    }

    // Grid campaigns: a workload-aware model per voltage, every
    // injection campaign deterministic under (runs, seed, threads).
    let golden = GoldenRun::capture(&bench, MEM, u64::MAX)?;
    let cfg = CampaignConfig {
        runs,
        seed,
        threads,
        ..CampaignConfig::default()
    };
    let mut rows = Vec::new();
    let mut min_vdd = None;
    println!("      Vdd    factor       AVM   masked      sdc    crash  timeout");
    for (i, (&vdd, level)) in grid.iter().zip(&levels).enumerate() {
        let model = StatModel::from_campaign_stats(
            ModelKind::Wa,
            *level,
            MaskSampling::Empirical,
            &per_level[i],
        )?;
        let result = tei_core::campaign::run_campaign_checked(id.name(), &golden, &model, &cfg)?;
        let avm = result.avm();
        let c = &result.counts;
        println!(
            "  {vdd:7.3}  {:8.4}  {avm:8.4} {:8} {:8} {:8} {:8}",
            level.derating_factor(),
            c.masked,
            c.sdc,
            c.crash,
            c.timeout
        );
        if avm <= avm_target && min_vdd.is_none() {
            min_vdd = Some(vdd);
        }
        rows.push(format!(
            "{{\"vdd\": {vdd}, \"derating_factor\": {}, \"avm\": {avm}, \
             \"masked\": {}, \"sdc\": {}, \"crash\": {}, \"timeout\": {}}}",
            level.derating_factor(),
            c.masked,
            c.sdc,
            c.crash,
            c.timeout
        ));
    }
    match min_vdd {
        Some(v) => println!(
            "minimum Vdd at AVM <= {}: {v:.3} V ({:.1}% below nominal)",
            avm_target,
            100.0 * (1.0 - v / VoltageReduction::Nominal.vdd())
        ),
        None => println!(
            "no grid voltage meets AVM <= {} (raise --vdd-max or the target)",
            avm_target
        ),
    }

    let out = f
        .get("--out")
        .unwrap_or_else(|| PathBuf::from(format!("results/sweep-{}.json", id.name())));
    let json = format!(
        "{{\n  \"schema\": \"tei-sweep-v2\",\n  \"benchmark\": {:?},\n  \"scale\": {:?},\n  \
         \"clk_ns\": {},\n  \"runs\": {},\n  \"seed\": {},\n  \"dta_pairs_cap\": {},\n  \
         \"avm_target\": {},\n  \"min_vdd_at_target\": {},\n  \
         \"grid\": [\n    {}\n  ]\n}}\n",
        id.name(),
        scale,
        spec.clk,
        runs,
        seed,
        dta_cap,
        avm_target,
        min_vdd.map_or("null".to_string(), |v| v.to_string()),
        rows.join(",\n    ")
    );
    tei_bench::write_artifact(&out, json.as_bytes())?;
    println!("wrote {}", out.display());
    Ok(())
}
