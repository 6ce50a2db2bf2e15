//! One function per table/figure of the paper's evaluation.

use crate::artifacts::{Artifacts, LEVELS, MEM};
use serde_json::{json, Value};
use std::fmt::Write as _;
use tei_core::journal::atomic_write_checksummed;
use tei_core::{
    campaign, config, dev, power, stats, DtaTuning, InjectionModel, ModelKind, StatModel, TeiError,
};
use tei_softfloat::{FpOp, Precision};
use tei_timing::{PathCensus, VoltageReduction};
use tei_workloads::BenchmarkId;

/// A regenerated experiment artifact: pretty text plus machine-readable
/// rows.
#[derive(Debug, Clone)]
pub struct Report {
    /// Artifact identifier (`fig4`, `table2`, ...).
    pub id: &'static str,
    /// Human-readable table/series.
    pub text: String,
    /// Machine-readable content.
    pub json: Value,
}

impl Report {
    /// Write the JSON next to the workspace `results/` directory —
    /// atomically (tmp + rename) and with a `.fnv` checksum sidecar, so a
    /// crash mid-write can never leave a torn artifact.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors as [`TeiError::Io`].
    pub fn save(&self, dir: &std::path::Path) -> Result<(), TeiError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| TeiError::io("create results directory", dir, e))?;
        let path = dir.join(format!("{}.json", self.id));
        let body = serde_json::to_string_pretty(&self.json).unwrap_or_default();
        atomic_write_checksummed(&path, body.as_bytes())?;
        Ok(())
    }
}

fn region_of(bit: usize, op_bits: usize) -> &'static str {
    // LSB-first: mantissa, then exponent, then sign.
    match op_bits {
        64 => {
            if bit < 52 {
                "M"
            } else if bit < 63 {
                "E"
            } else {
                "S"
            }
        }
        _ => {
            if bit < 23 {
                "M"
            } else if bit < 31 {
                "E"
            } else {
                "S"
            }
        }
    }
}

// ---------------------------------------------------------------------
// Figure 4 — whole-core lowest-slack path census
// ---------------------------------------------------------------------

/// Figure 4: distribution of the 1000 lowest-slack paths across pipeline
/// blocks of the whole core.
pub fn fig4(arts: &Artifacts) -> Report {
    let (_, spec) = arts.bank();
    eprintln!("[fig4] building whole-core netlist + path census ...");
    let core = tei_fpu::whole_core(spec);
    let census = PathCensus::top_k(&core, spec.clk, 1000);
    // Group by functional unit (block prefix before the stage name).
    let mut groups: Vec<(String, usize, f64)> = Vec::new(); // (unit, paths, min slack)
    for p in &census.paths {
        let unit = p
            .dominant_block
            .split('/')
            .next()
            .unwrap_or(&p.dominant_block)
            .to_string();
        match groups.iter_mut().find(|(u, _, _)| *u == unit) {
            Some((_, n, s)) => {
                *n += 1;
                *s = s.min(p.slack);
            }
            None => groups.push((unit, 1, p.slack)),
        }
    }
    let mut text = String::from("unit                paths  min-slack(ns)\n");
    for (u, n, s) in &groups {
        let _ = writeln!(text, "{u:18} {n:6}  {s:9.3}");
    }
    let fpu_paths: usize = groups
        .iter()
        .filter(|(u, _, _)| !u.starts_with("core"))
        .map(|(_, n, _)| n)
        .sum();
    let _ = writeln!(
        text,
        "FPU share of the 1000 lowest-slack paths: {:.1}%",
        100.0 * fpu_paths as f64 / census.paths.len() as f64
    );
    Report {
        id: "fig4",
        json: json!({
            "clk_ns": census.clk,
            "groups": groups.iter().map(|(u, n, s)| json!({
                "unit": u, "paths": n, "min_slack_ns": s})).collect::<Vec<_>>(),
            "fpu_share": fpu_paths as f64 / census.paths.len() as f64,
        }),
        text,
    }
}

// ---------------------------------------------------------------------
// Figure 5 — flipped-bit multiplicity of faulty outputs
// ---------------------------------------------------------------------

/// Figure 5: distribution of the number of bit flips at faulty instruction
/// outputs under VR15 and VR20 (benchmark-mix operands).
pub fn fig5(arts: &Artifacts) -> Result<Report, TeiError> {
    let (bank, spec) = arts.bank();
    let mut rows = Vec::new();
    let mut text = String::from("VR     1-bit   2-bit   3-bit   4+bit   multi-bit%\n");
    let mut multi_sum = 0.0;
    let (threads, tuning) = (config::default_threads(), DtaTuning::default());
    for vr in LEVELS {
        let mut hist: [u64; 5] = [0; 5]; // 1,2,3,4+, total
        for id in BenchmarkId::all() {
            let trace = arts.trace(id);
            for op in FpOp::all() {
                let t = trace.of(op);
                if t.len() < 2 {
                    continue;
                }
                let s = dev::dta_campaign(bank.unit(op), t, spec.clk, &[vr], threads, tuning)?
                    .pop()
                    .ok_or_else(|| TeiError::EmptyDta {
                        op: op.to_string(),
                        vr: vr.label(),
                    })?;
                for (&k, &v) in &s.flip_hist {
                    let slot = k.min(4) - 1;
                    hist[slot] += v;
                    hist[4] += v;
                }
            }
        }
        let total = hist[4].max(1) as f64;
        let pct = |i: usize| 100.0 * hist[i] as f64 / total;
        let multi = pct(1) + pct(2) + pct(3);
        multi_sum += multi;
        let _ = writeln!(
            text,
            "{:5} {:6.1}% {:6.1}% {:6.1}% {:6.1}%   {multi:6.1}%",
            vr.label(),
            pct(0),
            pct(1),
            pct(2),
            pct(3)
        );
        rows.push(json!({
            "vr": vr.label(),
            "one": pct(0), "two": pct(1), "three": pct(2), "four_plus": pct(3),
            "multi_bit_pct": multi,
        }));
    }
    let _ = writeln!(
        text,
        "average multi-bit share across VR levels: {:.1}% (paper: 64.5%)",
        multi_sum / LEVELS.len() as f64
    );
    Ok(Report {
        id: "fig5",
        json: json!({ "rows": rows, "avg_multi_bit_pct": multi_sum / LEVELS.len() as f64 }),
        text,
    })
}

// ---------------------------------------------------------------------
// Figure 6 — BER convergence with DTA sample count (is / fp-mul)
// ---------------------------------------------------------------------

/// Figure 6: fp-mul BER of the `is` program at VR20 for increasing DTA
/// sample counts, with the average absolute error against the full trace.
pub fn fig6(arts: &Artifacts) -> Result<Report, TeiError> {
    let (bank, spec) = arts.bank();
    let bench = arts.bench(BenchmarkId::Is);
    eprintln!("[fig6] capturing the full is fp-mul trace ...");
    let full_trace = dev::TraceSet::capture(&bench.program, MEM, u64::MAX, usize::MAX);
    let op = FpOp::all()
        .into_iter()
        .find(|o| o.to_string() == "fp-mul (d)")
        .expect("fp-mul (d)");
    let full = full_trace.of(op);
    let unit = bank.unit(op);
    let vr = VoltageReduction::VR20;
    let (threads, tuning) = (config::default_threads(), DtaTuning::default());
    let reference = dev::dta_campaign(unit, full, spec.clk, &[vr], threads, tuning)?
        .pop()
        .ok_or_else(|| TeiError::EmptyDta {
            op: op.to_string(),
            vr: vr.label(),
        })?
        .ber();
    let mut text = format!(
        "is fp-mul (d) at VR20; full trace = {} instructions\n  K        AE\n",
        full.len()
    );
    let mut rows = Vec::new();
    // Randomly extracted instruction samples, as in the paper; each sample
    // keeps its true predecessor (the circuit-state semantics of DTA).
    // A deterministic LCG shuffle orders the candidate indices.
    let mut order: Vec<usize> = (1..full.len()).collect();
    let mut state = 0x9e37_79b9u64;
    for i in (1..order.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        order.swap(i, (state >> 33) as usize % (i + 1));
    }
    for frac in [100usize, 10, 3, 1] {
        let k = ((full.len() - 1) / frac).max(1);
        let ber =
            dev::dta_campaign_sampled(unit, full, &order[..k], spec.clk, &[vr], threads, tuning)?
                .pop()
                .ok_or_else(|| TeiError::EmptyDta {
                    op: op.to_string(),
                    vr: vr.label(),
                })?
                .ber();
        let ae = dev::average_absolute_error(&reference, &ber);
        let _ = writeln!(text, "{k:9} {ae:9.4}");
        rows.push(json!({ "k": k, "ae": ae, "ber": ber }));
    }
    let region = |ber: &[f64], r: &str| -> f64 {
        let vals: Vec<f64> = ber
            .iter()
            .enumerate()
            .filter(|(b, _)| region_of(*b, 64) == r)
            .map(|(_, &v)| v)
            .collect();
        vals.iter().sum::<f64>() / vals.len().max(1) as f64
    };
    let _ = writeln!(
        text,
        "full-trace BER region means: S {:.2e}  E {:.2e}  M {:.2e}",
        region(&reference, "S"),
        region(&reference, "E"),
        region(&reference, "M")
    );
    Ok(Report {
        id: "fig6",
        json: json!({ "rows": rows, "full_ber": reference, "full_len": full.len() }),
        text,
    })
}

// ---------------------------------------------------------------------
// Figures 7 and 8 — per-bit EI probabilities (IA / WA)
// ---------------------------------------------------------------------

fn ber_summary(model: &StatModel, op: FpOp) -> (f64, f64, f64, f64) {
    let ber = model.ber(op);
    let bits = op.result_bits() as usize;
    let mut sums = [0.0; 3];
    let mut counts = [0usize; 3];
    for (b, &v) in ber.iter().enumerate() {
        let i = match region_of(b, bits) {
            "S" => 0,
            "E" => 1,
            _ => 2,
        };
        sums[i] += v;
        counts[i] += 1;
    }
    (
        model.error_ratio(op),
        sums[0] / counts[0].max(1) as f64,
        sums[1] / counts[1].max(1) as f64,
        sums[2] / counts[2].max(1) as f64,
    )
}

/// Figure 7: the IA model's per-bit error-injection probabilities per
/// instruction type and VR level (region means printed; full arrays in
/// JSON).
pub fn fig7(arts: &Artifacts) -> Result<Report, TeiError> {
    let mut text = String::from("op             VR     ER        S-mean    E-mean    M-mean\n");
    let mut rows = Vec::new();
    for vr in LEVELS {
        let ia = arts.ia(vr)?;
        for op in FpOp::all() {
            let (er, s, e, m) = ber_summary(&ia, op);
            let _ = writeln!(
                text,
                "{:14} {:5} {er:9.2e} {s:9.2e} {e:9.2e} {m:9.2e}",
                op.to_string(),
                vr.label()
            );
            rows.push(json!({
                "op": op.to_string(), "vr": vr.label(), "er": er,
                "ber": ia.ber(op),
            }));
        }
    }
    Ok(Report {
        id: "fig7",
        json: json!({ "rows": rows }),
        text,
    })
}

/// Figure 8: the WA model's per-bit EI probabilities per benchmark and VR
/// level, aggregated over the double-precision instruction mix.
pub fn fig8(arts: &Artifacts) -> Result<Report, TeiError> {
    let mut text = String::from("bench     VR     ER        S-mean    E-mean    M-mean\n");
    let mut rows = Vec::new();
    for id in BenchmarkId::all() {
        let golden = arts.golden(id)?;
        for vr in LEVELS {
            let wa = arts.wa(id, vr)?;
            // Frequency-weighted per-bit aggregate over double-precision ops.
            let mut agg = vec![0f64; 64];
            let mut weight = 0f64;
            for op in FpOp::all()
                .into_iter()
                .filter(|o| o.precision == Precision::Double)
            {
                let freq = golden.arch_by_op[op.index()].len() as f64;
                if freq == 0.0 {
                    continue;
                }
                for (b, &v) in wa.ber(op).iter().enumerate() {
                    agg[b] += freq * v;
                }
                weight += freq;
            }
            for v in &mut agg {
                *v /= weight.max(1.0);
            }
            let mean = |r: &str| {
                let vals: Vec<f64> = agg
                    .iter()
                    .enumerate()
                    .filter(|(b, _)| region_of(*b, 64) == r)
                    .map(|(_, &v)| v)
                    .collect();
                vals.iter().sum::<f64>() / vals.len().max(1) as f64
            };
            let er = campaign::model_error_ratio(&wa, &golden);
            let _ = writeln!(
                text,
                "{:9} {:5} {er:9.2e} {:9.2e} {:9.2e} {:9.2e}",
                id.name(),
                vr.label(),
                mean("S"),
                mean("E"),
                mean("M")
            );
            rows.push(json!({
                "benchmark": id.name(), "vr": vr.label(), "er": er, "ber": agg,
            }));
        }
    }
    let _ = writeln!(
        text,
        "(mantissa bits dominate the error probability, as in the paper)"
    );
    Ok(Report {
        id: "fig8",
        json: json!({ "rows": rows }),
        text,
    })
}

// ---------------------------------------------------------------------
// Figures 9 and 10 — injection campaigns
// ---------------------------------------------------------------------

/// The full campaign sweep backing Figures 9 and 10 and the AVM analysis.
///
/// # Errors
///
/// Propagates model-development and campaign failures.
pub fn campaigns(arts: &Artifacts) -> Result<Vec<campaign::CampaignResult>, TeiError> {
    let cfg = campaign::CampaignConfig::default();
    let mut out = Vec::new();
    for id in BenchmarkId::all() {
        let golden = arts.golden(id)?;
        for vr in LEVELS {
            for kind in ModelKind::all() {
                eprintln!(
                    "[campaign] {} × {} × {} ({} runs) ...",
                    id.name(),
                    kind.label(),
                    vr.label(),
                    cfg.runs
                );
                let r = match kind {
                    ModelKind::Da => {
                        campaign::run_campaign_checked(id.name(), &golden, &arts.da(vr)?, &cfg)?
                    }
                    ModelKind::Ia => {
                        campaign::run_campaign_checked(id.name(), &golden, &arts.ia(vr)?, &cfg)?
                    }
                    ModelKind::Wa => {
                        campaign::run_campaign_checked(id.name(), &golden, &arts.wa(id, vr)?, &cfg)?
                    }
                };
                out.push(r);
            }
        }
    }
    Ok(out)
}

/// Figure 9: injection outcome distributions per benchmark × model × VR.
pub fn fig9(results: &[campaign::CampaignResult]) -> Report {
    let mut text = String::from(
        "bench     model     VR     Masked   SDC  Crash Timeout   AVM    (uarch-masked)\n",
    );
    let mut rows = Vec::new();
    for r in results {
        let f = r.fractions();
        let _ = writeln!(
            text,
            "{:9} {:9} {:5} {:6.1}% {:5.1}% {:5.1}% {:6.1}% {:6.3}  ({})",
            r.benchmark,
            r.model,
            r.vr.label(),
            100.0 * f[0],
            100.0 * f[1],
            100.0 * f[2],
            100.0 * f[3],
            r.avm(),
            r.counts.masked_wrong_path,
        );
        rows.push(json!({
            "benchmark": r.benchmark, "model": r.model, "vr": r.vr.label(),
            "masked": f[0], "sdc": f[1], "crash": f[2], "timeout": f[3],
            "avm": r.avm(), "masked_wrong_path": r.counts.masked_wrong_path,
            "masked_no_error": r.counts.masked_no_error,
        }));
    }
    Report {
        id: "fig9",
        json: json!({ "rows": rows }),
        text,
    }
}

/// Figure 10: injected error ratio per benchmark × model × VR, plus the
/// DA/WA and IA/WA divergence factors.
pub fn fig10(results: &[campaign::CampaignResult]) -> Report {
    let mut text =
        String::from("bench     VR     DA-ER      IA-ER      WA-ER      DA/WA     IA/WA\n");
    let mut rows = Vec::new();
    let mut divergences: Vec<(f64, f64)> = Vec::new();
    for bench in BenchmarkId::all() {
        for vr in LEVELS {
            let er_of = |model: &str| {
                results
                    .iter()
                    .find(|r| r.benchmark == bench.name() && r.model == model && r.vr == vr)
                    .map_or(0.0, |r| r.error_ratio)
            };
            let (da, ia, wa) = (er_of("DA-model"), er_of("IA-model"), er_of("WA-model"));
            let ratio = |x: f64| {
                if wa == 0.0 && x == 0.0 {
                    1.0
                } else if wa == 0.0 || x == 0.0 {
                    f64::INFINITY
                } else {
                    (x / wa).max(wa / x)
                }
            };
            let (rd, ri) = (ratio(da), ratio(ia));
            divergences.push((rd, ri));
            let _ = writeln!(
                text,
                "{:9} {:5} {da:10.2e} {ia:10.2e} {wa:10.2e} {rd:9.1} {ri:9.1}",
                bench.name(),
                vr.label()
            );
            rows.push(json!({
                "benchmark": bench.name(), "vr": vr.label(),
                "da_er": da, "ia_er": ia, "wa_er": wa,
                "da_wa_factor": if rd.is_finite() { Some(rd) } else { None },
                "ia_wa_factor": if ri.is_finite() { Some(ri) } else { None },
            }));
        }
    }
    let gm = |f: &dyn Fn(&(f64, f64)) -> f64| {
        let finite: Vec<f64> = divergences
            .iter()
            .map(f)
            .filter(|x| x.is_finite())
            .collect();
        if finite.is_empty() {
            f64::NAN
        } else {
            (finite.iter().map(|x| x.ln()).sum::<f64>() / finite.len() as f64).exp()
        }
    };
    let am = |f: &dyn Fn(&(f64, f64)) -> f64| {
        let finite: Vec<f64> = divergences
            .iter()
            .map(f)
            .filter(|x| x.is_finite())
            .collect();
        if finite.is_empty() {
            f64::NAN
        } else {
            finite.iter().sum::<f64>() / finite.len() as f64
        }
    };
    let _ = writeln!(
        text,
        "divergence vs WA (∞ cells for error-free workloads excluded): \n  DA {:.0}× arithmetic / {:.0}× geometric mean; IA {:.0}× / {:.0}× (paper: ~250×, ~230× average)",
        am(&|d| d.0),
        gm(&|d| d.0),
        am(&|d| d.1),
        gm(&|d| d.1)
    );
    Report {
        id: "fig10",
        json: json!({ "rows": rows }),
        text,
    }
}

// ---------------------------------------------------------------------
// Table II and AVM / energy analyses
// ---------------------------------------------------------------------

/// Table II: benchmark, input, dynamic instruction count, classification.
pub fn table2(arts: &Artifacts) -> Result<Report, TeiError> {
    let mut text =
        String::from("app       input                          instructions  classification\n");
    let mut rows = Vec::new();
    for id in BenchmarkId::all() {
        let bench = arts.bench(id);
        let golden = arts.golden(id)?;
        let _ = writeln!(
            text,
            "{:9} {:30} {:12}  {}",
            id.name(),
            bench.input_desc,
            golden.instructions,
            bench.classification
        );
        rows.push(json!({
            "app": id.name(), "input": bench.input_desc,
            "instructions": golden.instructions,
            "fp_ops": golden.fp_ops,
            "classification": bench.classification,
        }));
    }
    Ok(Report {
        id: "table2",
        json: json!({ "rows": rows }),
        text,
    })
}

/// Section V.C: AVM-guided operating points and power savings per model.
pub fn avm_analysis(results: &[campaign::CampaignResult]) -> Report {
    let mut text =
        String::from("bench     model     AVM@VR15 AVM@VR20  chosen-VR  power-savings\n");
    let mut rows = Vec::new();
    for bench in BenchmarkId::all() {
        for kind in ModelKind::all() {
            let avm_of = |vr: VoltageReduction| {
                results
                    .iter()
                    .find(|r| r.benchmark == bench.name() && r.model == kind.label() && r.vr == vr)
                    .map_or(f64::NAN, campaign::CampaignResult::avm)
            };
            let a15 = avm_of(VoltageReduction::VR15);
            let a20 = avm_of(VoltageReduction::VR20);
            let choice = power::select_operating_point(
                &[(VoltageReduction::VR15, a15), (VoltageReduction::VR20, a20)],
                0.0,
            );
            let savings = power::power_savings(choice);
            let _ = writeln!(
                text,
                "{:9} {:9} {a15:8.3} {a20:8.3}  {:9} {:8.1}%",
                bench.name(),
                kind.label(),
                choice.label(),
                100.0 * savings
            );
            rows.push(json!({
                "benchmark": bench.name(), "model": kind.label(),
                "avm_vr15": a15, "avm_vr20": a20,
                "operating_point": choice.label(),
                "power_savings": savings,
            }));
        }
    }
    Report {
        id: "avm",
        json: json!({ "rows": rows }),
        text,
    }
}

/// Section V.C mitigation: clock-stretch prevention guided by the WA model.
pub fn mitigation(
    arts: &Artifacts,
    results: &[campaign::CampaignResult],
) -> Result<Report, TeiError> {
    let mut text =
        String::from("bench     unprotected-VR  savings  protected@VR20 prone%  energy-savings\n");
    let mut rows = Vec::new();
    for bench in BenchmarkId::all() {
        let golden = arts.golden(bench)?;
        let wa_avm = |vr: VoltageReduction| {
            results
                .iter()
                .find(|r| r.benchmark == bench.name() && r.model == "WA-model" && r.vr == vr)
                .map_or(f64::NAN, campaign::CampaignResult::avm)
        };
        let unprotected = power::select_operating_point(
            &[
                (VoltageReduction::VR15, wa_avm(VoltageReduction::VR15)),
                (VoltageReduction::VR20, wa_avm(VoltageReduction::VR20)),
            ],
            0.0,
        );
        let base_savings = power::power_savings(unprotected);
        // Prevention: run at VR20, stretching the clock for each dynamic
        // instruction of an error-prone type (WA-model ER > 0 at VR20).
        let wa20 = arts.wa(bench, VoltageReduction::VR20)?;
        let mut prone_instr = 0u64;
        for op in FpOp::all() {
            if wa20.error_ratio(op) > 0.0 {
                prone_instr += golden.arch_by_op[op.index()].len() as u64;
            }
        }
        let prone_fraction = prone_instr as f64 / golden.instructions.max(1) as f64;
        let m = power::mitigation_energy(VoltageReduction::VR20, prone_fraction);
        let protected_savings = 1.0 - m.energy;
        let _ = writeln!(
            text,
            "{:9} {:14} {:7.1}% {:13.3} {:6.2}% {:13.1}%",
            bench.name(),
            unprotected.label(),
            100.0 * base_savings,
            m.energy,
            100.0 * prone_fraction,
            100.0 * protected_savings
        );
        rows.push(json!({
            "benchmark": bench.name(),
            "unprotected_vr": unprotected.label(),
            "unprotected_savings": base_savings,
            "prone_fraction": prone_fraction,
            "protected_energy": m.energy,
            "protected_savings": protected_savings,
            "extra_savings": protected_savings - base_savings,
        }));
    }
    let _ = writeln!(
        text,
        "(paper: AVM-guided prevention yields up to ~20% extra energy savings)"
    );
    Ok(Report {
        id: "mitigation",
        json: json!({ "rows": rows }),
        text,
    })
}

/// Section IV.C.1: the DA model's calibrated fixed error ratios.
pub fn da_calibration(arts: &Artifacts) -> Result<Report, TeiError> {
    let cal = arts.da_calibration()?;
    let mut text = String::from("VR     fixed-ER   (paper: VR15 1e-3, VR20 1e-2)\n");
    let mut rows = Vec::new();
    for (vr, er) in &cal.er {
        let _ = writeln!(text, "{:5} {er:10.2e}", vr.label());
        rows.push(json!({ "vr": vr.label(), "er": er }));
    }
    let n = stats::sample_size(0.03, 0.95)?;
    let _ = writeln!(
        text,
        "statistical sample size at 3%/95%: {n} runs (paper: 1068)"
    );
    Ok(Report {
        id: "da-calibration",
        json: json!({ "rows": rows, "sample_size": n }),
        text,
    })
}
