//! The paper's two toolflow phases (Figure 2): model development
//! (`tei models`), which persists the error models so later runs can
//! reload them without gate-level DTA, and application evaluation
//! (`tei figures`), which regenerates the paper's tables and figures.

use crate::cli::Flags;
use std::path::Path;
use tei_bench::figures::{self, Report};
use tei_bench::Artifacts;
use tei_core::{DaModel, InjectionModel, StatModel, TeiError};
use tei_softfloat::FpOp;
use tei_timing::VoltageReduction;
use tei_workloads::{BenchmarkId, Scale};

const MODELS_USAGE: &str = "usage: tei models develop <dir> | show <file>

develop: run the model-development DTA campaigns (Small inputs; sizing
honours TEI_DTA_SAMPLES and TEI_FULL=1) and save the DA, IA and WA
models of both corners as JSON into <dir>.
show: print a saved model's per-op error ratio and mean BER.";

const FIGURES_USAGE: &str = "usage: tei figures <artifact>... | all

Regenerates the paper's tables and figures: text on stdout, JSON into
results/. Sizing honours TEI_RUNS, TEI_DTA_SAMPLES and TEI_FULL=1.

artifacts: table2 fig4 fig5 fig6 fig7 fig8 da-calibration fig9 fig10 avm mitigation";

/// Every artifact, in the order `all` regenerates them.
const ARTIFACTS: [&str; 11] = [
    "table2",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "da-calibration",
    "fig9",
    "fig10",
    "avm",
    "mitigation",
];

/// `tei models`: develop and save every model, or print a saved one.
pub(crate) fn models(args: &[String]) -> Result<(), TeiError> {
    let f = Flags::parse("models", MODELS_USAGE, args, true);
    match f.positional.as_slice() {
        [action, dir] if action == "develop" => develop(Path::new(dir)),
        [action, file] if action == "show" => show(Path::new(file)),
        _ => f.fail("want develop <dir> or show <file>"),
    }
}

fn develop(dir: &Path) -> Result<(), TeiError> {
    let arts = Artifacts::new(Scale::Small);
    let mut written = 0usize;
    for vr in [VoltageReduction::VR15, VoltageReduction::VR20] {
        let da = arts.da(vr)?;
        save(dir, &format!("da-{}", vr.label()), &da)?;
        written += 1;
        let ia = arts.ia(vr)?;
        save(dir, &format!("ia-{}", vr.label()), &ia)?;
        written += 1;
        for id in BenchmarkId::all() {
            let wa = arts.wa(id, vr)?;
            save(dir, &format!("wa-{}-{}", id.name(), vr.label()), &wa)?;
            written += 1;
        }
    }
    eprintln!("wrote {written} models into {}", dir.display());
    Ok(())
}

fn save<M: serde::Serialize>(dir: &Path, name: &str, model: &M) -> Result<(), TeiError> {
    let path = dir.join(format!("{name}.json"));
    let body = serde_json::to_string_pretty(model).unwrap_or_default();
    tei_bench::write_artifact(&path, body.as_bytes())?;
    eprintln!("  {}", path.display());
    Ok(())
}

fn show(path: &Path) -> Result<(), TeiError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| TeiError::io("read model file", path, e))?;
    // DA models are small ({vr, er}); statistical models carry per-op data.
    if let Ok(m) = serde_json::from_str::<StatModel>(&text) {
        println!("{} at {}", m.name(), m.vr().label());
        println!("{:14} {:>10}  S/E/M mean BER", "op", "ER");
        for op in FpOp::all() {
            let ber = m.ber(op);
            let bits = op.result_bits() as usize;
            let (mut s, mut e, mut mm) = (0.0, 0.0, 0.0);
            let (mut cs, mut ce, mut cm) = (0, 0, 0);
            for (b, &v) in ber.iter().enumerate() {
                let frac = if bits == 64 { 52 } else { 23 };
                let expo = if bits == 64 { 63 } else { 31 };
                if b >= expo {
                    s += v;
                    cs += 1;
                } else if b >= frac {
                    e += v;
                    ce += 1;
                } else {
                    mm += v;
                    cm += 1;
                }
            }
            println!(
                "{:14} {:10.2e}  {:.2e} / {:.2e} / {:.2e}",
                op.to_string(),
                m.error_ratio(op),
                s / cs.max(1) as f64,
                e / ce.max(1) as f64,
                mm / cm.max(1) as f64
            );
        }
    } else if let Ok(m) = serde_json::from_str::<DaModel>(&text) {
        println!(
            "{} at {}: fixed ER {:.3e}",
            m.name(),
            m.vr().label(),
            m.fixed_er()
        );
    } else {
        return Err(TeiError::io(
            "parse model file",
            path,
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "not a saved DA, IA or WA model",
            ),
        ));
    }
    Ok(())
}

/// `tei figures`: regenerate the named artifacts into `results/`.
pub(crate) fn figures(args: &[String]) -> Result<(), TeiError> {
    let f = Flags::parse("figures", FIGURES_USAGE, args, true);
    let mut wanted: Vec<&str> = f.positional.iter().map(String::as_str).collect();
    if wanted.contains(&"all") {
        wanted = ARTIFACTS.to_vec();
    }
    if wanted.is_empty() {
        f.fail("name at least one artifact, or all");
    }
    if let Some(bad) = wanted.iter().find(|w| !ARTIFACTS.contains(w)) {
        f.fail(format!("unknown artifact {bad:?}"));
    }
    let scale = if tei_core::config::full_scale() {
        Scale::Full
    } else {
        Scale::Small
    };
    let arts = Artifacts::new(scale);
    let out_dir = Path::new("results");

    // The campaign sweep backs fig9/fig10/avm/mitigation; run it at most
    // once.
    let needs_campaigns = wanted
        .iter()
        .any(|w| matches!(*w, "fig9" | "fig10" | "avm" | "mitigation"));
    let campaign_results = if needs_campaigns {
        figures::campaigns(&arts)?
    } else {
        Vec::new()
    };

    for w in &wanted {
        let report: Report = match *w {
            "fig4" => figures::fig4(&arts),
            "fig5" => figures::fig5(&arts)?,
            "fig6" => figures::fig6(&arts)?,
            "fig7" => figures::fig7(&arts)?,
            "fig8" => figures::fig8(&arts)?,
            "fig9" => figures::fig9(&campaign_results),
            "fig10" => figures::fig10(&campaign_results),
            "table2" => figures::table2(&arts)?,
            "avm" => figures::avm_analysis(&campaign_results),
            "mitigation" => figures::mitigation(&arts, &campaign_results)?,
            "da-calibration" => figures::da_calibration(&arts)?,
            other => unreachable!("artifact {other:?} passed the ARTIFACTS check"),
        };
        println!("==== {} ====", report.id);
        println!("{}", report.text);
        report.save(out_dir)?;
    }
    eprintln!(
        "regenerated {} artifact(s) into {}",
        wanted.len(),
        out_dir.display()
    );
    Ok(())
}
