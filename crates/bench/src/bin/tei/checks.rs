//! The static-verification subcommands: `lint` (structural netlist
//! lints) and `codegen` (generated-kernel staleness + equivalence).

use crate::cli::Flags;
use std::path::PathBuf;
use tei_netlist::{lint_module, lint_netlist, parse_verilog, to_verilog, CellLibrary};

const CODEGEN_USAGE: &str = "usage: tei codegen --check [<tag>...] | --emit <dir> [<tag>...]
  --check                  check each shipped kernel is fresh and bit-identical
                           to the interpreter (default: every unit)
  --emit <dir>             re-emit the specialized kernel sources into <dir>";

const LINT_USAGE: &str = "usage: tei lint --fpu | <file.v>...
  --fpu                    lint the generated FPU bank instead of files";

/// Run the codegen subcommand; returns whether every unit came back clean.
pub(crate) fn codegen(args: &[String]) -> bool {
    let f = Flags::parse("codegen", CODEGEN_USAGE, args, true);
    let emit_dir: Option<PathBuf> = f.get("--emit");
    if f.has("--check") == emit_dir.is_some() {
        f.fail("give exactly one of --check and --emit");
    }
    let tags = &f.positional;
    let (bank, spec) = tei_core::dev::default_bank();
    let all_tags: Vec<&str> = bank.iter().map(|u| u.tag()).collect();
    for tag in tags {
        if !all_tags.contains(&tag.as_str()) {
            f.fail(format!(
                "unknown unit tag {tag:?} (known: {})",
                all_tags.join(", ")
            ));
        }
    }
    let mut clean = true;
    for unit in bank.iter() {
        if !tags.is_empty() && !tags.iter().any(|t| t == unit.tag()) {
            continue;
        }
        clean &= match &emit_dir {
            Some(dir) => emit_unit(unit, dir),
            None => check_unit(unit, spec.clk),
        };
    }
    clean
}

/// Re-emit one unit's specialized source into `dir`.
fn emit_unit(unit: &tei_fpu::FpuUnit, dir: &std::path::Path) -> bool {
    let module = unit.tag().replace('-', "_");
    let levels = unit.dta_netlist().levelize();
    let keep: Vec<u32> = unit
        .result_port()
        .iter()
        .map(|n| n.index() as u32)
        .collect();
    let source = tei_timing::emit_program(unit.dta_compiled(), &levels, &module, unit.tag(), &keep);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("tei: cannot create {}: {e}", dir.display());
        return false;
    }
    let path = dir.join(format!("{module}.rs"));
    match std::fs::write(&path, &source) {
        Ok(()) => {
            println!("{}: emitted {}", unit.tag(), path.display());
            true
        }
        Err(e) => {
            eprintln!("tei: cannot write {}: {e}", path.display());
            false
        }
    }
}

/// Verify one unit's shipped kernel: registered, fingerprint-fresh
/// against the freshly regenerated netlist, and bit-identical to the
/// interpreter over a fixed-seed operand batch at the default width.
fn check_unit(unit: &tei_fpu::FpuUnit, clk: f64) -> bool {
    use tei_core::dev::{dta_campaign, random_operand_pairs, DtaTuning, KernelBackend};
    use tei_timing::VoltageReduction;

    let fingerprint = unit.dta_compiled().fingerprint();
    let entry = match tei_kernels::registry().entry_for_tag(unit.tag()) {
        Some(e) => e,
        None => {
            println!("{}: STALE — no generated kernel registered", unit.tag());
            return false;
        }
    };
    if entry.fingerprint != fingerprint {
        println!(
            "{}: STALE — shipped kernel fingerprint {:#018x} != regenerated {:#018x} \
             (rebuild tei-kernels)",
            unit.tag(),
            entry.fingerprint,
            fingerprint
        );
        return false;
    }
    let levels = [VoltageReduction::VR15, VoltageReduction::VR20];
    let pairs = random_operand_pairs(unit.op(), 600, 0x0c0d_e9e4);
    let run = |backend: KernelBackend| {
        let tuning = DtaTuning {
            backend,
            ..DtaTuning::default()
        };
        dta_campaign(unit, &pairs, clk, &levels, 1, tuning)
            .map(|stats| serde_json::to_string(&stats).expect("stats serialize"))
    };
    match (
        run(KernelBackend::Interpreter),
        run(KernelBackend::Generated),
    ) {
        (Ok(interp), Ok(generated)) if interp == generated => {
            println!(
                "{}: fresh ({:#018x}), {} transitions bit-identical to interpreter",
                unit.tag(),
                fingerprint,
                pairs.len() - 1
            );
            true
        }
        (Ok(_), Ok(_)) => {
            println!(
                "{}: MISMATCH — generated kernel diverged from interpreter",
                unit.tag()
            );
            false
        }
        (Err(e), _) | (_, Err(e)) => {
            println!("{}: ERROR — {e}", unit.tag());
            false
        }
    }
}

/// Run the lint subcommand; returns whether every design came back clean.
pub(crate) fn lint(args: &[String]) -> bool {
    let f = Flags::parse("lint", LINT_USAGE, args, true);
    if f.has("--fpu") {
        if !f.positional.is_empty() {
            f.fail("--fpu takes no file arguments");
        }
        return lint_fpu_bank();
    }
    if f.positional.is_empty() {
        f.fail("lint needs --fpu or at least one Verilog file");
    }
    let lib = CellLibrary::nangate45_like();
    let mut clean = true;
    for path in &f.positional {
        let src = match std::fs::read_to_string(path) {
            Ok(src) => src,
            Err(e) => {
                eprintln!("tei: cannot read {path}: {e}");
                clean = false;
                continue;
            }
        };
        let module = match parse_verilog(&src) {
            Ok(module) => module,
            Err(e) => {
                eprintln!("tei: {path}: {e}");
                clean = false;
                continue;
            }
        };
        clean &= report(path, &lint_module(&module, &lib));
    }
    clean
}

/// Lint the generated FPU bank: the functional and DTA netlists of every
/// unit, plus an export → parse → module-lint round-trip of the first
/// unit to cover the Verilog path end to end.
fn lint_fpu_bank() -> bool {
    let (bank, _) = tei_core::dev::default_bank();
    let mut clean = true;
    for unit in bank.iter() {
        clean &= report(unit.tag(), &lint_netlist(unit.netlist()));
        let dta = unit.dta_netlist();
        clean &= report(&format!("{} (DTA)", unit.tag()), &lint_netlist(&dta));
    }
    if let Some(unit) = bank.iter().next() {
        let src = to_verilog(unit.netlist());
        match parse_verilog(&src) {
            Ok(module) => {
                let diags = lint_module(&module, unit.netlist().library());
                clean &= report(&format!("{} (round-trip)", unit.tag()), &diags);
            }
            Err(e) => {
                eprintln!("tei: {} round-trip failed to parse: {e}", unit.tag());
                clean = false;
            }
        }
    }
    clean
}

/// Print one design's diagnostics; returns whether it was clean.
fn report(design: &str, diags: &[tei_netlist::LintDiagnostic]) -> bool {
    if diags.is_empty() {
        println!("{design}: clean");
        return true;
    }
    println!(
        "{design}: {} finding{}",
        diags.len(),
        if diags.len() == 1 { "" } else { "s" }
    );
    for d in diags {
        println!("  {d}");
    }
    false
}
