//! Toolflow front-end: the `tei` command.
//!
//! The paper's toolflow (see DESIGN.md, §4):
//!
//! * `tei models` — model development: run the DTA campaigns and
//!   persist the DA, IA and WA error models; show a saved model.
//! * `tei figures` — application evaluation: regenerate the paper's
//!   tables and figures into `results/`.
//! * `tei sweep` — AVM as a continuous function of supply voltage.
//!
//! Durable campaigns (see DESIGN.md, "Durable execution" and
//! "Campaign fabric"):
//!
//! * `tei campaign` — one journaled, resumable injection campaign: in
//!   this process, or with `--workers N` lease-partitioned over a
//!   fleet of worker processes; the result is byte-identical either
//!   way.
//! * `tei serve` — resident coordinator: keeps one worker fleet and its
//!   golden/checkpoint caches warm across queued campaigns.
//! * `tei submit` — queue a campaign on a running server and stream its
//!   progress until the merged result arrives.
//! * `tei fabric-worker` — the worker process body the coordinator
//!   spawns (internal; documented for completeness).
//! * `tei chaos` — seeded failpoint-schedule matrix over the fabric
//!   (requires a `--features failpoints` build): every schedule must
//!   end in a result byte-identical to the clean run, or a typed
//!   resumable failure whose resume then matches.
//!
//! Static verification (see DESIGN.md, "Static verification"):
//!
//! * `tei lint` — structural netlist lints over Verilog files or the
//!   generated FPU bank.
//! * `tei codegen` — staleness + interpreter-equivalence checks of the
//!   shipped netlist-specialized kernels, and re-emission of their
//!   sources.
//!
//! Every subcommand parses its flags with [`cli::Flags`] and prints its
//! own flag table under `--help`.
//!
//! Exit codes: 0 clean, 1 findings or failure, 2 usage, 130
//! interrupted (journals retained; re-run to resume).

mod chaos_cli;
mod checks;
mod cli;
mod fabric_cli;
mod sweep_cli;
mod toolflow_cli;

use tei_core::TeiError;

const USAGE: &str = "usage: tei <subcommand> [args]   (tei <subcommand> --help for its flags)

toolflow:
  tei models develop <dir> | show <file>     develop and save, or print, error models
  tei figures <artifact>... | all            regenerate the paper's tables and figures
  tei sweep --benchmark <name> [options]     continuous-Vdd AVM sweep

durable campaigns:
  tei campaign --benchmark <name> [--workers <n>] [options]
                                             one journaled, resumable campaign
  tei serve [options]                        resident coordinator + worker fleet
  tei submit --connect <addr> --benchmark <name> [options]
                                             queue a campaign on a running server
  tei fabric-worker [options]                internal: fleet worker process
  tei chaos --benchmark <name> [options]     seeded failpoint chaos matrix
                                             (needs --features failpoints)

static verification:
  tei lint --fpu | <file.v>...               structural netlist lints
  tei codegen --check [<tag>...]             shipped-kernel staleness + equivalence
  tei codegen --emit <dir> [<tag>...]        re-emit specialized kernel sources";

/// Map a subcommand's outcome to the process exit code convention.
fn exit_code(run: Result<(), TeiError>) -> i32 {
    match run {
        Ok(()) => 0,
        Err(e) if e.is_interrupted() => {
            eprintln!("tei: {e}");
            eprintln!("tei: journals retained; re-run the same command to resume");
            130
        }
        // Typed, resumable failure (disk full): not a corruption, not a
        // bug — journals are intact and a re-run picks up the remainder.
        Err(e) if e.is_resumable() => {
            eprintln!("tei: {e}");
            eprintln!("tei: journals retained; free space and re-run to resume");
            1
        }
        Err(e) => {
            eprintln!("tei: {e}");
            1
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let rest = &args[1..];
    let code = match cmd.as_str() {
        "-h" | "--help" => {
            println!("{USAGE}");
            0
        }
        "lint" => i32::from(!checks::lint(rest)),
        "codegen" => i32::from(!checks::codegen(rest)),
        "models" => exit_code(toolflow_cli::models(rest)),
        "figures" => exit_code(toolflow_cli::figures(rest)),
        "sweep" => exit_code(sweep_cli::sweep(rest)),
        "campaign" => exit_code(fabric_cli::campaign(rest)),
        "serve" => exit_code(fabric_cli::serve(rest)),
        "submit" => exit_code(fabric_cli::submit(rest)),
        "fabric-worker" => exit_code(fabric_cli::worker(rest)),
        "chaos" => exit_code(chaos_cli::chaos(rest)),
        other => {
            eprintln!("tei: unknown subcommand {other:?}\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}
