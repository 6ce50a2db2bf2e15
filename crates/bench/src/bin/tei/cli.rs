//! The one flag parser every `tei` subcommand shares.
//!
//! A subcommand's USAGE text is also its flag table: every line whose
//! text starts with `--` declares one flag, and the flag takes a value
//! when its name is followed by a single space and a placeholder
//! (`--runs <n>`) before the two-space gap that opens the description.
//! So a subcommand accepts exactly the flags its USAGE lists. An
//! unknown flag, a missing or malformed value, or a missing required
//! flag prints the USAGE and exits 2 before any work starts.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::str::FromStr;
use tei_core::fabric::ParsedSpec;
use tei_core::CampaignSpec;

/// One subcommand's parsed command line.
pub(crate) struct Flags {
    cmd: &'static str,
    usage: &'static str,
    /// Flags given, with their values (`""` for a switch).
    given: BTreeMap<String, String>,
    /// Arguments that are not flags, in order.
    pub(crate) positional: Vec<String>,
}

/// The flags `usage` declares: `(name, takes a value)`.
pub(crate) fn declared(usage: &str) -> impl Iterator<Item = (&str, bool)> {
    usage.lines().filter_map(|line| {
        let line = line.trim_start();
        if !line.starts_with("--") {
            return None;
        }
        let decl = line.split("  ").next().unwrap_or(line);
        Some(match decl.split_once(' ') {
            Some((name, _)) => (name, true),
            None => (decl, false),
        })
    })
}

impl Flags {
    /// Parse `args` against the flags `usage` declares. `-h`/`--help`
    /// prints the usage and exits 0. Positional arguments are refused
    /// unless `positional` is set.
    pub(crate) fn parse(
        cmd: &'static str,
        usage: &'static str,
        args: &[String],
        positional: bool,
    ) -> Flags {
        let mut flags = Flags {
            cmd,
            usage,
            given: BTreeMap::new(),
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if arg == "-h" || arg == "--help" {
                println!("{usage}");
                std::process::exit(0);
            }
            if !arg.starts_with("--") {
                if !positional {
                    flags.fail(format!("unexpected argument {arg:?}"));
                }
                flags.positional.push(arg.clone());
                continue;
            }
            let Some((name, takes_value)) = declared(usage).find(|(name, _)| name == arg) else {
                flags.fail(format!("unknown flag {arg:?}"));
            };
            let value = if takes_value {
                match it.next() {
                    Some(v) => v.clone(),
                    None => flags.fail(format!("{name} needs a value")),
                }
            } else {
                String::new()
            };
            flags.given.insert(name.to_string(), value);
        }
        flags
    }

    /// Report a usage error and exit 2.
    pub(crate) fn fail(&self, msg: impl Display) -> ! {
        eprintln!("tei {}: {msg}\n{}", self.cmd, self.usage);
        std::process::exit(2);
    }

    /// Whether `flag` was given.
    pub(crate) fn has(&self, flag: &str) -> bool {
        self.given.contains_key(flag)
    }

    /// `flag`'s value through `parse`; a value it rejects is a usage error.
    pub(crate) fn get_with<T>(&self, flag: &str, parse: impl Fn(&str) -> Option<T>) -> Option<T> {
        let value = self.given.get(flag)?;
        Some(parse(value).unwrap_or_else(|| self.fail(format!("bad value {value:?} for {flag}"))))
    }

    /// `flag`'s value, parsed.
    pub(crate) fn get<T: FromStr>(&self, flag: &str) -> Option<T> {
        self.get_with(flag, |v| v.parse().ok())
    }

    /// `flag`'s value, parsed; a missing flag is a usage error.
    pub(crate) fn require<T: FromStr>(&self, flag: &str) -> T {
        self.get(flag)
            .unwrap_or_else(|| self.fail(format!("{flag} is required")))
    }

    /// Overwrite `slot` with `flag`'s parsed value when it was given.
    pub(crate) fn set<T: FromStr>(&self, flag: &str, slot: &mut T) {
        if let Some(v) = self.get(flag) {
            *slot = v;
        }
    }

    /// Apply the campaign-spec flags the usage declares to `spec`, whose
    /// fields hold the subcommand's defaults, and validate the result.
    /// `--benchmark` is required.
    pub(crate) fn spec(&self, mut spec: CampaignSpec) -> (CampaignSpec, ParsedSpec) {
        spec.benchmark = self.require("--benchmark");
        self.set("--model", &mut spec.model);
        self.set("--vr", &mut spec.vr);
        self.set("--scale", &mut spec.scale);
        self.set("--runs", &mut spec.runs);
        self.set("--seed", &mut spec.seed);
        self.set("--timeout-factor", &mut spec.timeout_factor);
        self.set("--threads", &mut spec.threads_per_worker);
        self.set("--throttle-ms", &mut spec.throttle_ms);
        spec.vr.make_ascii_lowercase();
        spec.scale.make_ascii_lowercase();
        match spec.parse() {
            Ok(parsed) => (spec, parsed),
            Err(e) => self.fail(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::declared;

    #[test]
    fn usage_lines_declare_flags_and_their_arity() {
        let usage = "usage: tei x --a <n> [options]
options:
  --runs <n>               runs (default 1)
  --vr vr15|vr20           corner
  --keep-going             go on
                           (--not-a-flag: continuation)
  --chaos-kill-worker <w>:<n>  hook";
        let flags: Vec<(&str, bool)> = declared(usage).collect();
        assert_eq!(
            flags,
            [
                ("--runs", true),
                ("--vr", true),
                ("--keep-going", false),
                ("--chaos-kill-worker", true)
            ]
        );
    }
}
