//! Environment-tunable experiment sizing.

use crate::error::TeiError;
use std::collections::BTreeSet;
use std::sync::Mutex;
use std::sync::OnceLock;

/// Knob names already warned about (one stderr line per knob per
/// process, so a sharded campaign does not spam 16 copies).
fn warned() -> &'static Mutex<BTreeSet<String>> {
    static WARNED: OnceLock<Mutex<BTreeSet<String>>> = OnceLock::new();
    WARNED.get_or_init(|| Mutex::new(BTreeSet::new()))
}

pub(crate) fn warn_once(name: &str, detail: &str) {
    let mut seen = match warned().lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    if seen.insert(name.to_string()) {
        eprintln!("warning: ignoring {name}: {detail}");
    }
}

#[cfg(test)]
pub(crate) fn warned_knobs() -> BTreeSet<String> {
    match warned().lock() {
        Ok(g) => g.clone(),
        Err(p) => p.into_inner().clone(),
    }
}

/// Read a `usize` from the environment with a default. A set-but-
/// malformed value falls back to the default *and* warns once to stderr —
/// a silently ignored `TEI_THREADS=abc` would otherwise masquerade as a
/// deliberate setting for an entire multi-hour sweep.
pub fn env_usize(name: &str, default: usize) -> usize {
    match std::env::var(name) {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) => n,
            Err(_) => {
                warn_once(name, &format!("unparsable value {v:?}, using {default}"));
                default
            }
        },
        Err(std::env::VarError::NotPresent) => default,
        Err(std::env::VarError::NotUnicode(_)) => {
            warn_once(name, &format!("non-unicode value, using {default}"));
            default
        }
    }
}

/// True when `TEI_FULL=1` selects paper-scale experiment sizes.
pub fn full_scale() -> bool {
    std::env::var("TEI_FULL").is_ok_and(|v| v == "1")
}

/// Injection runs per (benchmark, model, VR) cell. Paper: 1068 (3 % margin,
/// 95 % confidence); default scaled down for laptop runtimes. Override with
/// `TEI_RUNS`.
pub fn default_runs() -> usize {
    let fallback = if full_scale() { 1068 } else { 120 };
    env_usize("TEI_RUNS", fallback)
}

/// Operand pairs per instruction type for model development DTA. Paper: 1 M
/// per type; default scaled down. Override with `TEI_DTA_SAMPLES`.
pub fn default_dta_samples() -> usize {
    let fallback = if full_scale() { 1_000_000 } else { 20_000 };
    env_usize("TEI_DTA_SAMPLES", fallback)
}

/// Golden-run checkpoint spacing in dynamic FP operations for the
/// fork-replay campaign engine. 0 selects the recorder's auto policy
/// (a dense initial interval with adaptive thinning under a fixed
/// snapshot cap). Spacing is a pure performance knob — campaign outcome
/// tallies are identical for every value. Override with
/// `TEI_CHECKPOINT_INTERVAL`.
pub fn default_checkpoint_interval() -> u64 {
    env_usize("TEI_CHECKPOINT_INTERVAL", 0) as u64
}

/// Worker threads for sharded DTA campaigns and per-op model building.
/// Defaults to all available cores; override with `TEI_THREADS` (set it
/// to 1 for fully serial execution — results are identical either way).
pub fn default_threads() -> usize {
    let fallback = std::thread::available_parallelism().map_or(4, |n| n.get());
    env_usize("TEI_THREADS", fallback).max(1)
}

/// Supported window lane widths (`u64` words per net) of the bit-sliced
/// DTA kernel — each word carries 64 input vectors.
pub const SUPPORTED_LANES: [usize; 3] = [1, 4, 8];

/// Window lane words for the bit-sliced DTA kernel: 1, 4, or 8 `u64`s
/// per net (64 / 256 / 512 input vectors per window). A pure throughput
/// knob — campaign statistics are bit-identical at every width.
/// `None` (the default, also spelled `TEI_LANES=auto`) lets the
/// campaign pick the measured-best width for the engine backend that
/// actually runs (see [`crate::dev::resolve_lanes`]); `TEI_LANES=<n>`
/// forces a width. Unsupported widths warn once and fall back to auto.
pub fn default_lanes() -> Option<usize> {
    let raw = match std::env::var("TEI_LANES") {
        Ok(v) => v,
        Err(std::env::VarError::NotPresent) => return None,
        Err(std::env::VarError::NotUnicode(_)) => {
            warn_once("TEI_LANES", "non-unicode value, using auto");
            return None;
        }
    };
    let raw = raw.trim();
    if raw == "auto" {
        return None;
    }
    match raw.parse::<usize>() {
        Ok(lanes) if SUPPORTED_LANES.contains(&lanes) => Some(lanes),
        Ok(lanes) => {
            warn_once(
                "TEI_LANES",
                &format!("unsupported lane width {lanes} (supported: 1, 4, 8, auto), using auto"),
            );
            None
        }
        Err(_) => {
            warn_once(
                "TEI_LANES",
                &format!("unparsable value {raw:?}, using auto"),
            );
            None
        }
    }
}

/// Arrival-engine backend for DTA campaigns (see
/// [`crate::dev::KernelBackend`]): `auto` picks the netlist-specialized
/// generated kernel when a fresh one exists for the unit and falls back
/// to the interpreter otherwise; `interp` forces the interpreter;
/// `codegen` *requires* the generated kernel. A pure throughput knob —
/// campaign statistics are bit-identical across backends. Override with
/// `TEI_KERNEL`. Unrecognized values warn once and fall back to `auto`.
pub fn default_backend() -> crate::dev::KernelBackend {
    use crate::dev::KernelBackend;
    match std::env::var("TEI_KERNEL") {
        Ok(v) => match v.trim() {
            "auto" => KernelBackend::Auto,
            "interp" => KernelBackend::Interpreter,
            "codegen" => KernelBackend::Generated,
            other => {
                warn_once(
                    "TEI_KERNEL",
                    &format!(
                        "unknown backend {other:?} (supported: auto, interp, codegen), using auto"
                    ),
                );
                KernelBackend::Auto
            }
        },
        Err(std::env::VarError::NotPresent) => KernelBackend::Auto,
        Err(std::env::VarError::NotUnicode(_)) => {
            warn_once("TEI_KERNEL", "non-unicode value, using auto");
            KernelBackend::Auto
        }
    }
}

/// Bounds for `TEI_FABRIC_TICK` (milliseconds): below 10 ms the tick
/// thread busy-spins, above a minute the fabric's liveness machinery
/// (lease expiry, heartbeat checks, child reaping) is effectively off.
pub const FABRIC_TICK_RANGE_MS: (usize, usize) = (10, 60_000);

/// Hung-worker lease expiry backstop for the campaign fabric. Heartbeat
/// dead-peer detection catches stopped workers in seconds; this is the
/// last-resort demotion for a worker that is alive and heartbeating but
/// stuck inside a lease. Override with `TEI_LEASE_TIMEOUT` (seconds, ≥1);
/// the `--lease-timeout-s` CLI flag wins over the env knob.
pub fn default_lease_timeout() -> std::time::Duration {
    let secs = env_usize("TEI_LEASE_TIMEOUT", 600);
    if secs == 0 {
        warn_once("TEI_LEASE_TIMEOUT", "0 disables nothing; using 600 s");
        return std::time::Duration::from_secs(600);
    }
    std::time::Duration::from_secs(secs as u64)
}

/// Coordinator scheduler tick: lease expiry, heartbeat staleness checks,
/// and dead-child reaping all run on this cadence. Override with
/// `TEI_FABRIC_TICK` (milliseconds, within [`FABRIC_TICK_RANGE_MS`]);
/// out-of-range values warn once and fall back to 200 ms.
pub fn default_fabric_tick() -> std::time::Duration {
    let ms = env_usize("TEI_FABRIC_TICK", 200);
    let (lo, hi) = FABRIC_TICK_RANGE_MS;
    if !(lo..=hi).contains(&ms) {
        warn_once(
            "TEI_FABRIC_TICK",
            &format!("{ms} ms is outside [{lo}, {hi}]; using 200 ms"),
        );
        return std::time::Duration::from_millis(200);
    }
    std::time::Duration::from_millis(ms as u64)
}

/// Directory for durable campaign journals. Override with
/// `TEI_JOURNAL_DIR`; defaults to `journal/`.
pub fn default_journal_dir() -> std::path::PathBuf {
    std::env::var_os("TEI_JOURNAL_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("journal"))
}

/// Upper sanity bound for `TEI_THREADS`: beyond this the value is a typo,
/// not a machine.
const MAX_THREADS: usize = 4096;

fn validate_knob(name: &str, check: impl Fn(usize) -> Result<(), String>) -> Result<(), TeiError> {
    let raw = match std::env::var(name) {
        Ok(v) => v,
        Err(_) => return Ok(()), // unset (or non-unicode → default path warns)
    };
    let parsed = raw.trim().parse::<usize>().map_err(|_| TeiError::Config {
        knob: name.to_string(),
        reason: format!("unparsable value {raw:?}"),
    })?;
    check(parsed).map_err(|reason| TeiError::Config {
        knob: name.to_string(),
        reason,
    })
}

/// Validate the campaign-relevant env knobs **at campaign start**: a
/// durable sweep refuses to launch on a malformed `TEI_THREADS` or
/// `TEI_CHECKPOINT_INTERVAL` rather than silently running with defaults
/// for hours.
///
/// # Errors
///
/// [`TeiError::Config`] naming the offending knob.
pub fn validate_env() -> Result<(), TeiError> {
    validate_knob("TEI_THREADS", |n| {
        if n == 0 {
            Err("must be at least 1".into())
        } else if n > MAX_THREADS {
            Err(format!("{n} exceeds the sanity cap of {MAX_THREADS}"))
        } else {
            Ok(())
        }
    })?;
    validate_knob("TEI_CHECKPOINT_INTERVAL", |_| Ok(()))?;
    if let Ok(v) = std::env::var("TEI_LANES") {
        let v = v.trim();
        if v != "auto" {
            let parsed = v.parse::<usize>().map_err(|_| TeiError::Config {
                knob: "TEI_LANES".to_string(),
                reason: format!("unparsable value {v:?} (supported: 1, 4, 8, auto)"),
            })?;
            if !SUPPORTED_LANES.contains(&parsed) {
                return Err(TeiError::Config {
                    knob: "TEI_LANES".to_string(),
                    reason: format!("unsupported lane width {parsed} (supported: 1, 4, 8, auto)"),
                });
            }
        }
    }
    validate_knob("TEI_RUNS", |n| {
        if n == 0 {
            Err("must be at least 1".into())
        } else {
            Ok(())
        }
    })?;
    validate_knob("TEI_LEASE_TIMEOUT", |n| {
        if n == 0 {
            Err("must be at least 1 second".into())
        } else {
            Ok(())
        }
    })?;
    validate_knob("TEI_FABRIC_TICK", |n| {
        let (lo, hi) = FABRIC_TICK_RANGE_MS;
        if (lo..=hi).contains(&n) {
            Ok(())
        } else {
            Err(format!("{n} ms is outside [{lo}, {hi}]"))
        }
    })?;
    if let Ok(v) = std::env::var("TEI_KERNEL") {
        let v = v.trim();
        if !matches!(v, "auto" | "interp" | "codegen") {
            return Err(TeiError::Config {
                knob: "TEI_KERNEL".to_string(),
                reason: format!("unknown backend {v:?} (supported: auto, interp, codegen)"),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_parsing_defaults() {
        assert_eq!(env_usize("TEI_SURELY_UNSET_VAR_12345", 7), 7);
    }

    #[test]
    fn malformed_env_warns_once_and_falls_back() {
        // Process-wide env mutation: use a knob name no other test reads.
        std::env::set_var("TEI_TEST_BAD_KNOB", "abc");
        assert_eq!(env_usize("TEI_TEST_BAD_KNOB", 3), 3);
        assert_eq!(env_usize("TEI_TEST_BAD_KNOB", 3), 3);
        assert!(warned_knobs().contains("TEI_TEST_BAD_KNOB"));
        std::env::remove_var("TEI_TEST_BAD_KNOB");
    }

    // Env mutation is process-wide, so every validate_env scenario
    // lives in this one test (parallel test threads would otherwise
    // observe each other's knob values mid-assertion).
    #[test]
    fn validate_env_rejects_bad_knobs() {
        std::env::set_var("TEI_THREADS", "0");
        let err = validate_env().unwrap_err();
        assert!(err.to_string().contains("TEI_THREADS"));
        std::env::set_var("TEI_THREADS", "not-a-number");
        assert!(validate_env().is_err());
        std::env::remove_var("TEI_THREADS");
        std::env::set_var("TEI_LANES", "3");
        let err = validate_env().unwrap_err();
        assert!(err.to_string().contains("TEI_LANES"));
        // The non-validating read warns and falls back instead.
        assert_eq!(default_lanes(), None);
        assert!(warned_knobs().contains("TEI_LANES"));
        std::env::set_var("TEI_LANES", "8");
        assert_eq!(default_lanes(), Some(8));
        assert!(validate_env().is_ok());
        std::env::set_var("TEI_LANES", "auto");
        assert_eq!(default_lanes(), None);
        assert!(validate_env().is_ok());
        std::env::remove_var("TEI_LANES");
        assert_eq!(default_lanes(), None);
        assert!(validate_env().is_ok());
        std::env::set_var("TEI_KERNEL", "vectorized");
        let err = validate_env().unwrap_err();
        assert!(err.to_string().contains("TEI_KERNEL"));
        // The non-validating read warns once and falls back to auto.
        assert_eq!(default_backend(), crate::dev::KernelBackend::Auto);
        assert!(warned_knobs().contains("TEI_KERNEL"));
        std::env::set_var("TEI_KERNEL", "codegen");
        assert_eq!(default_backend(), crate::dev::KernelBackend::Generated);
        assert!(validate_env().is_ok());
        std::env::remove_var("TEI_KERNEL");
        assert_eq!(default_backend(), crate::dev::KernelBackend::Auto);
        assert!(validate_env().is_ok());
        std::env::set_var("TEI_LEASE_TIMEOUT", "0");
        let err = validate_env().unwrap_err();
        assert!(err.to_string().contains("TEI_LEASE_TIMEOUT"));
        // The non-validating read warns once and keeps the default.
        assert_eq!(default_lease_timeout(), std::time::Duration::from_secs(600));
        assert!(warned_knobs().contains("TEI_LEASE_TIMEOUT"));
        std::env::set_var("TEI_LEASE_TIMEOUT", "5");
        assert_eq!(default_lease_timeout(), std::time::Duration::from_secs(5));
        assert!(validate_env().is_ok());
        std::env::remove_var("TEI_LEASE_TIMEOUT");
        std::env::set_var("TEI_FABRIC_TICK", "1");
        let err = validate_env().unwrap_err();
        assert!(err.to_string().contains("TEI_FABRIC_TICK"));
        assert_eq!(default_fabric_tick(), std::time::Duration::from_millis(200));
        assert!(warned_knobs().contains("TEI_FABRIC_TICK"));
        std::env::set_var("TEI_FABRIC_TICK", "50");
        assert_eq!(default_fabric_tick(), std::time::Duration::from_millis(50));
        assert!(validate_env().is_ok());
        std::env::remove_var("TEI_FABRIC_TICK");
        assert_eq!(default_fabric_tick(), std::time::Duration::from_millis(200));
        assert!(validate_env().is_ok());
    }
}
