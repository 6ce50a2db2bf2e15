//! What the program sees and what it runs on: the scrubbed environment,
//! host facts recorded with every ledger, and process memory.

use serde_json::{json, Value};
use std::path::Path;
use std::process::Command;
use tei_core::{config, dev, TeiError};
use tei_fpu::FpuBank;

/// Remove every `TEI_*` variable, so sizing, threads, lanes, backend and
/// failpoints resolve to the same values on every host. Fabric workers
/// inherit this environment. Must run before any thread starts.
pub fn scrub_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("TEI_"))
        .collect();
    for k in &names {
        std::env::remove_var(k);
    }
    names
}

fn first_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Filesystem type of the mount holding `dir`, from `/proc/self/mountinfo`
/// (longest mount point that prefixes the canonical path).
pub fn fs_type(dir: &Path) -> String {
    let Ok(path) = dir.canonicalize() else {
        return "unknown".to_string();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_string();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let (Some(mount), Some(sep)) = (fields.get(4), fields.iter().position(|f| *f == "-"))
        else {
            continue;
        };
        let Some(fstype) = fields.get(sep + 1) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(n, _)| mount.len() > *n) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(_, t)| t)
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> std::ffi::c_int;
}

/// Return free heap memory to the kernel, then reset this process's peak
/// resident set to its current resident set, so the next [`peak_rss_mb`]
/// covers what the following work keeps resident. Without the trim, how
/// much memory freed by the earlier set-ups still counts as resident
/// depends on allocator state. Returns false where the kernel does not
/// support the reset.
pub fn reset_peak_rss() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: glibc's malloc_trim takes no pointers and may be called at
    // any time from any thread; it only releases free heap pages.
    unsafe {
        malloc_trim(0);
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host facts and the DTA engine choices the library resolves for each
/// FPU unit under the scrubbed environment.
pub fn facts(bank: &FpuBank, journal_root: &Path, scrubbed: &[String]) -> Result<Value, TeiError> {
    config::validate_env()?;
    let backend = config::default_backend();
    let units: Vec<Value> = bank
        .iter()
        .map(|u| {
            let fresh = tei_kernels::registry().covers(u);
            let lanes = dev::resolve_lanes(config::default_lanes(), backend, fresh);
            let engine = if matches!(backend, dev::KernelBackend::Auto) && fresh && lanes >= 4 {
                "codegen"
            } else {
                "interp"
            };
            json!({"unit": u.tag(), "lanes": lanes, "engine": engine})
        })
        .collect();
    Ok(json!({
        "nproc": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "cpu_model": cpu_model(),
        "journal_fs": fs_type(journal_root),
        "rustc": first_line("rustc", &["--version"]),
        "commit": first_line("git", &["rev-parse", "HEAD"]),
        "tei_threads_default": config::default_threads(),
        "backend_requested": format!("{backend:?}"),
        "dta_units": units,
        "scrubbed_env": scrubbed,
    }))
}
