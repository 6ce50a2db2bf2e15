//! # tei-bench
//!
//! The experiment harness: one function per table/figure of the paper's
//! evaluation, regenerating the corresponding rows/series from the `tei`
//! toolflow. `tei figures` drives them from the command line and
//! writes machine-readable JSON next to the pretty-printed tables.
//!
//! Experiment sizing honors `TEI_RUNS`, `TEI_DTA_SAMPLES`, and `TEI_FULL=1`
//! (paper-scale); see EXPERIMENTS.md.

pub mod artifacts;
pub mod figures;
pub mod scaling;

pub use artifacts::Artifacts;

/// Write a result artifact: create its directory, then write it
/// atomically with a `.fnv` checksum sidecar
/// ([`tei_core::atomic_write_checksummed`]), so a crash mid-write never
/// leaves a torn file.
///
/// # Errors
///
/// Propagates filesystem errors as [`tei_core::TeiError::Io`].
pub fn write_artifact(path: &std::path::Path, body: &[u8]) -> Result<(), tei_core::TeiError> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| tei_core::TeiError::io("create output directory", dir, e))?;
    }
    tei_core::atomic_write_checksummed(path, body)?;
    Ok(())
}
