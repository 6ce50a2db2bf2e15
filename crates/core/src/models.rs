//! The three timing-error injection models of the paper's Table I:
//! data-agnostic (DA), instruction-aware (IA), and the proposed
//! instruction- and workload-aware (WA) model.

// Orchestration must degrade to typed errors, never panic mid-sweep
// (clippy.toml bans the panicking extractors here).
#![deny(clippy::disallowed_methods)]

use crate::dev::{
    dta_campaign, per_op_parallel, random_operand_pairs, DaCalibration, DtaTuning, OpErrorStats,
    TraceSet,
};
use crate::error::TeiError;
use rand::Rng;
use serde::{Deserialize, Serialize};
use tei_fpu::{FpuBank, FpuTimingSpec};
use tei_softfloat::FpOp;
use tei_timing::VoltageReduction;

/// A timing-error injection model at a fixed voltage-reduction level:
/// per-instruction error probabilities plus a bitmask sampler.
pub trait InjectionModel {
    /// Model family name (`DA-model`, `IA-model`, `WA-model`).
    fn name(&self) -> &'static str;

    /// The modeled voltage-reduction level.
    fn vr(&self) -> VoltageReduction;

    /// Probability that one dynamic instance of `op` suffers a timing error.
    fn error_ratio(&self, op: FpOp) -> f64;

    /// Draw a (non-zero) destination-register error bitmask for `op`,
    /// given that an error occurs.
    fn sample_mask(&self, op: FpOp, rng: &mut dyn rand::RngCore) -> u64;
}

/// Model family tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ModelKind {
    /// Data-agnostic fixed-probability model.
    Da,
    /// Instruction-aware statistical model.
    Ia,
    /// Instruction- and workload-aware model (the paper's proposal).
    Wa,
}

impl ModelKind {
    /// All three, paper order.
    pub fn all() -> [ModelKind; 3] {
        [ModelKind::Da, ModelKind::Ia, ModelKind::Wa]
    }

    /// Paper-style label.
    pub fn label(self) -> &'static str {
        match self {
            ModelKind::Da => "DA-model",
            ModelKind::Ia => "IA-model",
            ModelKind::Wa => "WA-model",
        }
    }
}

// ---------------------------------------------------------------------
// DA model
// ---------------------------------------------------------------------

/// Data-agnostic model: one fixed error ratio for every instruction at a
/// given voltage, single uniformly-placed bit flip (Section II.B).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DaModel {
    vr: VoltageReduction,
    er: f64,
}

impl DaModel {
    /// Build from a calibration (Monte-Carlo DTA over a benchmark mix).
    ///
    /// # Errors
    ///
    /// [`TeiError::MissingVrLevel`] naming the level when the calibration
    /// does not contain it.
    pub fn from_calibration(cal: &DaCalibration, vr: VoltageReduction) -> Result<Self, TeiError> {
        let er = cal
            .er
            .iter()
            .find(|(v, _)| *v == vr)
            .map(|&(_, e)| e)
            .ok_or_else(|| TeiError::MissingVrLevel {
                vr: vr.label(),
                context: "DA calibration",
            })?;
        Ok(DaModel { vr, er })
    }

    /// Build directly from a fixed error ratio (e.g. the paper's published
    /// 1e-3 @ VR15 and 1e-2 @ VR20).
    pub fn from_fixed(vr: VoltageReduction, er: f64) -> Self {
        DaModel { vr, er }
    }

    /// The fixed error ratio.
    pub fn fixed_er(&self) -> f64 {
        self.er
    }
}

impl InjectionModel for DaModel {
    fn name(&self) -> &'static str {
        "DA-model"
    }

    fn vr(&self) -> VoltageReduction {
        self.vr
    }

    fn error_ratio(&self, _op: FpOp) -> f64 {
        self.er
    }

    fn sample_mask(&self, op: FpOp, rng: &mut dyn rand::RngCore) -> u64 {
        // Single uniformly-selected bit of the destination register.
        1u64 << rng.gen_range(0..op.result_bits())
    }
}

// ---------------------------------------------------------------------
// Statistical (IA / WA) models
// ---------------------------------------------------------------------

/// How a statistical model turns its DTA statistics into masks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum MaskSampling {
    /// Draw from the library of empirically observed bitmasks (captures
    /// correlated multi-bit flips — the default, and the paper's method).
    #[default]
    Empirical,
    /// Draw each bit independently from its BER (the ablation variant).
    IndependentBits,
}

/// Per-operation statistics shared by the IA and WA models.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StatModel {
    kind: ModelKind,
    vr: VoltageReduction,
    sampling: MaskSampling,
    per_op: Vec<OpStats>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct OpStats {
    error_ratio: f64,
    /// Conditional per-bit flip probability given an error (for the
    /// independent-bit sampler) — `bit_errors / faulty`.
    cond_bits: Vec<f64>,
    masks: Vec<u64>,
    /// Unconditional per-bit error ratios (reported as Figures 7/8).
    ber: Vec<f64>,
}

impl StatModel {
    // Documented invariant: the public constructors above pass a single
    // VR level down to every per-op campaign, so mixed-VR stats here are
    // a caller bug inside this module, not an operational failure.
    fn from_stats(
        kind: ModelKind,
        vr: VoltageReduction,
        sampling: MaskSampling,
        stats: &[OpErrorStats],
    ) -> Self {
        let mut per_op: Vec<OpStats> = FpOp::all()
            .iter()
            .map(|op| OpStats {
                error_ratio: 0.0,
                cond_bits: vec![0.0; op.result_bits() as usize],
                masks: Vec::new(),
                ber: vec![0.0; op.result_bits() as usize],
            })
            .collect();
        for s in stats {
            assert_eq!(s.vr, vr, "mixed VR levels in model construction");
            let slot = &mut per_op[s.op.index()];
            slot.error_ratio = s.error_ratio();
            slot.ber = s.ber();
            slot.cond_bits = s
                .bit_errors
                .iter()
                .map(|&c| {
                    if s.faulty == 0 {
                        0.0
                    } else {
                        c as f64 / s.faulty as f64
                    }
                })
                .collect();
            slot.masks = s.masks.clone();
        }
        StatModel {
            kind,
            vr,
            sampling,
            per_op,
        }
    }

    /// Build a model directly from single-level campaign statistics the
    /// caller gathered itself — the continuous-Vdd sweep (`tei sweep`)
    /// uses this to turn one re-thresholded DTA pass per interpolated
    /// voltage into an injectable model without re-running the circuit.
    ///
    /// # Errors
    ///
    /// [`TeiError::EmptyDta`] when `stats` is empty or contains a level
    /// other than `vr` (the per-op slot would silently stay zero).
    pub fn from_campaign_stats(
        kind: ModelKind,
        vr: VoltageReduction,
        sampling: MaskSampling,
        stats: &[OpErrorStats],
    ) -> Result<Self, TeiError> {
        if stats.is_empty() {
            return Err(TeiError::EmptyDta {
                op: "<none>".to_string(),
                vr: vr.label(),
            });
        }
        if let Some(bad) = stats.iter().find(|s| s.vr != vr) {
            return Err(TeiError::EmptyDta {
                op: bad.op.to_string(),
                vr: vr.label(),
            });
        }
        Ok(Self::from_stats(kind, vr, sampling, stats))
    }

    /// Build the instruction-aware model: DTA over uniformly random
    /// operands per instruction type (paper Section IV.C.2). Per-op
    /// campaigns are distributed over worker threads; the stats come
    /// back in op order, so the model is thread-count independent.
    ///
    /// # Errors
    ///
    /// [`TeiError::EmptyDta`] when a per-op campaign yields no stats for
    /// the requested VR level, [`TeiError::WorkerPool`] if the worker
    /// pool fails.
    pub fn instruction_aware(
        bank: &FpuBank,
        spec: &FpuTimingSpec,
        vr: VoltageReduction,
        samples_per_op: usize,
        seed: u64,
    ) -> Result<Self, TeiError> {
        let tuning = DtaTuning::default();
        let stats: Vec<OpErrorStats> = per_op_parallel(|op| {
            let pairs = random_operand_pairs(op, samples_per_op, seed);
            dta_campaign(bank.unit(op), &pairs, spec.clk, &[vr], 1, tuning)?
                .pop()
                .ok_or_else(|| TeiError::EmptyDta {
                    op: op.to_string(),
                    vr: vr.label(),
                })
        })?
        .into_iter()
        .collect::<Result<_, _>>()?;
        #[cfg(feature = "sanitize-arrivals")]
        Self::sanitize_masks_against_oracle(bank, spec, &stats);
        Ok(Self::from_stats(
            ModelKind::Ia,
            vr,
            MaskSampling::default(),
            &stats,
        ))
    }

    /// Cross-layer sanitizer: no error mask a campaign observed may
    /// touch an output bit the static slack oracle proves safe — the
    /// model layer's independent restatement of the pruning soundness
    /// argument (see DESIGN.md, "Static verification").
    #[cfg(feature = "sanitize-arrivals")]
    fn sanitize_masks_against_oracle(bank: &FpuBank, spec: &FpuTimingSpec, stats: &[OpErrorStats]) {
        use tei_timing::SlackOracle;
        for s in stats {
            let unit = bank.unit(s.op);
            let compiled = unit.dta_compiled();
            let oracle = SlackOracle::from_bounds(
                compiled.static_bounds().to_vec(),
                unit.result_port().to_vec(),
            );
            let safe = oracle.safe_bits_at(spec.clk, s.vr.derating_factor());
            let mut safe_mask = 0u64;
            for bit in 0..safe.len() {
                if safe.is_safe(bit) {
                    safe_mask |= 1 << bit;
                }
            }
            for &m in &s.masks {
                assert_eq!(
                    m & safe_mask,
                    0,
                    "sanitize-arrivals: {} mask {m:#x} touches statically-safe bits",
                    s.op
                );
            }
        }
    }

    /// Build the workload-aware model: DTA over the operand trace of the
    /// target benchmark (paper Section IV.C.3). Parallelized like
    /// [`StatModel::instruction_aware`].
    ///
    /// # Errors
    ///
    /// See [`StatModel::instruction_aware`].
    pub fn workload_aware(
        bank: &FpuBank,
        spec: &FpuTimingSpec,
        vr: VoltageReduction,
        trace: &TraceSet,
        per_op_cap: usize,
    ) -> Result<Self, TeiError> {
        let tuning = DtaTuning::default();
        let stats: Vec<OpErrorStats> = per_op_parallel(|op| {
            let t = trace.of(op);
            let take = t.len().min(per_op_cap);
            dta_campaign(bank.unit(op), &t[..take], spec.clk, &[vr], 1, tuning)?
                .pop()
                .ok_or_else(|| TeiError::EmptyDta {
                    op: op.to_string(),
                    vr: vr.label(),
                })
        })?
        .into_iter()
        .collect::<Result<_, _>>()?;
        #[cfg(feature = "sanitize-arrivals")]
        Self::sanitize_masks_against_oracle(bank, spec, &stats);
        Ok(Self::from_stats(
            ModelKind::Wa,
            vr,
            MaskSampling::default(),
            &stats,
        ))
    }

    /// Switch the mask-sampling strategy (ablation).
    pub fn with_sampling(mut self, sampling: MaskSampling) -> Self {
        self.sampling = sampling;
        self
    }

    /// The per-bit error ratios for `op` (Figures 7 and 8).
    pub fn ber(&self, op: FpOp) -> &[f64] {
        &self.per_op[op.index()].ber
    }
}

impl InjectionModel for StatModel {
    fn name(&self) -> &'static str {
        self.kind.label()
    }

    fn vr(&self) -> VoltageReduction {
        self.vr
    }

    fn error_ratio(&self, op: FpOp) -> f64 {
        self.per_op[op.index()].error_ratio
    }

    fn sample_mask(&self, op: FpOp, rng: &mut dyn rand::RngCore) -> u64 {
        let s = &self.per_op[op.index()];
        match self.sampling {
            MaskSampling::Empirical => {
                if s.masks.is_empty() {
                    // Model says errors happen but holds no mask (can only
                    // occur with truncated libraries): fall back to one bit.
                    return 1u64 << rng.gen_range(0..op.result_bits());
                }
                s.masks[rng.gen_range(0..s.masks.len())]
            }
            MaskSampling::IndependentBits => {
                let mut mask = 0u64;
                for (bit, &p) in s.cond_bits.iter().enumerate() {
                    if rng.gen_bool(p.clamp(0.0, 1.0)) {
                        mask |= 1 << bit;
                    }
                }
                if mask == 0 {
                    mask = 1u64 << rng.gen_range(0..op.result_bits());
                }
                mask
            }
        }
    }
}

#[cfg(test)]
mod tests {
    // Tests should panic loudly, not thread errors.
    #![allow(clippy::disallowed_methods)]

    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tei_softfloat::{FpOpKind, Precision};

    #[test]
    fn da_model_is_instruction_agnostic() {
        let m = DaModel::from_fixed(VoltageReduction::VR20, 1e-2);
        let mul = FpOp::new(FpOpKind::Mul, Precision::Double);
        let cvt = FpOp::new(FpOpKind::ItoF, Precision::Single);
        assert_eq!(m.error_ratio(mul), 1e-2);
        assert_eq!(m.error_ratio(cvt), 1e-2);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let mask = m.sample_mask(mul, &mut rng);
            assert_eq!(mask.count_ones(), 1, "DA flips exactly one bit");
        }
        // Single-precision masks stay within 32 bits.
        for _ in 0..100 {
            let mask = m.sample_mask(cvt, &mut rng);
            assert!(mask < (1u64 << 32));
        }
    }

    #[test]
    fn missing_vr_level_is_a_typed_error() {
        let cal = crate::dev::DaCalibration {
            er: vec![(VoltageReduction::VR15, 1e-3)],
        };
        assert!(DaModel::from_calibration(&cal, VoltageReduction::VR15).is_ok());
        let err = DaModel::from_calibration(&cal, VoltageReduction::VR20).unwrap_err();
        match err {
            crate::TeiError::MissingVrLevel { vr, context } => {
                assert_eq!(vr, VoltageReduction::VR20.label());
                assert_eq!(context, "DA calibration");
            }
            other => panic!("expected MissingVrLevel, got {other}"),
        }
    }

    #[test]
    fn model_kind_labels() {
        assert_eq!(ModelKind::Da.label(), "DA-model");
        assert_eq!(ModelKind::Wa.label(), "WA-model");
        assert_eq!(ModelKind::all().len(), 3);
    }
}
