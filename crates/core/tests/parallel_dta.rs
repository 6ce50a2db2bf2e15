//! Chunked DTA campaigns must be byte-identical to the serial walk —
//! same counts, same mask-library order, same histograms — regardless
//! of thread count, lane width, or engine backend. Chunk results
//! merge in chunk-index (= transition) order and the mask reservoir is
//! seeded per `(op, vr)` cell, so the JSON encodings compare equal
//! exactly; a reference campaign driven by the interpreted
//! [`ArrivalSim`] over every result bit pins all of them (and the
//! campaigns' safe-bit pruning) to the ground-truth engine.

use std::collections::BTreeMap;
use tei_core::dev::{
    dta_campaign, dta_campaign_sampled, random_operand_pairs, safe_bit_counts, DtaTuning,
    KernelBackend, OpErrorStats,
};
use tei_fpu::{FpuTimingSpec, FpuUnit};
use tei_softfloat::{FpOp, FpOpKind, Precision};
use tei_timing::{ArrivalSim, VoltageReduction};

const LEVELS: [VoltageReduction; 2] = [VoltageReduction::VR15, VoltageReduction::VR20];

/// The d-mul unit has the thick error tail, so campaigns actually fill
/// mask libraries; generate it once for the whole test binary.
fn test_unit() -> (&'static FpuUnit, FpuTimingSpec) {
    use std::sync::OnceLock;
    static UNIT: OnceLock<FpuUnit> = OnceLock::new();
    let spec = FpuTimingSpec::paper_calibrated();
    let unit =
        UNIT.get_or_init(|| FpuUnit::generate(FpOp::new(FpOpKind::Mul, Precision::Double), &spec));
    (unit, spec)
}

/// Ground-truth mini-campaign: walk every transition with the
/// interpreted [`ArrivalSim`] and accumulate the same per-corner
/// statistics the kernel campaigns produce (nominal clamp included),
/// thresholding every result bit — no safe-bit pruning.
/// No reservoir cap is applied — callers keep the pair count under it.
fn sim_reference(
    unit: &FpuUnit,
    pairs: &[(u64, u64)],
    clk: f64,
    levels: &[VoltageReduction],
) -> Vec<OpErrorStats> {
    let nl = unit.dta_netlist();
    let outputs = unit.result_port();
    let mut stats: Vec<OpErrorStats> = levels
        .iter()
        .map(|&vr| OpErrorStats {
            op: unit.op(),
            vr,
            samples: 0,
            faulty: 0,
            bit_errors: vec![0; outputs.len()],
            masks: Vec::new(),
            flip_hist: BTreeMap::new(),
        })
        .collect();
    let mut prev = unit.encode_inputs(pairs[0].0, pairs[0].1);
    for &(a, b) in &pairs[1..] {
        let cur = unit.encode_inputs(a, b);
        let r = ArrivalSim::run(&nl, &prev, &cur);
        for (s, vr) in stats.iter_mut().zip(levels) {
            let k = vr.derating_factor();
            s.samples += 1;
            let mut mask = 0u64;
            for (bit, &net) in outputs.iter().enumerate() {
                if r.settle[net.index()].min(clk) * k > clk {
                    mask |= 1 << bit;
                    s.bit_errors[bit] += 1;
                }
            }
            if mask != 0 {
                s.faulty += 1;
                *s.flip_hist.entry(mask.count_ones() as usize).or_default() += 1;
                s.masks.push(mask);
            }
        }
        prev = cur;
    }
    stats
}

#[test]
fn parallel_campaign_equals_serial_byte_for_byte() {
    let (unit, spec) = test_unit();
    let pairs = random_operand_pairs(unit.op(), 403, 0xd7a_cafe);
    let serial = dta_campaign(unit, &pairs, spec.clk, &LEVELS, 1, DtaTuning::default())
        .expect("serial campaign");
    assert!(
        serial.iter().any(|s| s.faulty > 0),
        "campaign should observe errors for the comparison to be meaningful"
    );
    for threads in [2usize, 3, 8] {
        let parallel = dta_campaign(
            unit,
            &pairs,
            spec.clk,
            &LEVELS,
            threads,
            DtaTuning::default(),
        )
        .expect("parallel campaign");
        assert_eq!(
            serde_json::to_string(&serial).expect("serialize serial"),
            serde_json::to_string(&parallel).expect("serialize parallel"),
            "{threads}-thread campaign diverged from serial"
        );
    }
}

/// The tentpole equivalence matrix: every supported lane width, serial
/// and parallel, on **both** engine backends (interpreted
/// `ArrivalKernel` and the netlist-specialized generated kernel), must
/// reproduce the interpreted `ArrivalSim` reference byte for byte — a
/// 3-way interpreter/codegen/`ArrivalSim` agreement. Under the
/// `sanitize-arrivals` feature the campaign inner loop additionally
/// cross-checks every pruned mask against a full bit scan.
#[test]
fn lane_widths_match_arrival_sim_byte_for_byte() {
    let (unit, spec) = test_unit();
    for seed in [0xd7a_cafeu64, 0x51ced] {
        let pairs = random_operand_pairs(unit.op(), 403, seed);
        let reference = serde_json::to_string(&sim_reference(unit, &pairs, spec.clk, &LEVELS))
            .expect("serialize reference");
        for backend in [KernelBackend::Interpreter, KernelBackend::Generated] {
            for lanes in [1usize, 4, 8] {
                for threads in [1usize, 3] {
                    let got = dta_campaign(
                        unit,
                        &pairs,
                        spec.clk,
                        &LEVELS,
                        threads,
                        DtaTuning {
                            lanes: Some(lanes),
                            backend,
                        },
                    )
                    .expect("campaign");
                    assert_eq!(
                        serde_json::to_string(&got).expect("serialize campaign"),
                        reference,
                        "backend={backend:?} lanes={lanes} threads={threads} \
                         seed={seed:#x} diverged from ArrivalSim"
                    );
                }
            }
        }
    }
}

#[test]
fn parallel_sampled_campaign_equals_serial_byte_for_byte() {
    let (unit, spec) = test_unit();
    let trace = random_operand_pairs(unit.op(), 300, 0x5a5a);
    // An arbitrary non-monotonic sample pattern over valid indices.
    let indices: Vec<usize> = (1..trace.len()).filter(|i| i % 3 != 0).collect();
    let serial = dta_campaign_sampled(
        unit,
        &trace,
        &indices,
        spec.clk,
        &LEVELS,
        1,
        DtaTuning::default(),
    )
    .expect("serial sampled campaign");
    for threads in [2usize, 5] {
        let parallel = dta_campaign_sampled(
            unit,
            &trace,
            &indices,
            spec.clk,
            &LEVELS,
            threads,
            DtaTuning::default(),
        )
        .expect("parallel sampled campaign");
        assert_eq!(
            serde_json::to_string(&serial).expect("serialize serial"),
            serde_json::to_string(&parallel).expect("serialize parallel"),
            "{threads}-thread sampled campaign diverged from serial"
        );
    }
    // The generated backend must reproduce the same sampled statistics.
    for backend in [KernelBackend::Interpreter, KernelBackend::Generated] {
        let tuned = dta_campaign_sampled(
            unit,
            &trace,
            &indices,
            spec.clk,
            &LEVELS,
            3,
            DtaTuning {
                backend,
                ..DtaTuning::default()
            },
        )
        .expect("tuned sampled campaign");
        assert_eq!(
            serde_json::to_string(&serial).expect("serialize serial"),
            serde_json::to_string(&tuned).expect("serialize tuned"),
            "sampled campaign on {backend:?} diverged from serial"
        );
    }
}

/// The campaigns always skip statically safe bits; on units where the
/// oracle proves many bits safe (fp-sub-s and i2f-s at VR15, f2i-s at
/// both corners) the default campaign must still equal the full-scan
/// `ArrivalSim` reference, which thresholds every result bit.
#[test]
fn safe_bit_pruning_is_byte_identical_to_full_scan() {
    let spec = FpuTimingSpec::paper_calibrated();
    let (d_mul, _) = test_unit();
    let others = [
        FpOp::new(FpOpKind::Sub, Precision::Single),
        FpOp::new(FpOpKind::ItoF, Precision::Single),
        FpOp::new(FpOpKind::FtoI, Precision::Single),
    ]
    .map(|op| FpuUnit::generate(op, &spec));
    for unit in others.iter().chain([d_mul]) {
        for seed in [0xd7a_cafeu64, 0x51ced] {
            let pairs = random_operand_pairs(unit.op(), 403, seed);
            let pruned = dta_campaign(unit, &pairs, spec.clk, &LEVELS, 1, DtaTuning::default())
                .expect("pruned campaign");
            assert_eq!(
                serde_json::to_string(&pruned).expect("serialize pruned"),
                serde_json::to_string(&sim_reference(unit, &pairs, spec.clk, &LEVELS))
                    .expect("serialize reference"),
                "{} seed={seed:#x}: pruning changed a statistic",
                unit.tag()
            );
        }
        // The pruning must actually remove work at these corners.
        let safe = safe_bit_counts(unit, spec.clk, &LEVELS);
        assert!(
            safe.iter().any(|&n| n > 0),
            "{}: oracle proves no bits safe — pruning is vacuous: {safe:?}",
            unit.tag()
        );
        // Safer bits at the milder voltage reduction: VR15 derates less.
        assert!(
            safe[0] >= safe[1],
            "{}: VR15 {} < VR20 {}",
            unit.tag(),
            safe[0],
            safe[1]
        );
    }
}

#[test]
fn thread_count_overshoot_is_clamped() {
    let (unit, spec) = test_unit();
    let pairs = random_operand_pairs(unit.op(), 6, 1);
    // More threads than chunks: workers clamp without panicking.
    let stats = dta_campaign(unit, &pairs, spec.clk, &LEVELS, 64, DtaTuning::default())
        .expect("clamped campaign");
    assert_eq!(stats[0].samples, 5);
    let empty = dta_campaign(
        unit,
        &pairs[..1],
        spec.clk,
        &LEVELS,
        4,
        DtaTuning::default(),
    )
    .expect("empty campaign");
    assert_eq!(empty[0].samples, 0, "single pair only establishes state");
}
