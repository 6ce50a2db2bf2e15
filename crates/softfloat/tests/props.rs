//! Property tests: tei-softfloat must agree bit-for-bit with the host's
//! IEEE-754 round-to-nearest-even arithmetic on arbitrary bit patterns,
//! and its host-FPU fast path must agree bit-for-bit with the software
//! path wherever it fires.

use proptest::prelude::*;
use tei_softfloat::{
    add, apply_op, div, f2i, i2f, mul, native_binary, sub, Flags, Format, FpOp, FpOpKind,
    FpuConfig, Precision,
};

/// Generate interesting f64 bit patterns: uniform bits hit NaN/Inf/subnormal
/// ranges often enough to exercise every special path.
fn any_f64_bits() -> impl Strategy<Value = u64> {
    prop_oneof![
        any::<u64>(),
        // Exponent-structured values cluster near interesting binades.
        (any::<bool>(), 0u64..2048, any::<u64>())
            .prop_map(|(s, e, f)| { ((s as u64) << 63) | (e << 52) | (f & ((1 << 52) - 1)) }),
        Just(0u64),
        Just(0x8000_0000_0000_0000),
        Just(f64::INFINITY.to_bits()),
        Just(f64::NAN.to_bits()),
        Just(f64::MIN_POSITIVE.to_bits()),
        Just(1u64), // smallest subnormal
    ]
}

fn any_f32_bits() -> impl Strategy<Value = u32> {
    prop_oneof![
        any::<u32>(),
        (any::<bool>(), 0u32..256, any::<u32>())
            .prop_map(|(s, e, f)| { ((s as u32) << 31) | (e << 23) | (f & ((1 << 23) - 1)) }),
    ]
}

/// A normal encoding of `fmt` with the biased exponent clamped into the
/// normal range and `frac` truncated to the fraction field.
fn normal_bits(fmt: Format, sign: bool, exp: i64, frac: u64) -> u64 {
    let exp = exp.clamp(1, fmt.max_exp() as i64 - 1) as u64;
    ((sign as u64) << (fmt.width() - 1))
        | (exp << fmt.frac_bits)
        | (frac & ((1u64 << fmt.frac_bits) - 1))
}

/// Normal operand pairs whose exact sum, difference, product or quotient
/// lands within a few binades of the min-normal or the max-finite
/// boundary (or overflows past it), where the fast path must hand over.
/// Fractions favour all-zeros and all-ones so results sit exactly on,
/// or round across, a binade edge.
fn boundary_pair(fmt: Format) -> impl Strategy<Value = (u64, u64)> {
    let max = fmt.max_exp() as i64;
    let bias = fmt.bias() as i64;
    let frac = || prop_oneof![any::<u64>(), Just(0), Just(u64::MAX), Just(1)];
    (
        0u8..4,
        0usize..7,
        -2i64..=2,
        1..max,
        (any::<bool>(), any::<bool>(), frac(), frac()),
    )
        .prop_map(move |(shape, target, jitter, ea, (sa, sb, fa, fb))| {
            let t = [-1, 1, 2, 3, max - 2, max - 1, max][target] + jitter;
            let (ea, eb) = match shape {
                0 => (ea, t - ea + bias), // product exponent ≈ t
                1 => (ea, ea + bias - t), // quotient exponent ≈ t
                _ => (t, t),              // sum / cancellation near t
            };
            let a = normal_bits(fmt, sa, ea, fa);
            let b = if shape == 3 {
                a // x − x, x + x, x · x, x / x
            } else {
                normal_bits(fmt, sb, eb, fb)
            };
            (a, b)
        })
}

/// Whenever the fast path fires, it must equal the software result under
/// both FTZ settings and the software path must raise no trap flag.
fn check_native(precision: Precision, a: u64, b: u64) -> Result<(), TestCaseError> {
    for kind in [FpOpKind::Add, FpOpKind::Sub, FpOpKind::Mul, FpOpKind::Div] {
        let op = FpOp::new(kind, precision);
        let Some(native) = native_binary(op, a, b) else {
            continue;
        };
        for ftz in [false, true] {
            let mut fl = Flags::default();
            let soft = apply_op(op, a, b, FpuConfig { ftz }, &mut fl);
            prop_assert_eq!(native, soft, "{} ftz={} on ({:#x}, {:#x})", op, ftz, a, b);
            prop_assert!(
                !fl.invalid && !fl.div_by_zero,
                "{op} ftz={ftz} on ({a:#x}, {b:#x}) traps in software"
            );
        }
    }
    Ok(())
}

fn check_f64(ours: u64, native: f64, what: &str, a: u64, b: u64) -> Result<(), TestCaseError> {
    if native.is_nan() {
        prop_assert!(
            Format::F64.is_nan(ours),
            "{what}({a:#x}, {b:#x}) should be NaN"
        );
    } else {
        prop_assert_eq!(
            ours,
            native.to_bits(),
            "{}({:#x}, {:#x}): got {:e}, want {:e}",
            what,
            a,
            b,
            f64::from_bits(ours),
            native
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn prop_f64_add_sub(a in any_f64_bits(), b in any_f64_bits()) {
        let cfg = FpuConfig::default();
        let (fa, fb) = (f64::from_bits(a), f64::from_bits(b));
        let mut fl = Flags::default();
        check_f64(add(Format::F64, a, b, cfg, &mut fl), fa + fb, "add", a, b)?;
        check_f64(sub(Format::F64, a, b, cfg, &mut fl), fa - fb, "sub", a, b)?;
    }

    #[test]
    fn prop_f64_mul(a in any_f64_bits(), b in any_f64_bits()) {
        let cfg = FpuConfig::default();
        let (fa, fb) = (f64::from_bits(a), f64::from_bits(b));
        let mut fl = Flags::default();
        check_f64(mul(Format::F64, a, b, cfg, &mut fl), fa * fb, "mul", a, b)?;
    }

    #[test]
    fn prop_f64_div(a in any_f64_bits(), b in any_f64_bits()) {
        let cfg = FpuConfig::default();
        let (fa, fb) = (f64::from_bits(a), f64::from_bits(b));
        let mut fl = Flags::default();
        check_f64(div(Format::F64, a, b, cfg, &mut fl), fa / fb, "div", a, b)?;
    }

    #[test]
    fn prop_f32_all(a in any_f32_bits(), b in any_f32_bits()) {
        let cfg = FpuConfig::default();
        let fmt = Format::F32;
        let (fa, fb) = (f32::from_bits(a), f32::from_bits(b));
        let mut fl = Flags::default();
        for (ours, native) in [
            (add(fmt, a as u64, b as u64, cfg, &mut fl), fa + fb),
            (sub(fmt, a as u64, b as u64, cfg, &mut fl), fa - fb),
            (mul(fmt, a as u64, b as u64, cfg, &mut fl), fa * fb),
            (div(fmt, a as u64, b as u64, cfg, &mut fl), fa / fb),
        ] {
            if native.is_nan() {
                prop_assert!(fmt.is_nan(ours));
            } else {
                prop_assert_eq!(ours as u32, native.to_bits(),
                    "({:#x}, {:#x}) -> {:e}", a, b, native);
            }
        }
    }

    #[test]
    fn prop_i2f_matches_cast(x in any::<i64>()) {
        let mut fl = Flags::default();
        let r = i2f(Format::F64, x, FpuConfig::default(), &mut fl);
        prop_assert_eq!(r, (x as f64).to_bits());
        let mut fl = Flags::default();
        let x32 = x as i32;
        let r = i2f(Format::F32, x32 as i64, FpuConfig::default(), &mut fl);
        prop_assert_eq!(r as u32, (x32 as f32).to_bits());
    }

    #[test]
    fn prop_f2i_matches_saturating_cast(a in any_f64_bits()) {
        let mut fl = Flags::default();
        let v = f2i(Format::F64, a, 64, &mut fl);
        prop_assert_eq!(v, f64::from_bits(a) as i64, "{:#x}", a);
        let mut fl = Flags::default();
        let v32 = f2i(Format::F64, a, 32, &mut fl);
        prop_assert_eq!(v32, (f64::from_bits(a) as i32) as i64, "{:#x}", a);
    }

    #[test]
    fn prop_ftz_results_are_never_subnormal(a in any_f64_bits(), b in any_f64_bits()) {
        let cfg = FpuConfig { ftz: true };
        let fmt = Format::F64;
        let mut fl = Flags::default();
        for r in [
            add(fmt, a, b, cfg, &mut fl),
            sub(fmt, a, b, cfg, &mut fl),
            mul(fmt, a, b, cfg, &mut fl),
            div(fmt, a, b, cfg, &mut fl),
        ] {
            prop_assert!(!fmt.is_subnormal(r), "FTZ produced subnormal {:#x}", r);
        }
    }

    #[test]
    fn prop_add_commutes_and_mul_commutes(a in any_f64_bits(), b in any_f64_bits()) {
        let cfg = FpuConfig::default();
        let fmt = Format::F64;
        let mut fl = Flags::default();
        prop_assert_eq!(add(fmt, a, b, cfg, &mut fl), add(fmt, b, a, cfg, &mut fl));
        prop_assert_eq!(mul(fmt, a, b, cfg, &mut fl), mul(fmt, b, a, cfg, &mut fl));
    }
}

proptest! {
    // The fast path is cheap to check and fires on only part of each
    // generator's output, so it gets more cases than the blocks above.
    #![proptest_config(ProptestConfig::with_cases(1 << 16))]

    #[test]
    fn prop_native_f64_matches_softfloat(
        (a, b) in prop_oneof![
            (any_f64_bits(), any_f64_bits()),
            boundary_pair(Format::F64),
        ]
    ) {
        check_native(Precision::Double, a, b)?;
    }

    #[test]
    fn prop_native_f32_matches_softfloat(
        (a, b) in prop_oneof![
            (any_f32_bits().prop_map(u64::from), any_f32_bits().prop_map(u64::from)),
            boundary_pair(Format::F32),
        ]
    ) {
        check_native(Precision::Single, a, b)?;
    }
}

/// The fast path on `f64` operands.
fn native_d(kind: FpOpKind, x: f64, y: f64) -> Option<u64> {
    native_binary(FpOp::new(kind, Precision::Double), x.to_bits(), y.to_bits())
}

/// The fast path on `f32` operands.
fn native_s(kind: FpOpKind, x: f32, y: f32) -> Option<u64> {
    let (a, b) = (x.to_bits().into(), y.to_bits().into());
    native_binary(FpOp::new(kind, Precision::Single), a, b)
}

#[test]
fn native_fast_path_hands_boundary_results_to_softfloat() {
    use FpOpKind::{Add, Div, ItoF, Mul, Sub};
    let min = f64::MIN_POSITIVE;

    // (1 − 2⁻⁵³) × 2⁻¹⁰²² rounds up to the smallest normal on the host,
    // but software detects tininess before rounding and FTZ flushes it.
    let below_one = 1.0 - 2f64.powi(-53);
    assert_eq!(below_one * min, min);
    let mut fl = Flags::default();
    let ftz = mul(
        Format::F64,
        below_one.to_bits(),
        min.to_bits(),
        FpuConfig { ftz: true },
        &mut fl,
    );
    assert_eq!(ftz, 0);
    assert_eq!(native_d(Mul, below_one, min), None);
    assert_eq!(native_s(Mul, 1.0 - 2f32.powi(-24), f32::MIN_POSITIVE), None);
    // Even an exact result in the smallest normal binade falls back.
    assert_eq!(native_d(Mul, min, 1.0), None);

    // Exact cancellation gives +0, which the fast path never returns.
    for x in [1.5, -3.25, f64::MAX, 2f64.powi(-1000)] {
        assert_eq!(native_d(Sub, x, x), None);
        assert_eq!(native_d(Add, x, -x), None);
    }
    assert_eq!(native_s(Sub, 7.0, 7.0), None);

    // Overflow and non-normal operands fall back; conversions never fire.
    assert_eq!(native_d(Add, f64::MAX, f64::MAX), None);
    assert_eq!(native_d(Div, 1.0, 0.0), None);
    assert_eq!(native_d(Mul, f64::INFINITY, 2.0), None);
    assert_eq!(native_d(Add, min / 2.0, 1.0), None);
    assert_eq!(
        native_binary(FpOp::new(ItoF, Precision::Double), 3, 0),
        None
    );

    // Ordinary results, one binade above min-normal and at max-finite,
    // take the fast path.
    assert_eq!(native_d(Mul, 2.0 * min, 1.0), Some((2.0 * min).to_bits()));
    assert_eq!(native_d(Mul, f64::MAX, 1.0), Some(f64::MAX.to_bits()));
    assert_eq!(native_d(Div, 1.0, 3.0), Some((1.0f64 / 3.0).to_bits()));
    assert_eq!(native_s(Add, 1.5, 2.25), Some(3.75f32.to_bits().into()));
}
