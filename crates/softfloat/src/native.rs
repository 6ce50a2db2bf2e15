//! Exact host-FPU fast path for the eight binary operations.
//!
//! The host's `f32`/`f64` arithmetic is IEEE-754 round-to-nearest-even,
//! which is what [`apply`](crate::apply_op) computes in software. The two
//! differ only where this crate's flush-to-zero mode or its special-value
//! handling applies, so the fast path fires only where neither can:
//!
//! - **Both operands normal** (exponent field neither 0 nor all-ones): no
//!   zero, subnormal, infinity or NaN reaches the host, so input flushing
//!   is a no-op and neither `invalid` nor `div_by_zero` can be raised.
//! - **Result exponent field `> 1` and not all-ones**: the result is a
//!   finite normal outside the smallest normal binade. Software detects
//!   tininess *before* rounding, so with FTZ on it flushes an exact result
//!   below the smallest normal even when it rounds up into that binade
//!   (exponent field 1). Rounding moves a value up by at most one binade,
//!   so a rounded exponent field of 2 or more means the exact result was
//!   already normal and no flush happened. Overflow (all-ones) and exact
//!   cancellation (exponent field 0) also fall back.
//!
//! Under these conditions the result is the correctly rounded value in both
//! FTZ settings, bit for bit.

use crate::{Format, FpOp, FpOpKind, Precision};
use std::ops::{Add, Div, Mul, Sub};

/// The host-FPU result of binary `op` on raw operand bits, or `None` when
/// the exactness conditions above do not hold (or `op` is a conversion) and
/// the caller must use [`apply`](crate::apply_op).
///
/// When it returns `Some`, the bits equal `apply`'s under
/// `FpuConfig { ftz: true }` and `FpuConfig { ftz: false }`, and the only
/// flag `apply` can raise is `inexact`, which this path does not report.
/// Single precision reads the low 32 bits of each operand, as `apply`
/// does.
#[inline]
pub fn native_binary(op: FpOp, a: u64, b: u64) -> Option<u64> {
    match op.precision {
        Precision::Double => checked(Format::F64, a, b, |a, b| {
            host(op.kind, f64::from_bits(a), f64::from_bits(b)).map(f64::to_bits)
        }),
        Precision::Single => checked(Format::F32, a, b, |a, b| {
            let (x, y) = (f32::from_bits(a as u32), f32::from_bits(b as u32));
            host(op.kind, x, y).map(|r| u64::from(r.to_bits()))
        }),
    }
}

/// `eval(a, b)` when both operands are normal and the result lies above
/// the smallest normal binade of `fmt`. Always inlined, so `fmt` is a
/// constant and the field extraction folds to fixed shifts and masks.
#[inline(always)]
fn checked(fmt: Format, a: u64, b: u64, eval: impl FnOnce(u64, u64) -> Option<u64>) -> Option<u64> {
    let max = fmt.max_exp();
    let normal = |x| (1..max).contains(&fmt.exp_of(x));
    if !normal(a) || !normal(b) {
        return None;
    }
    let r = eval(a, b)?;
    (2..max).contains(&fmt.exp_of(r)).then_some(r)
}

/// `x op y` in host arithmetic; `None` for the conversions.
#[inline]
fn host<T>(kind: FpOpKind, x: T, y: T) -> Option<T>
where
    T: Add<Output = T> + Sub<Output = T> + Mul<Output = T> + Div<Output = T>,
{
    match kind {
        FpOpKind::Add => Some(x + y),
        FpOpKind::Sub => Some(x - y),
        FpOpKind::Mul => Some(x * y),
        FpOpKind::Div => Some(x / y),
        FpOpKind::ItoF | FpOpKind::FtoI => None,
    }
}
