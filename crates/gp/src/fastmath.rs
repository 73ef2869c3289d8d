//! Branch-free transcendental kernels for the GP hot paths.
//!
//! `libm`'s `exp` is accurate to <1 ulp but is an opaque scalar call, so a
//! loop that evaluates a covariance row makes one call per element and
//! the row cost is dominated by the `exp` latency. [`fast_exp`] trades
//! the last two digits (relative error ≤ ~3e-13 — far below the GP's
//! observation-noise floor and the factorization jitter) for a
//! branch-free body of multiplies, adds, and bit manipulation that
//! inlines into the row loop.
//!
//! A release build vectorizes that loop (see
//! [`crate::kernel::Kernel::eval_scaled_sq_append`]). The loop is bound by
//! arithmetic throughput, so its speed is set by the lane width:
//! [`clite_par::wide_lanes`] runs it four `f64` lanes wide (AVX2) on CPUs
//! that report AVX2 at run time, and two lanes wide (the SSE2 baseline)
//! elsewhere. The body has no fused multiply-add and no reassociation, so
//! both widths round every operation the same way and agree bit for bit.

/// `exp(x)` with relative error ≤ ~3e-13 on the kernels' operating range,
/// written without calls or branches so it inlines into a slice loop.
///
/// Standard range reduction: `exp(x) = 2^k · exp(r)` with
/// `k = round(x/ln 2)` and `|r| ≤ (ln 2)/2`, where `exp(r)` is a
/// degree-10 Horner polynomial. The rounding uses the `1.5·2^52` magic
/// constant (adding it forces the sum into a binade whose ulp is 1, so the
/// rounded integer sits in the low mantissa bits) instead of
/// `f64::round`/`as i64`: on the baseline target `round` is a `libm` call
/// and the conversion has no packed form.
/// `ln 2` is split into a high/low pair so `x − k·ln 2` stays exact.
///
/// Inputs below `-700` return `0.0` exactly (the true value is `< 1e-304`;
/// the bit trick's exponent arithmetic would wrap there). Inputs above
/// `+700` are outside the supported range (kernels only ever pass
/// non-positive arguments) and saturate like the lower edge clamps: the
/// caller must not rely on them.
#[inline]
#[must_use]
pub fn fast_exp(x: f64) -> f64 {
    const LOG2E: f64 = std::f64::consts::LOG2_E;
    const LN2_HI: f64 = 6.931_471_803_691_238e-1;
    const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
    const MAGIC: f64 = 6_755_399_441_055_744.0; // 1.5 * 2^52

    let t = x * LOG2E + MAGIC;
    let kf = t - MAGIC;
    // Low mantissa bits of `t` hold `k` (offset by 2^51, which vanishes
    // under the `<< 52`); adding the exponent bias and shifting into the
    // exponent field builds `2^k` without an int↔float conversion.
    let scale = f64::from_bits(t.to_bits().wrapping_add(1023) << 52);

    let r = (x - kf * LN2_HI) - kf * LN2_LO;
    #[rustfmt::skip]
    let p = 1.0 + r * (1.0 + r * (0.5 + r * (1.0 / 6.0 + r * (1.0 / 24.0
        + r * (1.0 / 120.0 + r * (1.0 / 720.0 + r * (1.0 / 5_040.0
        + r * (1.0 / 40_320.0 + r * (1.0 / 362_880.0
        + r * (1.0 / 3_628_800.0))))))))));

    if x < -700.0 {
        0.0
    } else {
        scale * p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_libm_over_kernel_range() {
        // Kernel arguments are `-√5·r`, `-√3·r`, or `-r²/2` with `r` a
        // scaled distance — always non-positive, rarely below ~-300.
        let mut max_rel = 0.0_f64;
        for i in 0..=600_000 {
            let x = -(i as f64) * 1e-3; // [-600, 0]
            let exact = x.exp();
            let fast = fast_exp(x);
            let rel = if exact == 0.0 { fast.abs() } else { ((fast - exact) / exact).abs() };
            max_rel = max_rel.max(rel);
        }
        assert!(max_rel < 3e-13, "max relative error {max_rel:e}");
    }

    #[test]
    fn exact_at_zero() {
        assert_eq!(fast_exp(0.0), 1.0);
    }

    #[test]
    fn deep_negative_underflows_to_zero() {
        assert_eq!(fast_exp(-701.0), 0.0);
        assert_eq!(fast_exp(-1e6), 0.0);
    }

    #[test]
    fn moderate_positive_still_accurate() {
        // Not used by the kernels, but `log`-domain helpers may pass small
        // positive values.
        for i in 0..=1_000 {
            let x = i as f64 * 1e-2; // [0, 10]
            let rel = ((fast_exp(x) - x.exp()) / x.exp()).abs();
            assert!(rel < 3e-13, "x={x}: rel {rel:e}");
        }
    }
}
