//! Runtime lane-width dispatch for the batched numeric loops.
//!
//! The baseline x86-64 target assumes SSE2 only: 128-bit registers, two
//! `f64` lanes. [`wide_lanes`] runs a closure inside a function compiled
//! with `avx2` enabled when the CPU reports it at run time, so the loops
//! inlined into that closure vectorize four `f64` lanes wide; on other
//! CPUs and other architectures it calls the closure as baseline code.
//!
//! Only `avx2` is enabled, not `fma`. Rust never contracts a multiply and
//! an add into a fused operation, so every packed AVX2 instruction rounds
//! exactly as its SSE2 counterpart does and the dispatched loops return
//! the same bits on every host.

/// Whether [`wide_lanes`] runs its closure with AVX2 enabled on this CPU.
/// The detection result is cached by the standard library, so this is one
/// relaxed atomic load after the first call.
#[inline]
#[must_use]
pub fn wide_lanes_enabled() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Calls `f` once, compiled four `f64` lanes wide (AVX2) when the CPU
/// supports it and as baseline code otherwise, and returns its value.
///
/// The closure and everything it inlines are compiled into the AVX2
/// instance, so callers pass an `#[inline(always)]` closure around an
/// `#[inline(always)]` loop body:
///
/// ```
/// #[inline(always)]
/// fn scale_body(xs: &mut [f64], by: f64) {
///     for x in xs {
///         *x *= by;
///     }
/// }
///
/// let mut xs = vec![1.0, 2.0, 3.0];
/// clite_par::wide_lanes(#[inline(always)] || scale_body(&mut xs, 0.5));
/// assert_eq!(xs, [0.5, 1.0, 1.5]);
/// ```
#[inline(always)]
pub fn wide_lanes<R>(f: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    if wide_lanes_enabled() {
        #[target_feature(enable = "avx2")]
        fn avx2<R>(f: impl FnOnce() -> R) -> R {
            f()
        }
        // SAFETY: `avx2` is only compiled with the `avx2` target feature;
        // calling it requires the running CPU to support that feature,
        // which `is_x86_feature_detected!` just confirmed.
        return unsafe { avx2(f) };
    }
    f()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn wide_lanes_returns_the_value_of_one_call() {
        let calls = Cell::new(0_u32);
        let got = wide_lanes(|| {
            calls.set(calls.get() + 1);
            vec![1.5_f64, -0.0, 3.0]
        });
        assert_eq!(calls.get(), 1);
        assert_eq!(got, [1.5, -0.0, 3.0]);
        assert_eq!(wide_lanes(|| 7_u8), 7);
    }
}
