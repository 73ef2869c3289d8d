//! The substrate's whole contract in three properties: (1) a partitioned
//! map-reduce over any worker count produces *byte-identical* results —
//! including a serial left-fold over the merged outputs, the shape every
//! consumer's reduction takes — (2) the slot striping is a true
//! partition of the input: every item is visited exactly once, no
//! overlaps, no gaps, regardless of slot count or input size, and (3)
//! nested fan-outs never keep more workers busy than the pool owns.

use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use clite_par::{map_indexed, WorkerPool};

/// A deterministic pseudo-random work set (xorshift64*): enough FP
/// structure that any reordering of the reduction would flip result bits.
fn work_set(len: usize, seed: u64) -> Vec<f64> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let bits = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
            // Map to (0, 1]: keep values well-conditioned but non-dyadic.
            (bits >> 11) as f64 / f64::from(1u32 << 21) / f64::from(1u32 << 21) / 2048.0 + 1e-9
        })
        .collect()
}

/// A per-item kernel with a non-trivial dependency chain, so per-item
/// results are sensitive to everything about how the item was computed.
fn kernel(i: usize, x: f64) -> f64 {
    let mut acc = x;
    for k in 0..8 {
        acc = acc.mul_add(1.0 / (i + k + 1) as f64, (x * (k + 1) as f64).sin());
    }
    acc
}

#[test]
fn partitioned_reduction_is_byte_identical_at_1_2_4_8_workers() {
    let items = work_set(257, 0xC11F_E0D5);

    // Serial baseline: plain iterator map plus a left-fold sum.
    let serial: Vec<f64> = items.iter().enumerate().map(|(i, &x)| kernel(i, x)).collect();
    let serial_sum = serial.iter().fold(0.0f64, |a, &b| a + b);

    for workers in [1usize, 2, 4, 8] {
        let pool = WorkerPool::new(workers);
        for slots in [1usize, 2, 3, 4, 8, 16] {
            let mapped = map_indexed(&pool, slots, &items, || (), |(), i, &x| kernel(i, x));
            for (i, (s, p)) in serial.iter().zip(&mapped).enumerate() {
                assert_eq!(
                    s.to_bits(),
                    p.to_bits(),
                    "item {i} diverged at {workers} workers / {slots} slots"
                );
            }
            let sum = mapped.iter().fold(0.0f64, |a, &b| a + b);
            assert_eq!(
                serial_sum.to_bits(),
                sum.to_bits(),
                "reduction diverged at {workers} workers / {slots} slots"
            );
        }
    }
}

#[test]
fn nested_fanout_never_oversubscribes_the_pool() {
    // A search fans out inside a fan-out (acquisition starts inside a
    // hyper-grid refresh, say), each layer requesting more slots than the
    // pool owns. Every layer draws from the same fixed pool and callers
    // self-execute unclaimed slots, so the number of concurrently busy
    // pool workers can never exceed the pool's worker count. Uses the
    // global pool, which `CLITE_PAR_THREADS` sizes.
    let pool = WorkerPool::global();
    let before = pool.stats();
    let slots = pool.size() * 4;
    let outer = work_set(3 * slots, 0xF00D);

    let nested = map_indexed(
        pool,
        slots,
        &outer,
        || (),
        |(), i, &x| {
            let inner = work_set(2 * slots, i as u64 + 1);
            let mapped = map_indexed(
                pool,
                slots,
                &inner,
                || (),
                |(), j, &y| {
                    // Hold the slot so every worker is busy at once and the
                    // bound below is reached, not just approached.
                    std::thread::sleep(std::time::Duration::from_micros(200));
                    kernel(j, y * x)
                },
            );
            mapped.iter().fold(0.0f64, |a, &b| a + b)
        },
    );
    let serial: Vec<f64> = outer
        .iter()
        .enumerate()
        .map(|(i, &x)| {
            let inner = work_set(2 * slots, i as u64 + 1);
            inner.iter().enumerate().map(|(j, &y)| kernel(j, y * x)).fold(0.0f64, |a, b| a + b)
        })
        .collect();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&nested), bits(&serial), "nesting changed a result");

    let after = pool.stats();
    assert!(after.jobs > before.jobs, "the nested fan-out must dispatch through the pool");
    assert!(
        after.max_busy_workers <= pool.workers(),
        "pool oversubscribed: {} workers busy at once but only {} exist",
        after.max_busy_workers,
        pool.workers()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Slot striping is a partition: `map_indexed` hands every input index
    /// to exactly one slot invocation and merges results back in input
    /// order — no item skipped, none visited twice, for any (len, slots,
    /// workers) combination.
    #[test]
    fn stripes_cover_the_input_exactly_once(
        len in 0usize..=200,
        slots in 0usize..=12,
        workers in 1usize..=8,
    ) {
        let pool = WorkerPool::new(workers);
        let items: Vec<usize> = (0..len).collect();
        let visits = AtomicUsize::new(0);
        let out = map_indexed(&pool, slots, &items, || (), |(), i, &item| {
            visits.fetch_add(1, Ordering::Relaxed);
            (i, item)
        });
        // Exactly one visit per item...
        prop_assert_eq!(visits.load(Ordering::Relaxed), len);
        // ...merged back in input order with the matching item.
        prop_assert_eq!(out.len(), len);
        for (pos, &(i, item)) in out.iter().enumerate() {
            prop_assert_eq!(pos, i);
            prop_assert_eq!(pos, item);
        }
    }
}
