//! The streaming-aggregation conformance layer: the online sketch must
//! equal collect-then-summarise **bit for bit** — for every trial count,
//! every permutation of completion order, and every thread count.
//!
//! The reference is `ssync_dsp::stats` directly (the batch path the
//! pre-service aggregation was built on), *not* `ssync_exp::agg` — agg
//! is now itself a wrapper over the sketch, so comparing against it
//! would be circular. This file is what licenses that rewiring: if the
//! sketch ever drifts from the batch semantics, these properties fail
//! before any golden does.
//!
//! Samples deliberately include the floating-point corners where "equal
//! value" and "equal bits" part ways: signed zeros (compare equal, sort
//! stably, differ in bits) and exact duplicates (tie order is what a
//! stable sort preserves).

use proptest::prelude::*;
use ssync_dsp::stats;
use ssync_exp::agg::{z_for, Summary};
use ssync_exp::exec::par_map_streamed;
use ssync_exp::{splitmix64, OnlineSketch, ReorderBuffer};

/// Salts a generated sample with ties and signed zeros at fixed indices,
/// so every run exercises the stable-sort corners.
fn inject_corners(mut xs: Vec<f64>) -> Vec<f64> {
    for (i, v) in xs.iter_mut().enumerate() {
        if i % 7 == 3 {
            *v = 0.0;
        } else if i % 7 == 5 {
            *v = -0.0;
        } else if i % 11 == 2 {
            *v = 42.5; // a repeated exact value → ties
        }
    }
    xs
}

/// A seeded Fisher–Yates permutation of `0..n` (SplitMix64-driven, so
/// proptest shrinking stays deterministic).
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        state = splitmix64(state);
        let j = (state % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    perm
}

fn bits(v: f64) -> u64 {
    v.to_bits()
}

/// The pre-service batch reference for a five-number summary.
fn batch_summary(xs: &[f64]) -> Summary {
    Summary {
        n: xs.len(),
        mean: stats::mean(xs),
        std_dev: stats::std_dev(xs),
        min: xs.iter().copied().fold(f64::NAN, stats::fold_min),
        max: xs.iter().copied().fold(f64::NAN, stats::fold_max),
    }
}

fn assert_summary_bits_eq(a: &Summary, b: &Summary) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.n, b.n);
    prop_assert_eq!(bits(a.mean), bits(b.mean));
    prop_assert_eq!(bits(a.std_dev), bits(b.std_dev));
    prop_assert_eq!(bits(a.min), bits(b.min));
    prop_assert_eq!(bits(a.max), bits(b.max));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // Every trial count: after each push, the running moments equal the
    // batch reference over that prefix (n = 0..len inclusive).
    #[test]
    fn every_prefix_matches_batch(raw in prop::collection::vec(-1e6f64..1e6, 0..60)) {
        let xs = inject_corners(raw);
        let mut sk = OnlineSketch::new();
        assert_summary_bits_eq(&sk.summary(), &batch_summary(&[]))?;
        for (i, &x) in xs.iter().enumerate() {
            sk.push(x);
            assert_summary_bits_eq(&sk.summary(), &batch_summary(&xs[..=i]))?;
        }
    }

    // Percentiles and the CDF match the batch sort bit for bit, even when
    // queries interleave with pushes (which freezes partial sorted runs
    // that later merges must extend stably).
    #[test]
    fn percentiles_and_cdf_match_batch(
        raw in prop::collection::vec(-1e6f64..1e6, 1..60),
        ps in prop::collection::vec(0.0f64..100.0, 1..6),
        split_frac in 0.0f64..1.0,
    ) {
        let xs = inject_corners(raw);
        let split = ((xs.len() as f64) * split_frac) as usize;
        let mut sk = OnlineSketch::new();
        sk.extend(&xs[..split]);
        if split > 0 {
            let _ = sk.percentile(50.0); // freeze a mid-stream sorted run
        }
        sk.extend(&xs[split..]);
        for &p in &ps {
            prop_assert_eq!(bits(sk.percentile(p)), bits(stats::percentile(&xs, p)), "p={}", p);
        }
        let got: Vec<(u64, u64)> =
            sk.empirical_cdf().iter().map(|&(v, f)| (bits(v), bits(f))).collect();
        let want: Vec<(u64, u64)> =
            stats::empirical_cdf(&xs).iter().map(|&(v, f)| (bits(v), bits(f))).collect();
        prop_assert_eq!(got, want);
    }

    // The running CI equals the collect-then-summarise formula
    // (`mean ± z·s/√n` over the batch moments).
    #[test]
    fn running_ci_matches_batch(
        raw in prop::collection::vec(-1e3f64..1e3, 1..50),
        conf in 0.5f64..0.999,
    ) {
        let xs = inject_corners(raw);
        let mut sk = OnlineSketch::new();
        sk.extend(&xs);
        let ci = sk.mean_ci_normal(conf);
        let m = stats::mean(&xs);
        let half = z_for(conf) * stats::std_dev(&xs) / (xs.len() as f64).sqrt();
        prop_assert_eq!(bits(ci.lo), bits(m - half));
        prop_assert_eq!(bits(ci.hi), bits(m + half));
    }

    // Every permutation of completion order: results pushed through the
    // reorder buffer in an arbitrary order fold identically to a serial
    // loop — the sketch never sees completion order at all.
    #[test]
    fn any_completion_order_folds_identically(
        raw in prop::collection::vec(-1e6f64..1e6, 1..60),
        seed in 0u64..1_000_000,
    ) {
        let xs = inject_corners(raw);
        let mut sk = OnlineSketch::new();
        let mut reorder = ReorderBuffer::new();
        let mut released = Vec::new();
        for &i in &permutation(xs.len(), seed) {
            reorder.push(i, xs[i], |idx, v| {
                released.push(idx);
                sk.push(v);
            });
        }
        prop_assert!(reorder.is_drained());
        prop_assert_eq!(released, (0..xs.len()).collect::<Vec<_>>());
        assert_summary_bits_eq(&sk.summary(), &batch_summary(&xs))?;
        prop_assert_eq!(bits(sk.percentile(90.0)), bits(stats::percentile(&xs, 90.0)));
    }

    // Every thread count: the streaming executor + reorder buffer + sketch
    // pipeline (exactly the service's fold) matches the batch reference
    // whatever the worker count.
    #[test]
    fn any_thread_count_streams_identically(
        raw in prop::collection::vec(-1e6f64..1e6, 1..40),
        threads in prop::sample::select(vec![1usize, 2, 3, 8]),
    ) {
        let xs = inject_corners(raw);
        let mut sk = OnlineSketch::new();
        let mut reorder = ReorderBuffer::new();
        let results = par_map_streamed(
            threads,
            xs.len(),
            |i| xs[i] * 2.0,
            |i, v| reorder.push(i, *v, |_, v| sk.push(v)),
        );
        let doubled: Vec<f64> = xs.iter().map(|v| v * 2.0).collect();
        prop_assert_eq!(
            results.iter().map(|&v| bits(v)).collect::<Vec<_>>(),
            doubled.iter().map(|&v| bits(v)).collect::<Vec<_>>()
        );
        assert_summary_bits_eq(&sk.summary(), &batch_summary(&doubled))?;
        let got: Vec<(u64, u64)> =
            sk.empirical_cdf().iter().map(|&(v, f)| (bits(v), bits(f))).collect();
        let want: Vec<(u64, u64)> =
            stats::empirical_cdf(&doubled).iter().map(|&(v, f)| (bits(v), bits(f))).collect();
        prop_assert_eq!(got, want);
    }
}
