//! Streaming aggregation: online summaries, percentile sketches, and
//! completion-order reordering — bit-for-bit equal to collect-then-summarise.
//!
//! The experiment service ([`crate::service`]) folds trial results as they
//! complete instead of holding every trial in memory until the end. That
//! only works under this workspace's determinism contract if the streamed
//! fold produces the **exact bytes** of the batch path (`ssync_dsp::stats`
//! via [`crate::agg`]), so this module is built around bit-identity, not
//! approximation:
//!
//! * [`OnlineSketch`] maintains the running left-to-right sum, the running
//!   `fold(NAN, stats::fold_min/fold_max)` extrema, and lazily *stable-merged sorted
//!   runs* for percentile/CDF queries. Each query replays the identical
//!   floating-point operation sequence the batch helpers execute, so the
//!   results agree to the last bit (including the `-0.0` vs `0.0` ordering
//!   a stable sort fixes). A NaN in the sample is the one exception: the
//!   sketch panics on it, where the batch percentile sorts it last.
//! * [`ReorderBuffer`] accepts `(index, item)` pairs in whatever order
//!   workers complete them and releases items in index order, so a
//!   streamed fold sees exactly the sequence a serial loop would have.
//!
//! Approximate sketches (t-digest, KLL, …) are deliberately **not** used:
//! they trade exactness for memory, and byte-identical golden output is a
//! hard invariant here. What streaming buys instead is incremental
//! maintenance (no O(n log n) re-sort per query, no second scan for the
//! running mean/CI) and the ability to aggregate in completion order. The
//! sample itself is retained because the population standard deviation is
//! two-pass by definition and percentiles need order statistics.

use crate::agg::{z_for, Ci, Summary};
use ssync_dsp::stats;

/// An exact online aggregation sketch over a stream of `f64` samples.
///
/// Push values in any amount and interleave queries freely; every query
/// returns exactly what the batch helpers (`ssync_dsp::stats`,
/// [`crate::agg`]) would return for the same sample in the same push
/// order. See the module docs for why exactness forces value retention.
#[derive(Debug, Clone, Default)]
pub struct OnlineSketch {
    /// Samples in push order (the batch-path input order).
    values: Vec<f64>,
    /// Stable-sorted image of `values[..sorted_len]`.
    sorted: Vec<f64>,
    /// How many leading `values` the `sorted` run reflects.
    sorted_len: usize,
    /// Running left-to-right sum, identical to `values.iter().sum()`.
    sum: f64,
    /// Running `fold(f64::NAN, stats::fold_min)` over the push order.
    min: f64,
    /// Running `fold(f64::NAN, stats::fold_max)` over the push order.
    max: f64,
}

impl OnlineSketch {
    /// An empty sketch.
    pub fn new() -> Self {
        OnlineSketch {
            values: Vec::new(),
            sorted: Vec::new(),
            sorted_len: 0,
            sum: 0.0,
            min: f64::NAN,
            max: f64::NAN,
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, v: f64) {
        // The same operation sequence as the batch path: `iter().sum()`
        // adds left to right from 0.0, and the extrema fold with
        // `stats::fold_min`/`fold_max` from a NaN accumulator (so the first
        // sample always replaces it, and ±0.0 ties keep the earlier one).
        self.sum += v;
        self.min = stats::fold_min(self.min, v);
        self.max = stats::fold_max(self.max, v);
        self.values.push(v);
    }

    /// Adds every sample of `vs`, in order.
    pub fn extend(&mut self, vs: &[f64]) {
        for &v in vs {
            self.push(v);
        }
    }

    /// Number of samples pushed so far.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no samples have been pushed.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The samples in push order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Running mean: the batch `mean` (0 for an empty stream) computed
    /// from the maintained sum — no re-scan.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.sum / self.values.len() as f64
        }
    }

    /// Population standard deviation (0 for fewer than two samples).
    ///
    /// Second pass over the retained sample by definition; uses the
    /// *running* mean, which is bit-identical to the batch mean.
    pub fn std_dev(&self) -> f64 {
        if self.values.len() < 2 {
            return 0.0;
        }
        let m = self.mean();
        (self.values.iter().map(|x| (x - m).powi(2)).sum::<f64>() / self.values.len() as f64).sqrt()
    }

    /// Five-number summary of everything pushed so far, equal to
    /// `Summary::of(self.values())` bit for bit.
    pub fn summary(&self) -> Summary {
        Summary {
            n: self.values.len(),
            mean: self.mean(),
            std_dev: self.std_dev(),
            min: self.min,
            max: self.max,
        }
    }

    /// Normal-approximation CI for the mean, equal to the batch
    /// [`crate::agg::mean_ci_normal`] over the same sample.
    ///
    /// # Panics
    /// Panics on an empty stream or a confidence outside `[0.5, 0.999]`.
    pub fn mean_ci_normal(&self, confidence: f64) -> Ci {
        assert!(
            !self.values.is_empty(),
            "confidence interval of empty sample"
        );
        let m = self.mean();
        let half = z_for(confidence) * self.std_dev() / (self.values.len() as f64).sqrt();
        Ci {
            lo: m - half,
            hi: m + half,
        }
    }

    /// Brings `sorted` up to date by stable-sorting the pending suffix and
    /// stable-merging it into the existing run.
    ///
    /// A stable sort of the whole sample equals a stable merge of the
    /// stable-sorted prefix and the stable-sorted suffix **with ties taken
    /// from the prefix** (prefix elements carry the smaller original
    /// indices). That tie rule is what keeps e.g. a `-0.0` pushed after a
    /// `0.0` in the same relative position the batch sort would leave it,
    /// so interpolated percentiles match to the bit.
    fn refresh_sorted(&mut self) {
        if self.sorted_len == self.values.len() {
            return;
        }
        let mut pending: Vec<f64> = self.values[self.sorted_len..].to_vec();
        pending.sort_by(|a, b| a.partial_cmp(b).expect("NaN in streamed sample"));
        let mut merged = Vec::with_capacity(self.sorted.len() + pending.len());
        let (mut i, mut j) = (0, 0);
        while i < self.sorted.len() && j < pending.len() {
            let take_prefix = self.sorted[i]
                .partial_cmp(&pending[j])
                .expect("NaN in streamed sample")
                != std::cmp::Ordering::Greater;
            if take_prefix {
                merged.push(self.sorted[i]);
                i += 1;
            } else {
                merged.push(pending[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&self.sorted[i..]);
        merged.extend_from_slice(&pending[j..]);
        self.sorted = merged;
        self.sorted_len = self.values.len();
    }

    /// The `p`-th percentile (0–100, type-7 linear interpolation), equal
    /// to `ssync_dsp::stats::percentile` over the same sample.
    ///
    /// # Panics
    /// Panics if the stream is empty or `p` is outside `[0, 100]` (as the
    /// batch path does), or if the sample contains a NaN (which the batch
    /// path sorts last).
    pub fn percentile(&mut self, p: f64) -> f64 {
        assert!(!self.values.is_empty(), "percentile of empty slice");
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
        self.refresh_sorted();
        let rank = p / 100.0 * (self.sorted.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        if lo == hi {
            self.sorted[lo]
        } else {
            let frac = rank - lo as f64;
            self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
        }
    }

    /// Several percentiles at once, in the order requested.
    pub fn percentiles(&mut self, ps: &[f64]) -> Vec<f64> {
        ps.iter().map(|&p| self.percentile(p)).collect()
    }

    /// Empirical CDF `(value, (i+1)/n)` pairs over the current sample,
    /// equal to `ssync_dsp::stats::empirical_cdf`.
    pub fn empirical_cdf(&mut self) -> Vec<(f64, f64)> {
        self.refresh_sorted();
        let n = self.sorted.len() as f64;
        self.sorted
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, (i + 1) as f64 / n))
            .collect()
    }
}

/// Reorders `(index, item)` pairs arriving in completion order back into
/// index order.
///
/// Workers finish jobs in a nondeterministic order; a streamed fold must
/// nevertheless consume results exactly as a serial loop would. Push each
/// completed `(index, item)` here and the buffer releases the longest
/// contiguous run starting at the next unreleased index, holding
/// out-of-order items until their predecessors arrive. With `n` distinct
/// indices `0..n` pushed exactly once each (any order), the sink sees the
/// full sequence in index order.
#[derive(Debug, Clone, Default)]
pub struct ReorderBuffer<T> {
    next: usize,
    pending: std::collections::BTreeMap<usize, T>,
}

impl<T> ReorderBuffer<T> {
    /// An empty buffer expecting index 0 first.
    pub fn new() -> Self {
        ReorderBuffer {
            next: 0,
            pending: std::collections::BTreeMap::new(),
        }
    }

    /// Accepts one completed item and drains every now-contiguous item
    /// into `sink` in index order.
    ///
    /// # Panics
    /// Panics if `index` was already released or is already pending — each
    /// index must be pushed exactly once.
    pub fn push(&mut self, index: usize, item: T, mut sink: impl FnMut(usize, T)) {
        assert!(index >= self.next, "index {index} already released");
        let clash = self.pending.insert(index, item);
        assert!(clash.is_none(), "index {index} pushed twice");
        while let Some(item) = self.pending.remove(&self.next) {
            let i = self.next;
            self.next += 1;
            sink(i, item);
        }
    }

    /// The next index the buffer will release.
    pub fn next_index(&self) -> usize {
        self.next
    }

    /// How many items are parked waiting for a predecessor.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// True when nothing is parked out of order.
    pub fn is_drained(&self) -> bool {
        self.pending.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_moments_match_batch_bit_for_bit() {
        let xs: Vec<f64> = (0..257).map(|i| ((i as f64) * 0.731).sin() * 1e3).collect();
        let mut sk = OnlineSketch::new();
        for (i, &x) in xs.iter().enumerate() {
            sk.push(x);
            let prefix = &xs[..=i];
            assert_eq!(sk.mean().to_bits(), stats::mean(prefix).to_bits());
            assert_eq!(sk.std_dev().to_bits(), stats::std_dev(prefix).to_bits());
        }
        let s = sk.summary();
        let b = Summary::of(&xs);
        assert_eq!(s.n, b.n);
        assert_eq!(s.mean.to_bits(), b.mean.to_bits());
        assert_eq!(s.std_dev.to_bits(), b.std_dev.to_bits());
        assert_eq!(s.min.to_bits(), b.min.to_bits());
        assert_eq!(s.max.to_bits(), b.max.to_bits());
    }

    #[test]
    fn empty_sketch_matches_batch_edge_cases() {
        let sk = OnlineSketch::new();
        assert!(sk.is_empty());
        let s = sk.summary();
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.std_dev, 0.0);
        assert!(s.min.is_nan() && s.max.is_nan());
    }

    #[test]
    fn percentiles_match_batch_under_interleaved_queries() {
        let xs: Vec<f64> = (0..100).map(|i| (((i * 37) % 100) as f64) - 50.0).collect();
        let mut sk = OnlineSketch::new();
        for (i, &x) in xs.iter().enumerate() {
            sk.push(x);
            // Query mid-stream every few pushes: the lazy merge must not
            // disturb later results.
            if i % 7 == 0 {
                let _ = sk.percentile(50.0);
            }
        }
        for p in [0.0, 1.0, 25.0, 50.0, 90.0, 95.0, 99.0, 100.0] {
            assert_eq!(
                sk.percentile(p).to_bits(),
                stats::percentile(&xs, p).to_bits(),
                "p={p}"
            );
        }
        assert_eq!(
            sk.empirical_cdf()
                .iter()
                .map(|(v, f)| (v.to_bits(), f.to_bits()))
                .collect::<Vec<_>>(),
            stats::empirical_cdf(&xs)
                .iter()
                .map(|(v, f)| (v.to_bits(), f.to_bits()))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn stable_merge_keeps_signed_zero_order() {
        // -0.0 and 0.0 compare equal but have different bits: the stable
        // batch sort keeps push order among ties, and so must the merge —
        // including a tie across the sorted/pending run boundary.
        let xs = [0.0, -1.0, -0.0, 2.0, 0.0, -0.0];
        let mut sk = OnlineSketch::new();
        sk.extend(&xs[..3]);
        let _ = sk.percentile(50.0); // freeze a sorted run mid-stream
        sk.extend(&xs[3..]);
        for p in [0.0, 20.0, 40.0, 50.0, 60.0, 80.0, 100.0] {
            assert_eq!(
                sk.percentile(p).to_bits(),
                stats::percentile(&xs, p).to_bits(),
                "p={p}"
            );
        }
        let cdf: Vec<u64> = sk
            .empirical_cdf()
            .iter()
            .map(|(v, _)| v.to_bits())
            .collect();
        let batch: Vec<u64> = stats::empirical_cdf(&xs)
            .iter()
            .map(|(v, _)| v.to_bits())
            .collect();
        assert_eq!(cdf, batch);
    }

    #[test]
    fn mean_ci_matches_batch() {
        let xs: Vec<f64> = (0..64).map(|i| ((i % 9) as f64) * 1.75 - 3.0).collect();
        let mut sk = OnlineSketch::new();
        sk.extend(&xs);
        for conf in [0.5, 0.8, 0.9, 0.93, 0.95, 0.99, 0.999] {
            let a = sk.mean_ci_normal(conf);
            let b = crate::agg::mean_ci_normal(&xs, conf);
            assert_eq!(a.lo.to_bits(), b.lo.to_bits(), "conf={conf}");
            assert_eq!(a.hi.to_bits(), b.hi.to_bits(), "conf={conf}");
        }
    }

    #[test]
    #[should_panic(expected = "NaN in streamed sample")]
    fn nan_in_a_streamed_sample_panics() {
        let mut sk = OnlineSketch::new();
        sk.extend(&[1.0, f64::NAN, 2.0]);
        let _ = sk.percentile(50.0);
    }

    #[test]
    #[should_panic(expected = "percentile of empty slice")]
    fn empty_percentile_panics_like_the_batch_path() {
        let mut sk = OnlineSketch::new();
        let _ = sk.percentile(50.0);
    }

    #[test]
    fn reorder_buffer_releases_in_index_order() {
        // Worst case: reverse completion order parks everything until the
        // final push, then releases the whole run at once.
        let mut buf = ReorderBuffer::new();
        let mut seen = Vec::new();
        for i in (0..8).rev() {
            buf.push(i, i * 10, |idx, v| seen.push((idx, v)));
        }
        assert_eq!(seen, (0..8).map(|i| (i, i * 10)).collect::<Vec<_>>());
        assert!(buf.is_drained());
        assert_eq!(buf.next_index(), 8);
    }

    #[test]
    fn reorder_buffer_interleaved_arrivals() {
        let order = [3usize, 0, 4, 1, 6, 2, 5];
        let mut buf = ReorderBuffer::new();
        let mut seen = Vec::new();
        for &i in &order {
            buf.push(i, i, |idx, v| seen.push((idx, v)));
        }
        assert_eq!(seen, (0..7).map(|i| (i, i)).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "pushed twice")]
    fn reorder_buffer_rejects_duplicate_index() {
        let mut buf = ReorderBuffer::new();
        buf.push(2, (), |_, _| {});
        buf.push(2, (), |_, _| {});
    }

    #[test]
    #[should_panic(expected = "already released")]
    fn reorder_buffer_rejects_released_index() {
        let mut buf = ReorderBuffer::new();
        buf.push(0, (), |_, _| {});
        buf.push(0, (), |_, _| {});
    }
}
