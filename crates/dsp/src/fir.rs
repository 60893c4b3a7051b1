//! Output-stationary FIR kernels for medium synthesis and detection.
//!
//! The medium builds every received copy of a waveform with two linear
//! convolutions: the link's complex multipath taps ([`convolve_complex_into`])
//! and the real windowed-sinc interpolator of a sub-sample arrival
//! ([`convolve_real_into`], with the interpolator's `lead`/`trim`
//! placement). The detector's LTS correlation is the valid part of a
//! complex convolution ([`convolve_complex_valid_into`]). All compute each
//! output sample as one dot product,
//!
//! ```text
//! y[t] = Σ x[i]·h[t − i]   over every valid i, ascending (tap index descending),
//! ```
//!
//! accumulated from `+0.0`. That is exactly the operation sequence of the
//! input-stationary scatter loop (`out[i + j] += x[i]·h[j]`) these kernels
//! replace, so the output bits are the scatter's bits.
//!
//! Each kernel comes in the three tiers of [`crate::simd`] (see DESIGN.md
//! "The SIMD layer and kernel tiers"):
//!
//! 1. **AVX2** — explicit 256-bit intrinsics on the interleaved samples,
//!    two complex outputs per register, eight outputs per block; chosen at
//!    runtime when the `simd` feature is on and the CPU reports AVX2.
//! 2. **Lanes** — the portable [`C64x4`] form, four outputs per block.
//! 3. **Scalar** — one output at a time; the reference semantics and the
//!    `--no-default-features` build.
//!
//! The vector tiers cover only *interior* outputs, where every tap lands on
//! an input sample; the edges (fewer valid taps) and the outputs left over
//! after the last whole block run through the scalar kernel. No tier fuses
//! a multiply-add or reassociates a sum, so all three are bit-identical.

use crate::complex::Complex64;
use crate::simd::{C64x4, F64x4, LANES, SIMD_ENABLED};

/// Full linear convolution of `x` with complex taps `h`, into `out`
/// (cleared and refilled to `x.len() + h.len() − 1` samples, so a reused
/// buffer makes the call allocation-free).
///
/// Each product is the scalar `x[i] * h[j]`; each output sums its products
/// over input index ascending from `+0.0`.
///
/// # Panics
/// Panics if both `x` and `h` are empty (the length is undefined).
pub fn convolve_complex_into(x: &[Complex64], h: &[Complex64], out: &mut Vec<Complex64>) {
    convolve_into(x, h, 0, 0, out, best_tier());
}

/// Full linear convolution of `x` with real taps `h`, placed into `out`:
/// the first `trim` outputs of the convolution are dropped and `lead` zero
/// samples are written ahead of the rest, so `out` (cleared and refilled)
/// holds `lead + x.len() + h.len() − 1 − trim` samples.
///
/// Each product is `x[i].scale(h[j])`; each output sums its products over
/// input index ascending from `+0.0`.
///
/// # Panics
/// Panics if both `x` and `h` are empty, or if `trim` exceeds the
/// convolution length.
pub fn convolve_real_into(
    x: &[Complex64],
    h: &[f64],
    lead: usize,
    trim: usize,
    out: &mut Vec<Complex64>,
) {
    convolve_into(x, h, lead, trim, out, best_tier());
}

/// The valid part of the complex convolution of `x` with taps `h`: the
/// outputs `h.len() − 1 .. x.len()`, where every tap lands on an input
/// sample, into `out` (cleared and refilled to `x.len() − h.len() + 1`
/// samples; left empty when `h` is empty or longer than `x`).
///
/// Each output is the corresponding output of [`convolve_complex_into`],
/// bit for bit. With `h` the reversed, conjugated template this is the
/// sliding cross-correlation `Σ_m x[t + m]·conj(template[m])`, summed over
/// `m` ascending from `+0.0` (see [`crate::correlate::Template`]).
pub fn convolve_complex_valid_into(x: &[Complex64], h: &[Complex64], out: &mut Vec<Complex64>) {
    valid_into(x, h, out, best_tier());
}

/// [`convolve_complex_valid_into`] on an explicit tier.
fn valid_into(x: &[Complex64], h: &[Complex64], out: &mut Vec<Complex64>, tier: Tier) {
    out.clear();
    if h.is_empty() || x.len() < h.len() {
        return;
    }
    out.resize(x.len() - h.len() + 1, Complex64::ZERO);
    fill(x, h, h.len() - 1, out, tier);
}

/// The shared body of both public kernels, on an explicit tier.
fn convolve_into<T: Tap>(
    x: &[Complex64],
    h: &[T],
    lead: usize,
    trim: usize,
    out: &mut Vec<Complex64>,
    tier: Tier,
) {
    assert!(
        !(x.is_empty() && h.is_empty()),
        "convolution of two empty sequences"
    );
    let conv_len = x.len() + h.len() - 1;
    assert!(
        trim <= conv_len,
        "trim {trim} exceeds the convolution length {conv_len}"
    );
    out.clear();
    out.resize(lead + conv_len - trim, Complex64::ZERO);
    fill(x, h, trim, &mut out[lead..], tier);
}

/// One kernel tier (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    Scalar,
    Lanes,
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

/// The fastest tier this build and host allow.
fn best_tier() -> Tier {
    #[cfg(target_arch = "x86_64")]
    if SIMD_ENABLED && avx2::detected() {
        return Tier::Avx2;
    }
    if SIMD_ENABLED {
        Tier::Lanes
    } else {
        Tier::Scalar
    }
}

/// A tap type: how one input sample is weighted, in each tier's form.
trait Tap: Copy {
    /// The scalar product of the replaced scatter loop.
    fn product(x: Complex64, h: Self) -> Complex64;
    /// [`Tap::product`] on four consecutive input samples.
    fn product_lanes(x: C64x4, h: Self) -> C64x4;
    /// The AVX2 interior kernel for this tap type (see [`interior_lanes`]
    /// for the contract).
    #[cfg(target_arch = "x86_64")]
    fn interior_avx2(x: &[Complex64], h: &[Self], t0: usize, dst: &mut [Complex64]) -> usize;
}

impl Tap for Complex64 {
    #[inline(always)]
    fn product(x: Complex64, h: Self) -> Complex64 {
        x * h
    }

    #[inline(always)]
    fn product_lanes(x: C64x4, h: Self) -> C64x4 {
        x.mul(C64x4::splat(h))
    }

    #[cfg(target_arch = "x86_64")]
    fn interior_avx2(x: &[Complex64], h: &[Self], t0: usize, dst: &mut [Complex64]) -> usize {
        avx2::interior_complex(x, h, t0, dst)
    }
}

impl Tap for f64 {
    #[inline(always)]
    fn product(x: Complex64, h: Self) -> Complex64 {
        x.scale(h)
    }

    #[inline(always)]
    fn product_lanes(x: C64x4, h: Self) -> C64x4 {
        let k = F64x4::splat(h);
        C64x4 {
            re: x.re.mul(k),
            im: x.im.mul(k),
        }
    }

    #[cfg(target_arch = "x86_64")]
    fn interior_avx2(x: &[Complex64], h: &[Self], t0: usize, dst: &mut [Complex64]) -> usize {
        avx2::interior_real(x, h, t0, dst)
    }
}

/// Output `t` of the full convolution: the scalar kernel.
#[inline(always)]
fn output<T: Tap>(x: &[Complex64], h: &[T], t: usize) -> Complex64 {
    let mut acc = Complex64::ZERO;
    for i in (t + 1).saturating_sub(h.len())..(t + 1).min(x.len()) {
        acc += T::product(x[i], h[t - i]);
    }
    acc
}

/// Writes `dst[k] = y[t0 + k]` for the full convolution `y = x * h`: the
/// edges through the scalar kernel, the interior through `tier`.
fn fill<T: Tap>(x: &[Complex64], h: &[T], t0: usize, dst: &mut [Complex64], tier: Tier) {
    let end = t0 + dst.len();
    // Interior outputs t ∈ [h.len() − 1, x.len()) see every tap.
    let lo = h.len().saturating_sub(1).clamp(t0, end);
    let hi = x.len().clamp(lo, end);
    for t in t0..lo {
        dst[t - t0] = output(x, h, t);
    }
    let interior = &mut dst[lo - t0..hi - t0];
    let done = match tier {
        _ if interior.is_empty() => 0,
        Tier::Scalar => 0,
        Tier::Lanes => interior_lanes(x, h, lo, interior),
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => T::interior_avx2(x, h, lo, interior),
    };
    for t in lo + done..end {
        dst[t - t0] = output(x, h, t);
    }
}

/// Writes interior outputs `t0, t0 + 1, …` into `dst` in whole blocks of
/// four lanes and returns how many it wrote; the caller finishes the rest
/// with the scalar kernel. Every output in `t0..t0 + dst.len()` must be
/// interior (`t0 + 1 ≥ h.len()`, `t0 + dst.len() ≤ x.len()`).
fn interior_lanes<T: Tap>(x: &[Complex64], h: &[T], t0: usize, dst: &mut [Complex64]) -> usize {
    let mut k = 0;
    while k + LANES <= dst.len() {
        let t = t0 + k;
        let mut acc = C64x4::ZERO;
        for (j, &tap) in h.iter().enumerate().rev() {
            acc = acc.add(T::product_lanes(C64x4::load(x, t - j), tap));
        }
        acc.store(dst, k);
        k += LANES;
    }
    k
}

// The AVX2 tier, and with it the crate's only unsafe code: raw-pointer
// loads and stores inside `#[target_feature]` kernels. The safe entry
// points check for AVX2 and for an interior range before every call.
#[allow(unsafe_code)]
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use crate::complex::Complex64;
    use std::arch::x86_64::*;

    // The kernels read a `&[Complex64]` as interleaved `re, im` doubles.
    const _: () = assert!(std::mem::size_of::<Complex64>() == 16);
    const _: () = assert!(std::mem::offset_of!(Complex64, re) == 0);
    const _: () = assert!(std::mem::offset_of!(Complex64, im) == 8);

    /// `true` when the host CPU supports AVX2 (cached by `std`).
    pub(super) fn detected() -> bool {
        std::arch::is_x86_feature_detected!("avx2")
    }

    /// Checks the preconditions every kernel below relies on.
    fn check<T>(x: &[Complex64], h: &[T], t0: usize, dst: &[Complex64]) {
        assert!(detected(), "AVX2 FIR kernel on a host without AVX2");
        assert!(
            t0 + 1 >= h.len() && t0 + dst.len() <= x.len(),
            "AVX2 FIR kernel outside the interior"
        );
    }

    /// Complex-tap interior outputs in blocks of eight (contract of
    /// `super::interior_lanes`).
    pub(super) fn interior_complex(
        x: &[Complex64],
        h: &[Complex64],
        t0: usize,
        dst: &mut [Complex64],
    ) -> usize {
        check(x, h, t0, dst);
        // SAFETY: `check` verified AVX2 support and that every output in
        // `t0..t0 + dst.len()` is interior.
        unsafe { complex_blocks(x, h, t0, dst) }
    }

    /// Real-tap interior outputs in blocks of eight (contract of
    /// `super::interior_lanes`).
    pub(super) fn interior_real(
        x: &[Complex64],
        h: &[f64],
        t0: usize,
        dst: &mut [Complex64],
    ) -> usize {
        check(x, h, t0, dst);
        // SAFETY: `check` verified AVX2 support and that every output in
        // `t0..t0 + dst.len()` is interior.
        unsafe { real_blocks(x, h, t0, dst) }
    }

    /// `x·h` for the two interleaved samples in `v`, term for term the
    /// scalar `Complex64` product: `re = x.re·h.re − x.im·h.im` and
    /// `im = x.im·h.re + x.re·h.im`, which is the scalar
    /// `x.re·h.im + x.im·h.re` because IEEE addition commutes.
    ///
    /// # Safety
    /// The host CPU must support AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn cmul(v: __m256d, h_re: __m256d, h_im: __m256d) -> __m256d {
        let swapped = _mm256_permute_pd::<0b0101>(v);
        _mm256_addsub_pd(_mm256_mul_pd(v, h_re), _mm256_mul_pd(swapped, h_im))
    }

    /// # Safety
    /// The host CPU must support AVX2, and every output in
    /// `t0..t0 + dst.len()` must be interior, so output `t0 + k` reads
    /// `x[t0 + k + 1 − h.len() ..= t0 + k]` in bounds.
    #[target_feature(enable = "avx2")]
    unsafe fn complex_blocks(
        x: &[Complex64],
        h: &[Complex64],
        t0: usize,
        dst: &mut [Complex64],
    ) -> usize {
        let xp = x.as_ptr().cast::<f64>();
        let dp = dst.as_mut_ptr().cast::<f64>();
        let n = dst.len();
        let mut k = 0;
        // SAFETY: each block reads the samples of outputs t0+k .. t0+k+7,
        // all interior by the caller's contract, and writes dst[k .. k+8]
        // with k + 8 ≤ n.
        unsafe {
            while k + 8 <= n {
                let (mut a0, mut a1, mut a2, mut a3) = (
                    _mm256_setzero_pd(),
                    _mm256_setzero_pd(),
                    _mm256_setzero_pd(),
                    _mm256_setzero_pd(),
                );
                for (j, tap) in h.iter().enumerate().rev() {
                    let h_re = _mm256_set1_pd(tap.re);
                    let h_im = _mm256_set1_pd(tap.im);
                    let p = xp.add(2 * (t0 + k - j));
                    a0 = _mm256_add_pd(a0, cmul(_mm256_loadu_pd(p), h_re, h_im));
                    a1 = _mm256_add_pd(a1, cmul(_mm256_loadu_pd(p.add(4)), h_re, h_im));
                    a2 = _mm256_add_pd(a2, cmul(_mm256_loadu_pd(p.add(8)), h_re, h_im));
                    a3 = _mm256_add_pd(a3, cmul(_mm256_loadu_pd(p.add(12)), h_re, h_im));
                }
                let q = dp.add(2 * k);
                _mm256_storeu_pd(q, a0);
                _mm256_storeu_pd(q.add(4), a1);
                _mm256_storeu_pd(q.add(8), a2);
                _mm256_storeu_pd(q.add(12), a3);
                k += 8;
            }
        }
        k
    }

    /// # Safety
    /// As for [`complex_blocks`].
    #[target_feature(enable = "avx2")]
    unsafe fn real_blocks(x: &[Complex64], h: &[f64], t0: usize, dst: &mut [Complex64]) -> usize {
        let xp = x.as_ptr().cast::<f64>();
        let dp = dst.as_mut_ptr().cast::<f64>();
        let n = dst.len();
        let mut k = 0;
        // SAFETY: as in `complex_blocks` — interior reads, in-bounds writes.
        unsafe {
            while k + 8 <= n {
                let (mut a0, mut a1, mut a2, mut a3) = (
                    _mm256_setzero_pd(),
                    _mm256_setzero_pd(),
                    _mm256_setzero_pd(),
                    _mm256_setzero_pd(),
                );
                for (j, &tap) in h.iter().enumerate().rev() {
                    // `x.scale(tap)` multiplies re and im by the same tap.
                    let g = _mm256_set1_pd(tap);
                    let p = xp.add(2 * (t0 + k - j));
                    a0 = _mm256_add_pd(a0, _mm256_mul_pd(_mm256_loadu_pd(p), g));
                    a1 = _mm256_add_pd(a1, _mm256_mul_pd(_mm256_loadu_pd(p.add(4)), g));
                    a2 = _mm256_add_pd(a2, _mm256_mul_pd(_mm256_loadu_pd(p.add(8)), g));
                    a3 = _mm256_add_pd(a3, _mm256_mul_pd(_mm256_loadu_pd(p.add(12)), g));
                }
                let q = dp.add(2 * k);
                _mm256_storeu_pd(q, a0);
                _mm256_storeu_pd(q.add(4), a1);
                _mm256_storeu_pd(q.add(8), a2);
                _mm256_storeu_pd(q.add(12), a3);
                k += 8;
            }
        }
        k
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Test-only copy of the complex scatter loop `Multipath::apply_into`
    /// ran before this module: the bit-exact reference.
    pub(crate) fn scatter_complex(x: &[Complex64], h: &[Complex64]) -> Vec<Complex64> {
        let mut out = vec![Complex64::ZERO; x.len() + h.len() - 1];
        for (i, s) in x.iter().enumerate() {
            for (j, k) in h.iter().enumerate() {
                out[i + j] += *s * *k;
            }
        }
        out
    }

    /// Test-only copy of the real scatter loop `fractional_delay_into` ran
    /// before this module, with its `lead`/`trim` placement.
    pub(crate) fn scatter_real(
        x: &[Complex64],
        h: &[f64],
        lead: usize,
        trim: usize,
    ) -> Vec<Complex64> {
        let conv_len = x.len() + h.len() - 1;
        let mut out = vec![Complex64::ZERO; lead + conv_len - trim];
        for (i, s) in x.iter().enumerate() {
            for (j, k) in h.iter().enumerate() {
                let t = i + j;
                if t >= trim {
                    out[lead + t - trim] += s.scale(*k);
                }
            }
        }
        out
    }

    /// Every tier this host can run, AVX2 only when detected (the lanes
    /// tier runs even when the `simd` feature is off).
    fn tiers() -> Vec<Tier> {
        #[allow(unused_mut)] // only x86-64 hosts add the AVX2 tier
        let mut tiers = vec![Tier::Scalar, Tier::Lanes];
        #[cfg(target_arch = "x86_64")]
        if avx2::detected() {
            tiers.push(Tier::Avx2);
        }
        tiers
    }

    /// A random value that is sometimes an exact `±0.0`, so signed-zero
    /// sums are exercised too.
    fn value(rng: &mut StdRng) -> f64 {
        match rng.gen_range(0..10) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-2.0..2.0),
        }
    }

    pub(crate) fn signal(rng: &mut StdRng, n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|_| Complex64::new(value(rng), value(rng)))
            .collect()
    }

    /// A dirty, over-sized buffer: the kernels must clear it.
    fn dirty() -> Vec<Complex64> {
        vec![Complex64::new(f64::NAN, -7.0); 700]
    }

    pub(crate) fn assert_bits_eq(got: &[Complex64], want: &[Complex64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (t, (a, b)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                (a.re.to_bits(), a.im.to_bits()),
                (b.re.to_bits(), b.im.to_bits()),
                "{what}: output {t}: {a:?} vs {b:?}"
            );
        }
    }

    /// [`convolve_complex_valid_into`] on every tier this host can run,
    /// each output labelled with its tier.
    pub(crate) fn valid_on_every_tier(
        x: &[Complex64],
        h: &[Complex64],
    ) -> Vec<(String, Vec<Complex64>)> {
        tiers()
            .into_iter()
            .map(|tier| {
                let mut out = dirty();
                valid_into(x, h, &mut out, tier);
                (format!("{tier:?}"), out)
            })
            .collect()
    }

    /// Empty, one sample, shorter than the taps, and long.
    const LENGTHS: [usize; 9] = [0, 1, 2, 3, 7, 16, 39, 64, 301];

    #[test]
    fn complex_kernel_matches_the_scatter_on_every_tier() {
        let mut rng = StdRng::seed_from_u64(61);
        for taps in 1..=40 {
            let h = signal(&mut rng, taps);
            for &n in &LENGTHS {
                let x = signal(&mut rng, n);
                let want = scatter_complex(&x, &h);
                for tier in tiers() {
                    let mut out = dirty();
                    convolve_into(&x, &h, 0, 0, &mut out, tier);
                    assert_bits_eq(&out, &want, &format!("{tier:?} n={n} taps={taps}"));
                }
            }
        }
    }

    #[test]
    fn real_kernel_matches_the_scatter_on_every_tier() {
        let mut rng = StdRng::seed_from_u64(62);
        for taps in 1..=40 {
            let h: Vec<f64> = (0..taps).map(|_| value(&mut rng)).collect();
            for &n in &LENGTHS {
                let x = signal(&mut rng, n);
                let conv_len = n + taps - 1;
                let placements = [(0, 0), (5, 0), (0, 1), (0, taps / 2), (3, conv_len)];
                for (lead, trim) in placements.into_iter().filter(|&(_, t)| t <= conv_len) {
                    let want = scatter_real(&x, &h, lead, trim);
                    for tier in tiers() {
                        let mut out = dirty();
                        convolve_into(&x, &h, lead, trim, &mut out, tier);
                        let what = format!("{tier:?} n={n} taps={taps} lead={lead} trim={trim}");
                        assert_bits_eq(&out, &want, &what);
                    }
                }
            }
        }
    }

    #[test]
    fn sinc_placements_match_the_scatter_on_every_tier() {
        // The interpolator's own kernel at the placements each branch of
        // `fractional_delay_into` produces: trim (integer part below the
        // latency), the boundary, and lead.
        let latency = crate::delay::SINC_HALF_WIDTH - 1;
        let mut rng = StdRng::seed_from_u64(63);
        for &n in &LENGTHS {
            let x = signal(&mut rng, n);
            for int_part in [0, 1, latency - 1, latency, latency + 1, 40] {
                let (lead, trim) = if int_part >= latency {
                    (int_part - latency, 0)
                } else {
                    (0, latency - int_part)
                };
                let h = crate::delay::tests::fractional_kernel(0.37);
                let want = scatter_real(&x, &h, lead, trim);
                for tier in tiers() {
                    let mut out = dirty();
                    convolve_into(&x, &h, lead, trim, &mut out, tier);
                    assert_bits_eq(&out, &want, &format!("{tier:?} n={n} int={int_part}"));
                }
            }
        }
    }

    #[test]
    fn public_entry_points_use_a_matching_tier() {
        let mut rng = StdRng::seed_from_u64(64);
        let x = signal(&mut rng, 1000);
        let h = signal(&mut rng, 25);
        let mut out = dirty();
        convolve_complex_into(&x, &h, &mut out);
        assert_bits_eq(&out, &scatter_complex(&x, &h), "complex");
        let k = crate::delay::tests::fractional_kernel(0.5);
        convolve_real_into(&x, &k, 2, 0, &mut out);
        assert_bits_eq(&out, &scatter_real(&x, &k, 2, 0), "real");
    }

    #[test]
    fn best_tier_follows_the_feature_and_the_host() {
        let tier = best_tier();
        if !SIMD_ENABLED {
            assert_eq!(tier, Tier::Scalar);
        } else {
            assert_eq!(tier, *tiers().last().unwrap());
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the convolution length")]
    fn rejects_a_trim_past_the_end() {
        let mut out = Vec::new();
        convolve_real_into(&[Complex64::ONE], &[1.0, 2.0], 0, 3, &mut out);
    }
}
