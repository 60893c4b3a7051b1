//! Integer and fractional sample delays.
//!
//! Propagation delays in the simulator are kept in femtoseconds, which rarely
//! falls on a sample boundary (a 128 Msps sample is 7 812 500 fs). When a
//! waveform is placed on the medium, its sub-sample delay component is
//! realised by a windowed-sinc fractional-delay filter — an all-pass
//! interpolation that is exactly the physics of a band-limited signal
//! arriving "between" receiver sampling instants. SourceSync's
//! detection-delay estimator (paper §4.2) recovers precisely this fractional
//! shift from the channel phase slope, so the fidelity of this module is what
//! makes the Fig. 12 sync-error experiment meaningful.

use crate::complex::Complex64;
use std::f64::consts::PI;

/// Half-width (in taps) of the windowed-sinc interpolation kernel.
/// 16 taps each side gives ≈ −90 dB interpolation error for in-band signals.
pub const SINC_HALF_WIDTH: usize = 16;

/// Delays a waveform by a non-negative integer number of samples, prepending
/// zeros (output length grows by `shift`). `out` is cleared and refilled, so
/// its capacity is reused across calls (no steady-state allocation once it
/// has grown to the working size).
pub fn integer_delay_into(signal: &[Complex64], shift: usize, out: &mut Vec<Complex64>) {
    out.clear();
    out.resize(shift, Complex64::ZERO);
    out.extend_from_slice(signal);
}

/// Normalised sinc: `sin(πx)/(πx)` with `sinc(0) = 1`.
#[inline]
pub fn sinc(x: f64) -> f64 {
    if x.abs() < 1e-12 {
        1.0
    } else {
        (PI * x).sin() / (PI * x)
    }
}

/// Blackman window of length `n` evaluated at index `i`.
#[inline]
fn blackman(i: usize, n: usize) -> f64 {
    if n <= 1 {
        return 1.0;
    }
    let x = i as f64 / (n - 1) as f64;
    0.42 - 0.5 * (2.0 * PI * x).cos() + 0.08 * (4.0 * PI * x).cos()
}

/// The windowed-sinc kernel for a fractional delay `mu` in `[0, 1)`, into a
/// caller-owned buffer (cleared and refilled; capacity reused across calls).
///
/// The kernel has `2·SINC_HALF_WIDTH` taps; convolving with it delays the
/// signal by `SINC_HALF_WIDTH - 1 + mu` samples total (the integer part is a
/// filter-latency constant the caller compensates).
pub fn fractional_kernel_into(mu: f64, kernel: &mut Vec<f64>) {
    assert!((0.0..1.0).contains(&mu), "mu must be in [0,1), got {mu}");
    let n = 2 * SINC_HALF_WIDTH;
    kernel.clear();
    for i in 0..n {
        let k = i as f64 - (SINC_HALF_WIDTH - 1) as f64;
        let x = k - mu;
        kernel.push(sinc(x) * blackman(i, n));
    }
    // Normalise to unit DC gain so delays don't change signal power.
    let s: f64 = kernel.iter().sum();
    if s.abs() > 1e-12 {
        for v in kernel.iter_mut() {
            *v /= s;
        }
    }
}

/// Reusable scratch for [`fractional_delay_into`]: holds the interpolation
/// kernel between calls so the steady-state delay path does not allocate.
#[derive(Debug, Clone, Default)]
pub struct DelayWorkspace {
    kernel: Vec<f64>,
}

impl DelayWorkspace {
    /// An empty workspace; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        DelayWorkspace::default()
    }
}

/// Delays a waveform by an arbitrary non-negative real number of samples.
///
/// The integer part is realised by zero-prefixing; the fractional part by
/// windowed-sinc interpolation. The output is longer than the input by
/// `ceil(delay) + 2·SINC_HALF_WIDTH` samples of filter spill, but sample `i`
/// of the *input* appears (band-limited-interpolated) at output index
/// `i + delay` exactly, so callers can reason in input coordinates.
///
/// `out` is cleared and refilled and `ws` holds the kernel scratch, so after
/// the first call at a given working size the path performs no heap
/// allocation; the output bits do not depend on what `ws` held before.
pub fn fractional_delay_into(
    signal: &[Complex64],
    delay: f64,
    ws: &mut DelayWorkspace,
    out: &mut Vec<Complex64>,
) {
    assert!(
        delay >= 0.0 && delay.is_finite(),
        "delay must be finite and >= 0, got {delay}"
    );
    let int_part = delay.floor() as usize;
    let mu = delay - int_part as f64;
    if mu == 0.0 {
        integer_delay_into(signal, int_part, out);
        return;
    }
    fractional_kernel_into(mu, &mut ws.kernel);
    let kernel = &ws.kernel;
    // Convolve; kernel latency is SINC_HALF_WIDTH - 1 samples which we absorb
    // into the integer shift. The wanted total shift is int_part + mu and the
    // convolution already delays by latency + mu, so the output is the
    // convolution placed (int_part - latency) samples in — or trimmed by the
    // difference when that is negative.
    let latency = SINC_HALF_WIDTH - 1;
    let (lead, trim) = if int_part >= latency {
        (int_part - latency, 0)
    } else {
        (0, latency - int_part)
    };
    crate::fir::convolve_real_into(signal, kernel, lead, trim, out);
}

/// Applies a frequency-domain phase ramp corresponding to a (possibly
/// fractional, possibly negative) circular time shift of `delay` samples to a
/// length-N spectrum: bin `k` (in FFT order) is multiplied by
/// `e^{−j2π·k̃·delay/N}` where `k̃` is the signed bin index.
///
/// This is the *definition* the SourceSync slope estimator inverts, and the
/// test oracle for [`fractional_delay_into`].
pub fn spectrum_delay(spectrum: &mut [Complex64], delay: f64) {
    let n = spectrum.len();
    for (k, v) in spectrum.iter_mut().enumerate() {
        // Signed bin index: bins above N/2 represent negative frequencies.
        let k_signed = if k <= n / 2 {
            k as f64
        } else {
            k as f64 - n as f64
        };
        *v *= Complex64::cis(-2.0 * PI * k_signed * delay / n as f64);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::fft::FftPlan;
    use crate::rng::ComplexGaussian;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// [`integer_delay_into`] into a fresh buffer.
    fn integer_delay(signal: &[Complex64], shift: usize) -> Vec<Complex64> {
        let mut out = Vec::new();
        integer_delay_into(signal, shift, &mut out);
        out
    }

    /// [`fractional_kernel_into`] into a fresh buffer.
    pub(crate) fn fractional_kernel(mu: f64) -> Vec<f64> {
        let mut kernel = Vec::new();
        fractional_kernel_into(mu, &mut kernel);
        kernel
    }

    /// [`fractional_delay_into`] through a fresh workspace and buffer.
    fn fractional_delay(signal: &[Complex64], delay: f64) -> Vec<Complex64> {
        let mut out = Vec::new();
        fractional_delay_into(signal, delay, &mut DelayWorkspace::new(), &mut out);
        out
    }

    /// Generates a band-limited random signal (occupying the central half of
    /// the band) so that sinc interpolation is accurate.
    fn bandlimited_signal(seed: u64, n: usize) -> Vec<Complex64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let gauss = ComplexGaussian::unit();
        let fft = FftPlan::new(n);
        let mut spec = vec![Complex64::ZERO; n];
        // Occupy bins within ±N/4 of DC.
        for (k, bin) in spec.iter_mut().enumerate() {
            let k_signed = if k <= n / 2 {
                k as isize
            } else {
                k as isize - n as isize
            };
            if k_signed.unsigned_abs() < n / 4 {
                *bin = gauss.sample(&mut rng);
            }
        }
        fft.inverse_to_vec(&spec)
    }

    #[test]
    fn integer_delay_shifts_exactly() {
        let sig = vec![Complex64::ONE, Complex64::J];
        let out = integer_delay(&sig, 3);
        assert_eq!(out.len(), 5);
        assert_eq!(out[0], Complex64::ZERO);
        assert_eq!(out[3], Complex64::ONE);
        assert_eq!(out[4], Complex64::J);
    }

    #[test]
    fn half_sample_delay_matches_spectral_oracle() {
        let n = 256;
        let sig = bandlimited_signal(20, n);
        let delayed = fractional_delay(&sig, 0.5);
        // Oracle: circular spectral shift. Compare on the interior where the
        // linear and circular versions agree.
        let fft = FftPlan::new(n);
        let mut spec = fft.forward_to_vec(&sig);
        spectrum_delay(&mut spec, 0.5);
        let oracle = fft.inverse_to_vec(&spec);
        for t in 32..n - 32 {
            assert!(
                delayed[t].dist(oracle[t]) < 2e-5,
                "t={t} got {:?} want {:?}",
                delayed[t],
                oracle[t]
            );
        }
    }

    #[test]
    fn fractional_delay_reduces_to_integer_case() {
        let sig = bandlimited_signal(21, 128);
        let a = fractional_delay(&sig, 5.0);
        let b = integer_delay(&sig, 5);
        for (x, y) in a.iter().zip(&b) {
            assert!(x.dist(*y) < 1e-12);
        }
    }

    #[test]
    fn cascade_of_fractional_delays_composes() {
        let n = 256;
        let sig = bandlimited_signal(22, n);
        let once = fractional_delay(&sig, 0.7);
        let twice = fractional_delay(&once, 0.6);
        let direct = fractional_delay(&sig, 1.3);
        for t in 64..n - 64 {
            assert!(twice[t].dist(direct[t]) < 1e-5, "t={t}");
        }
    }

    #[test]
    fn delay_preserves_power() {
        let sig = bandlimited_signal(23, 256);
        let p_in = crate::complex::mean_power(&sig);
        let out = fractional_delay(&sig, 2.37);
        let p_out = crate::complex::energy(&out) / sig.len() as f64;
        assert!((p_in - p_out).abs() / p_in < 1e-3, "in {p_in} out {p_out}");
    }

    #[test]
    fn kernel_is_normalised() {
        for &mu in &[0.1, 0.25, 0.5, 0.75, 0.9] {
            let k = fractional_kernel(mu);
            let s: f64 = k.iter().sum();
            assert!((s - 1.0).abs() < 1e-12, "mu={mu} sum={s}");
        }
    }

    #[test]
    fn spectrum_delay_integer_matches_rotation() {
        let n = 64;
        let sig = bandlimited_signal(24, n);
        let fft = FftPlan::new(n);
        let mut spec = fft.forward_to_vec(&sig);
        spectrum_delay(&mut spec, 3.0);
        let rotated = fft.inverse_to_vec(&spec);
        for t in 0..n {
            assert!(rotated[t].dist(sig[(t + n - 3) % n]) < 1e-9, "t={t}");
        }
    }

    #[test]
    #[should_panic(expected = "delay must be finite")]
    fn rejects_negative_delay() {
        let _ = fractional_delay(&[Complex64::ONE], -1.0);
    }

    #[test]
    fn delay_into_bitwise_matches_allocating_path() {
        // One reused workspace + output buffer across many delays must give
        // exactly the bytes of a fresh workspace and buffer per call
        // (including the integer fast path and the trim/lead branches of the
        // convolution).
        let sig = bandlimited_signal(30, 128);
        let mut ws = DelayWorkspace::new();
        let mut out = Vec::new();
        for &d in &[0.0, 0.5, 3.0, 2.37, 14.9, 15.0, 15.1, 40.25] {
            fractional_delay_into(&sig, d, &mut ws, &mut out);
            assert_eq!(out, fractional_delay(&sig, d), "delay {d}");
        }
        let mut idelay = Vec::new();
        integer_delay_into(&sig, 7, &mut idelay);
        assert_eq!(idelay, integer_delay(&sig, 7));
        let mut kernel = Vec::new();
        fractional_kernel_into(0.3, &mut kernel);
        assert_eq!(kernel, fractional_kernel(0.3));
    }

    #[test]
    fn delay_matches_the_scatter_reference_on_every_branch() {
        // The integer fast path, the trim branch (integer part below the
        // kernel latency), the boundary and the lead branch, each into a
        // dirty, over-sized buffer, against the pre-kernel scatter loop.
        let latency = SINC_HALF_WIDTH - 1;
        let sig = bandlimited_signal(31, 128);
        let mut ws = DelayWorkspace::new();
        let mut out = vec![Complex64::new(f64::NAN, 1.0); 999];
        for d in [
            0.0,
            6.0,
            0.5,
            3.37,
            (latency - 1) as f64 + 0.9,
            latency as f64 + 0.25,
            40.75,
        ] {
            fractional_delay_into(&sig, d, &mut ws, &mut out);
            let int_part = d.floor() as usize;
            let mu = d - int_part as f64;
            let want = if mu == 0.0 {
                integer_delay(&sig, int_part)
            } else if int_part >= latency {
                crate::fir::tests::scatter_real(&sig, &fractional_kernel(mu), int_part - latency, 0)
            } else {
                crate::fir::tests::scatter_real(&sig, &fractional_kernel(mu), 0, latency - int_part)
            };
            assert_eq!(out.len(), want.len(), "delay {d}");
            for (a, b) in out.iter().zip(&want) {
                assert_eq!(
                    (a.re.to_bits(), a.im.to_bits()),
                    (b.re.to_bits(), b.im.to_bits()),
                    "delay {d}"
                );
            }
        }
    }

    #[test]
    fn sinc_at_zero_and_integers() {
        assert_eq!(sinc(0.0), 1.0);
        for k in 1..5 {
            assert!(sinc(k as f64).abs() < 1e-12);
        }
    }
}
