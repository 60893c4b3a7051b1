//! Complex mixing: applying carrier-frequency offsets to baseband waveforms.
//!
//! A transmitter whose oscillator runs `Δf` Hz away from the receiver's
//! appears at baseband multiplied by `e^{j2πΔf·t}`. Both the channel
//! emulator (applying real offsets) and the receiver (correcting estimated
//! offsets) use this one function, so conventions cannot drift apart.
//!
//! **Anchored phasor tables.** A per-sample `cis` costs a libm `sin` and
//! `cos`. Instead, the absolute position `p = n + ⌊origin⌋` of sample `n`
//! splits into a block anchor `A = p − (p mod B)` and an offset
//! `j = p mod B`, and the sample is multiplied by `anchor(A)·t[j]`:
//! `anchor(A) = cis(step·(A + frac(origin)))` is one libm `cis` per block,
//! `t[j] = cis(step·j)` a table built once per call. No recurrence, so no
//! error grows along the buffer. Anchors sit on the absolute index, so
//! rotating `x[a..]` from origin `a + o` gives exactly the bits of rotating
//! all of `x` from `o` (for `a + o` exact in `f64`): the receiver rotates
//! only the tail it reads, and a co-sender's NCO stays continuous across
//! its training and data. One scalar kernel, no `mul_add`: every build
//! produces the same bits.

use crate::complex::Complex64;
use std::f64::consts::PI;

/// `B`: samples per anchor block, one libm `cis` each.
const BLOCK: usize = 64;

/// Rotates `samples[n]` by `e^{j2π·cfo_hz·(n + phase_origin)/sample_rate_hz}`
/// in place. `phase_origin` (in samples) lets callers keep a consistent
/// phase reference across buffers.
///
/// Error bound: with `step = 2π·cfo_hz/sample_rate_hz` and `ε` =
/// [`f64::EPSILON`], each output is within
/// `|samples[n]|·ε·(10 + 2·|step|·(|p| + B + 1))` of the per-sample
/// `samples[n]·cis(step·(n + phase_origin))`: libm and complex-multiply
/// rounding, plus the phase-angle rounding both sides share.
pub fn apply_cfo_from(
    samples: &mut [Complex64],
    cfo_hz: f64,
    sample_rate_hz: f64,
    phase_origin: f64,
) {
    let step = 2.0 * PI * cfo_hz / sample_rate_hz;
    let whole = phase_origin.floor();
    let frac = phase_origin - whole;
    let mut table = [Complex64::ZERO; BLOCK];
    for (j, t) in table.iter_mut().enumerate() {
        *t = Complex64::cis(step * j as f64);
    }
    let mut p = whole as i64;
    let mut rest = samples;
    while !rest.is_empty() {
        let j = p.rem_euclid(BLOCK as i64) as usize;
        let anchor = Complex64::cis(step * ((p - j as i64) as f64 + frac));
        let len = (BLOCK - j).min(rest.len());
        let (block, tail) = rest.split_at_mut(len);
        for (s, t) in block.iter_mut().zip(&table[j..j + len]) {
            *s *= anchor * *t;
        }
        p += len as i64;
        rest = tail;
    }
}

/// [`apply_cfo_from`] with the phase referenced to the buffer start.
pub fn apply_cfo(samples: &mut [Complex64], cfo_hz: f64, sample_rate_hz: f64) {
    apply_cfo_from(samples, cfo_hz, sample_rate_hz, 0.0);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(x: &[Complex64]) -> Vec<(u64, u64)> {
        x.iter().map(|s| (s.re.to_bits(), s.im.to_bits())).collect()
    }

    fn signal(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| Complex64::new((i as f64 * 0.37).sin() + 0.5, (i as f64 * 0.7).cos()))
            .collect()
    }

    #[test]
    fn roundtrip_cancels() {
        let mut buf: Vec<Complex64> = (0..64).map(|i| Complex64::new(i as f64, 1.0)).collect();
        let orig = buf.clone();
        apply_cfo(&mut buf, 37e3, 20e6);
        apply_cfo(&mut buf, -37e3, 20e6);
        for (a, b) in buf.iter().zip(&orig) {
            assert!(a.dist(*b) < 1e-9);
        }
    }

    #[test]
    fn zero_offset_is_identity() {
        let mut buf = vec![Complex64::new(1.0, -2.0); 8];
        apply_cfo(&mut buf, 0.0, 20e6);
        for s in &buf {
            assert!(s.dist(Complex64::new(1.0, -2.0)) < 1e-15);
        }
    }

    #[test]
    fn phase_origin_shifts_reference() {
        let one = vec![Complex64::ONE; 4];
        let mut a = one.clone();
        let mut b = one.clone();
        // Rotating b from origin 4 should equal rotating a's tail if a were
        // 8 long: check sample 0 of b equals what sample 4 would get.
        apply_cfo_from(&mut a, 1e6, 20e6, 4.0);
        apply_cfo_from(&mut b, 1e6, 20e6, 0.0);
        let step = 2.0 * PI * 1e6 / 20e6;
        assert!(a[0].dist(Complex64::cis(step * 4.0)) < 1e-12);
        assert!(b[0].dist(Complex64::ONE) < 1e-12);
    }

    #[test]
    fn within_the_documented_bound_of_per_sample_cis() {
        let x = signal(3 * BLOCK + 17);
        // Zero, fractional, negative and far-out (10^7-sample) origins.
        let origins = [
            0.0,
            0.3,
            7.75,
            -0.6,
            -5.0,
            -130.25,
            4.0e5 + 0.1,
            1.0e7,
            1.0e7 + 0.5,
        ];
        for fs in [20e6, 128e6] {
            for cfo in [-200e3, -41e3, 0.0, 1.5, 37e3, 123e3, 200e3] {
                let step = 2.0 * PI * cfo / fs;
                for origin in origins {
                    let mut got = x.clone();
                    apply_cfo_from(&mut got, cfo, fs, origin);
                    for (i, (g, s)) in got.iter().zip(&x).enumerate() {
                        let want = *s * Complex64::cis(step * (i as f64 + origin));
                        let p = i as f64 + origin.floor();
                        let bound = s.abs()
                            * f64::EPSILON
                            * (10.0 + 2.0 * step.abs() * (p.abs() + BLOCK as f64 + 1.0));
                        assert!(
                            g.dist(want) <= bound,
                            "fs {fs} cfo {cfo} origin {origin} sample {i}: {} > {bound}",
                            g.dist(want)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rotating_a_tail_matches_rotating_the_whole_buffer_bitwise() {
        let x = signal(5 * BLOCK + 9);
        for (cfo, fs) in [(37e3, 20e6), (-81e3, 128e6), (200e3, 20e6)] {
            // Origins whose sums with the split points stay exact in f64.
            for o in [0.0, 0.25, -0.5, -3.0, 64.75, -200.125, 1.0e7 + 0.5] {
                let mut whole = x.clone();
                apply_cfo_from(&mut whole, cfo, fs, o);
                for a in [0, 1, 17, 63, 64, 65, 130, 5 * BLOCK + 8, x.len()] {
                    let mut tail = x[a..].to_vec();
                    apply_cfo_from(&mut tail, cfo, fs, a as f64 + o);
                    assert_eq!(bits(&tail), bits(&whole[a..]), "cfo {cfo} o {o} split {a}");
                }
            }
        }
    }

    #[test]
    fn preserves_power() {
        let mut buf = vec![Complex64::new(3.0, 4.0); 16];
        apply_cfo(&mut buf, 123e3, 128e6);
        for s in &buf {
            assert!((s.abs() - 5.0).abs() < 1e-12);
        }
    }
}
