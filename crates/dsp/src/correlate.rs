//! Sliding correlation primitives used by packet detection.
//!
//! The SourceSync receiver detects packets the way an 802.11 radio does: a
//! coarse energy / autocorrelation stage over the repeating short training
//! sequence, followed by a fine cross-correlation against the known long
//! training sequence. Both stages are built from the primitives here; the
//! cross-correlation runs on the [`crate::fir`] kernels' tiers.

use crate::complex::Complex64;
use crate::fir;

/// A correlation template prepared once for the FIR kernels.
///
/// Correlating a signal with a template is convolving it with the
/// template reversed and conjugated: output `t + len − 1` of that valid
/// convolution is `Σ_m signal[t+m]·conj(template[m])`, the products taken
/// in template order and summed from `+0.0` — the scalar lag loop, bit
/// for bit. So the correlation runs on every tier of [`crate::fir`].
#[derive(Debug, Clone)]
pub struct Template {
    /// `conj(template[len − 1 − j])` at index `j`.
    taps: Vec<Complex64>,
    /// `‖template‖`, its energy summed in template order.
    norm: f64,
}

impl Template {
    /// Prepares `template` (reversed, conjugated, its norm taken).
    pub fn new(template: &[Complex64]) -> Self {
        Template {
            taps: template.iter().rev().map(|v| v.conj()).collect(),
            norm: template.iter().map(|v| v.norm_sqr()).sum::<f64>().sqrt(),
        }
    }

    /// Template length in samples.
    pub fn len(&self) -> usize {
        self.taps.len()
    }

    /// `true` for an empty template.
    pub fn is_empty(&self) -> bool {
        self.taps.is_empty()
    }
}

/// Cross-correlates `signal` against `template` at every lag where the
/// template fully overlaps, into `out` (cleared and refilled to
/// `signal.len() − template.len() + 1` values, so a reused buffer makes
/// the call allocation-free): `c[t] = Σ_m signal[t+m]·conj(template[m])`.
///
/// `out` is left empty if the template is empty or longer than the signal.
pub fn cross_correlate_into(signal: &[Complex64], template: &Template, out: &mut Vec<Complex64>) {
    fir::convolve_complex_valid_into(signal, &template.taps, out);
}

/// Normalised cross-correlation magnitude in `[0, 1]`, into `out`:
/// `|c[t]| / (‖signal window‖ · ‖template‖)`, with the raw correlation
/// `c` of [`cross_correlate_into`] left in `corr`.
///
/// A value near 1 means the window is a scaled copy of the template, which
/// makes thresholds SNR-independent. The normalisation is one sequential
/// pass over a sliding window energy.
pub fn normalized_cross_correlate_into(
    signal: &[Complex64],
    template: &Template,
    corr: &mut Vec<Complex64>,
    out: &mut Vec<f64>,
) {
    cross_correlate_into(signal, template, corr);
    out.clear();
    if corr.is_empty() {
        return;
    }
    out.extend(corr.iter().map(|c| c.abs()));
    let m = template.len();
    let mut win_energy: f64 = signal[..m].iter().map(|v| v.norm_sqr()).sum();
    for (t, v) in out.iter_mut().enumerate() {
        let denom = win_energy.sqrt() * template.norm;
        *v = if denom > 0.0 { *v / denom } else { 0.0 };
        if t + m < signal.len() {
            win_energy += signal[t + m].norm_sqr() - signal[t].norm_sqr();
            win_energy = win_energy.max(0.0);
        }
    }
}

/// Delay-and-correlate metric for a signal containing a period-`period`
/// repetition (the Schmidl-Cox style detector used on short training symbols).
///
/// At each start index `t` (while `t + 2·period <= len`), computes
/// `P[t] = Σ_{m<period} signal[t+m]·conj(signal[t+m+period])` and the window
/// energy `R[t] = Σ_{m<period} |signal[t+m+period]|²`, writing the timing
/// metric `|P[t]|²/R[t]²` — which plateaus near 1 over the repeated region —
/// into `out` (cleared and refilled; capacity reused across calls).
pub fn autocorrelation_metric_into(signal: &[Complex64], period: usize, out: &mut Vec<f64>) {
    out.clear();
    if period == 0 || signal.len() < 2 * period {
        return;
    }
    let n = signal.len() - 2 * period + 1;
    let mut p = Complex64::ZERO;
    let mut r = 0.0f64;
    for m in 0..period {
        p += signal[m] * signal[m + period].conj();
        r += signal[m + period].norm_sqr();
    }
    for t in 0..n {
        out.push(if r > 0.0 { p.norm_sqr() / (r * r) } else { 0.0 });
        if t + 1 < n {
            p += signal[t + period] * signal[t + 2 * period].conj()
                - signal[t] * signal[t + period].conj();
            r += signal[t + 2 * period].norm_sqr() - signal[t + period].norm_sqr();
            r = r.max(0.0);
        }
    }
}

/// Double sliding window energy ratio, evaluated lazily: output `t` is
/// the energy in `[t + window, t + 2·window)` over the energy in
/// `[t, t + window)`, for `t` from 0 to `len − 2·window`.
///
/// A sharp rise in this ratio marks the arrival of signal energy above the
/// noise floor — the coarse trigger of the packet detector. The ratio is
/// clamped to `1e6` to stay finite over perfectly silent leading windows.
///
/// Both window energies are running sums stepped one sample at a time, so
/// outputs are produced in order and only as far as they are asked for:
/// a trigger that fires early never pays for the rest of the capture.
#[derive(Debug, Clone)]
pub struct EnergyRatio<'a> {
    signal: &'a [Complex64],
    window: usize,
    /// Number of outputs.
    len: usize,
    /// The output the running sums describe.
    pos: usize,
    /// Energy of `[pos, pos + window)`.
    lead: f64,
    /// Energy of `[pos + window, pos + 2·window)`.
    trail: f64,
}

impl<'a> EnergyRatio<'a> {
    /// The ratio over `signal` with two windows of `window` samples (no
    /// outputs when `window` is 0 or the signal is shorter than both).
    pub fn new(signal: &'a [Complex64], window: usize) -> Self {
        let len = if window == 0 || signal.len() < 2 * window {
            0
        } else {
            signal.len() - 2 * window + 1
        };
        let (lead, trail) = if len == 0 {
            (0.0, 0.0)
        } else {
            (
                signal[..window].iter().map(|v| v.norm_sqr()).sum(),
                signal[window..2 * window]
                    .iter()
                    .map(|v| v.norm_sqr())
                    .sum(),
            )
        };
        EnergyRatio {
            signal,
            window,
            len,
            pos: 0,
            lead,
            trail,
        }
    }

    /// Number of outputs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when there are no outputs.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Output `t`, or `None` past the end. Steps the running sums forward
    /// to `t`, so outputs must be asked for in non-decreasing order.
    ///
    /// # Panics
    /// Panics if `t` lies before an output already reached.
    fn at(&mut self, t: usize) -> Option<f64> {
        if t >= self.len {
            return None;
        }
        assert!(
            t >= self.pos,
            "energy ratio output {t} is behind {}",
            self.pos
        );
        let (s, w) = (self.signal, self.window);
        while self.pos < t {
            let p = self.pos;
            self.lead += s[p + w].norm_sqr() - s[p].norm_sqr();
            self.trail += s[p + 2 * w].norm_sqr() - s[p + w].norm_sqr();
            self.lead = self.lead.max(0.0);
            self.trail = self.trail.max(0.0);
            self.pos += 1;
        }
        let ratio = if self.lead > 0.0 {
            self.trail / self.lead
        } else {
            1e6
        };
        Some(ratio.min(1e6))
    }

    /// The first output at or after `from` that is not below `threshold`,
    /// or `None` if the ratio stays below it to the end. Searches must not
    /// start before an output an earlier search already reached.
    pub fn first_reaching(&mut self, from: usize, threshold: f64) -> Option<usize> {
        let mut t = from;
        loop {
            match self.at(t)? {
                r if r < threshold => t += 1,
                _ => return Some(t),
            }
        }
    }
}

/// Index of the maximum value of a real slice, or `None` if empty. Ties break
/// toward the earliest index.
pub fn argmax(values: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in values.iter().enumerate() {
        match best {
            Some((_, bv)) if v <= bv => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fir::tests::{assert_bits_eq, signal as random_signal, valid_on_every_tier};
    use crate::rng::ComplexGaussian;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Test-only copy of the scalar lag loop the correlation ran before it
    /// moved onto the FIR tiers: the bit-exact reference.
    fn lag_correlation(signal: &[Complex64], template: &[Complex64], t: usize) -> Complex64 {
        let mut acc = Complex64::ZERO;
        for (m, tap) in template.iter().enumerate() {
            acc += signal[t + m] * tap.conj();
        }
        acc
    }

    /// Test-only copy of the eager energy-ratio scan the detector ran
    /// over the whole capture before [`EnergyRatio`]: the bit-exact
    /// reference.
    fn energy_ratio_eager(signal: &[Complex64], window: usize) -> Vec<f64> {
        let mut out = Vec::new();
        if window == 0 || signal.len() < 2 * window {
            return out;
        }
        let mut lead: f64 = signal[..window].iter().map(|v| v.norm_sqr()).sum();
        let mut trail: f64 = signal[window..2 * window]
            .iter()
            .map(|v| v.norm_sqr())
            .sum();
        let n = signal.len() - 2 * window + 1;
        for t in 0..n {
            let ratio = if lead > 0.0 { trail / lead } else { 1e6 };
            out.push(ratio.min(1e6));
            if t + 1 < n {
                lead += signal[t + window].norm_sqr() - signal[t].norm_sqr();
                trail += signal[t + 2 * window].norm_sqr() - signal[t + window].norm_sqr();
                lead = lead.max(0.0);
                trail = trail.max(0.0);
            }
        }
        out
    }

    fn normalized(signal: &[Complex64], template: &[Complex64]) -> Vec<f64> {
        let mut out = Vec::new();
        normalized_cross_correlate_into(
            signal,
            &Template::new(template),
            &mut Vec::new(),
            &mut out,
        );
        out
    }

    fn autocorrelation_metric(signal: &[Complex64], period: usize) -> Vec<f64> {
        let mut out = Vec::new();
        autocorrelation_metric_into(signal, period, &mut out);
        out
    }

    /// Every output of a fresh [`EnergyRatio`], in order.
    fn energy_ratio(signal: &[Complex64], window: usize) -> Vec<f64> {
        let mut er = EnergyRatio::new(signal, window);
        (0..er.len()).map(|t| er.at(t).unwrap()).collect()
    }

    #[test]
    fn cross_correlation_peaks_at_embedded_offset() {
        let mut rng = StdRng::seed_from_u64(1);
        let gauss = ComplexGaussian::unit();
        let template = gauss.sample_vec(&mut rng, 16);
        let mut signal = ComplexGaussian::with_power(0.01).sample_vec(&mut rng, 100);
        let offset = 37;
        for (m, t) in template.iter().enumerate() {
            signal[offset + m] += *t;
        }
        let c = normalized(&signal, &template);
        assert_eq!(argmax(&c), Some(offset));
        assert!(c[offset] > 0.9);
    }

    #[test]
    fn normalized_correlation_is_scale_invariant() {
        let mut rng = StdRng::seed_from_u64(2);
        let gauss = ComplexGaussian::unit();
        let template = gauss.sample_vec(&mut rng, 8);
        let signal: Vec<Complex64> = template.iter().map(|v| v.scale(123.0)).collect();
        let c = normalized(&signal, &template);
        assert_eq!(c.len(), 1);
        assert!((c[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn autocorrelation_metric_plateaus_on_periodic_signal() {
        let mut rng = StdRng::seed_from_u64(3);
        let gauss = ComplexGaussian::unit();
        let period = 16;
        let one = gauss.sample_vec(&mut rng, period);
        let mut signal = Vec::new();
        for _ in 0..4 {
            signal.extend_from_slice(&one);
        }
        let m = autocorrelation_metric(&signal, period);
        // Every full window over the repetition should be ~1.
        for (i, v) in m.iter().enumerate() {
            assert!(*v > 0.999, "index {i}: {v}");
        }
    }

    #[test]
    fn autocorrelation_metric_low_on_noise() {
        let mut rng = StdRng::seed_from_u64(4);
        let noise = ComplexGaussian::unit().sample_vec(&mut rng, 256);
        let m = autocorrelation_metric(&noise, 16);
        let mean = m.iter().sum::<f64>() / m.len() as f64;
        assert!(mean < 0.3, "mean metric over noise {mean}");
    }

    #[test]
    fn energy_ratio_spikes_at_packet_edge() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut signal = ComplexGaussian::with_power(0.01).sample_vec(&mut rng, 64);
        signal.extend(ComplexGaussian::with_power(1.0).sample_vec(&mut rng, 64));
        let r = energy_ratio(&signal, 16);
        let peak = argmax(&r).unwrap();
        // Boundary position = peak + window.
        let edge = peak + 16;
        assert!((edge as i64 - 64).unsigned_abs() <= 4, "edge at {edge}");
        assert!(r[peak] > 10.0);
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let mut cc = vec![Complex64::ONE; 3];
        cross_correlate_into(&[], &Template::new(&[]), &mut cc);
        assert!(cc.is_empty());
        cross_correlate_into(&[Complex64::ONE], &Template::new(&[]), &mut cc);
        assert!(cc.is_empty());
        assert!(Template::new(&[]).is_empty());
        assert!(normalized(&[Complex64::ONE], &[Complex64::ONE; 2]).is_empty());
        assert!(autocorrelation_metric(&[Complex64::ONE; 8], 0).is_empty());
        assert!(EnergyRatio::new(&[Complex64::ONE; 8], 0).is_empty());
        assert_eq!(EnergyRatio::new(&[Complex64::ONE; 8], 0).at(0), None);
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), Some(1));
    }

    #[test]
    fn into_variants_bitwise_match_allocating_paths() {
        let mut rng = StdRng::seed_from_u64(9);
        let gauss = ComplexGaussian::unit();
        let signal = gauss.sample_vec(&mut rng, 300);
        let template = Template::new(&gauss.sample_vec(&mut rng, 16));
        let mut cc = Vec::new();
        let mut ncc = Vec::new();
        let mut ac = Vec::new();
        let (fresh_cc, fresh_ncc) = {
            let (mut c, mut n) = (Vec::new(), Vec::new());
            normalized_cross_correlate_into(&signal, &template, &mut c, &mut n);
            (c, n)
        };
        // Two passes through one set of reused buffers: the second pass must
        // still match (no state leaks between calls).
        for _ in 0..2 {
            normalized_cross_correlate_into(&signal, &template, &mut cc, &mut ncc);
            assert_eq!(cc, fresh_cc);
            assert_eq!(ncc, fresh_ncc);
            autocorrelation_metric_into(&signal, 16, &mut ac);
            assert_eq!(ac, autocorrelation_metric(&signal, 16));
        }
        // Degenerate inputs clear the buffers rather than leaving stale data.
        normalized_cross_correlate_into(&signal[..4], &template, &mut cc, &mut ncc);
        assert!(cc.is_empty() && ncc.is_empty());
    }

    #[test]
    fn correlation_matches_the_lag_loop_on_every_tier() {
        // Templates of every length up to the wiglan LTS and beyond, on
        // signals shorter than, as long as and longer than the template,
        // with exact ±0.0 values among the samples: every tier of the FIR
        // kernels holds exactly the bits of the scalar lag loop.
        let mut rng = StdRng::seed_from_u64(22);
        for m in 1..=160 {
            let template = random_signal(&mut rng, m);
            let taps = Template::new(&template);
            for n in [0, 1, m - 1, m, m + 1, m + 9, 2 * m + 21] {
                let signal = random_signal(&mut rng, n);
                let want: Vec<Complex64> = (0..(n + 1).saturating_sub(m))
                    .map(|t| lag_correlation(&signal, &template, t))
                    .collect();
                for (tier, got) in valid_on_every_tier(&signal, &taps.taps) {
                    assert_bits_eq(&got, &want, &format!("{tier} m={m} n={n}"));
                }
                let mut got = vec![Complex64::new(f64::NAN, 1.0); 5];
                cross_correlate_into(&signal, &taps, &mut got);
                assert_bits_eq(&got, &want, &format!("public m={m} n={n}"));
            }
        }
    }

    #[test]
    fn lazy_energy_ratio_matches_the_eager_scan() {
        let mut rng = StdRng::seed_from_u64(23);
        let window = 16;
        let noise = |rng: &mut StdRng, n| ComplexGaussian::with_power(0.01).sample_vec(rng, n);
        let burst = |rng: &mut StdRng, n| ComplexGaussian::with_power(1.0).sample_vec(rng, n);
        // Noise only; a short false-alarm burst, then a frame; a frame at
        // the very end; silence ahead of a frame; captures shorter than two
        // windows, exactly two, and one longer.
        let mut false_alarm = noise(&mut rng, 200);
        false_alarm.extend(burst(&mut rng, 3));
        false_alarm.extend(noise(&mut rng, 150));
        false_alarm.extend(burst(&mut rng, 300));
        let mut at_end = noise(&mut rng, 250);
        at_end.extend(burst(&mut rng, 20));
        let mut silent_lead = vec![Complex64::ZERO; 40];
        silent_lead.extend(burst(&mut rng, 60));
        let captures = [
            noise(&mut rng, 500),
            false_alarm,
            at_end,
            silent_lead,
            noise(&mut rng, 0),
            noise(&mut rng, 2 * window - 1),
            noise(&mut rng, 2 * window),
            noise(&mut rng, 2 * window + 1),
        ];
        for (k, cap) in captures.iter().enumerate() {
            let eager = energy_ratio_eager(cap, window);
            let lazy = energy_ratio(cap, window);
            let bits = |v: &[f64]| v.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&lazy), bits(&eager), "capture {k}");
            // The trigger's search, resumed past each hit the way the
            // detector resumes after a false alarm, against a linear scan
            // of the eager ratios.
            for threshold in [0.5, 4.0, 50.0, 1e6] {
                let mut er = EnergyRatio::new(cap, window);
                let mut from = 0;
                loop {
                    let want = (from..eager.len()).find(|&t| eager[t] >= threshold);
                    let got = er.first_reaching(from, threshold);
                    assert_eq!(got, want, "capture {k} threshold {threshold} from {from}");
                    match got {
                        Some(t) => from = t + 7,
                        None => break,
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "is behind")]
    fn energy_ratio_rejects_a_step_backwards() {
        let signal = vec![Complex64::ONE; 64];
        let mut er = EnergyRatio::new(&signal, 8);
        let _ = er.at(10);
        let _ = er.at(9);
    }

    #[test]
    fn energy_ratio_handles_silence() {
        let signal = vec![Complex64::ZERO; 64];
        let r = energy_ratio(&signal, 8);
        assert!(r.iter().all(|v| v.is_finite()));
    }
}
