//! DSP substrate for the SourceSync reproduction.
//!
//! This crate provides the numeric foundation every other crate builds on:
//!
//! * [`Complex64`] — complex baseband samples (implemented from scratch so the
//!   entire signal path is auditable without external numeric crates),
//! * [`fft`] — an iterative radix-2 FFT/IFFT with a twiddle-caching planner,
//! * [`correlate`] — sliding cross-/auto-correlation used by packet detection,
//! * [`delay`] — integer and fractional (windowed-sinc) sample delays, the
//!   mechanism by which the simulator realises femtosecond-resolution
//!   propagation delays on a sampled waveform,
//! * [`fir`] — the output-stationary convolution kernels behind multipath
//!   and fractional delay, in scalar, portable-lane and AVX2 tiers,
//! * [`stats`] — percentiles, dB conversions, EVM→SNR, empirical CDFs,
//! * [`rng`] — deterministic Gaussian / complex-Gaussian sampling (Box-Muller
//!   over `rand`, so experiments are reproducible from a `u64` seed),
//! * [`simd`] — portable 4-lane f64/complex vectors backing the hot inner
//!   loops; the `simd` cargo feature (default on) dispatches the lane
//!   kernels, `--no-default-features` the bit-identical scalar fallbacks.
//!
//! Everything is pure, allocation-conscious, and deterministic; there is no
//! interior mutability and no global state.

// Unsafe code is denied everywhere in this crate except the one fenced
// AVX2 submodule of `fir`, which opts out with a justified
// `#[allow(unsafe_code)]`; every unsafe block there carries its own
// SAFETY comment (see DESIGN.md and ssync_lint's `undocumented-unsafe`
// rule). The determinism contract is easier to audit that way.
#![deny(unsafe_code)]

pub mod complex;
pub mod correlate;
pub mod delay;
pub mod fft;
pub mod fir;
pub mod mixer;
pub mod rng;
pub mod simd;
pub mod stats;

pub use complex::Complex64;
pub use fft::FftPlan;
