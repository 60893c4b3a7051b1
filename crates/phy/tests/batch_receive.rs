//! Integration tests for the batched receive path: the [`WorkspacePool`] +
//! [`Receiver::receive_batch`] API must be a pure parallelisation — same
//! results as sequential one-at-a-time receives, for any thread count and
//! any pool state — and the full chain must produce the same bits whichever
//! kernel tier (AVX2 / portable lanes / scalar) the build dispatches.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssync_dsp::rng::ComplexGaussian;
use ssync_dsp::Complex64;
use ssync_phy::workspace::{RxWorkspace, WorkspacePool};
use ssync_phy::{OfdmParams, Params, RateId, Receiver, RxResult, Transmitter};

/// A seeded batch of noisy captures at mixed rates and payload sizes.
fn make_captures(params: &Params, n: usize, seed: u64) -> Vec<Vec<Complex64>> {
    let tx = Transmitter::new(params.clone());
    let mut rng = StdRng::seed_from_u64(seed);
    let noise = ComplexGaussian::with_power(2e-3);
    let rates = [RateId::R12, RateId::R24, RateId::R36];
    (0..n)
        .map(|i| {
            let len = 40 + 90 * (i % 4);
            let payload: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            let wave = tx.frame_waveform(&payload, rates[i % rates.len()], 0);
            let mut buf = noise.sample_vec(&mut rng, 150);
            buf.extend(wave);
            buf.extend(noise.sample_vec(&mut rng, 150));
            buf
        })
        .collect()
}

fn assert_same_result(a: &RxResult, b: &RxResult, ctx: &str) {
    assert_eq!(a.payload, b.payload, "{ctx}: payload");
    assert_eq!(a.signal.rate, b.signal.rate, "{ctx}: rate");
    assert_eq!(a.signal.length, b.signal.length, "{ctx}: length");
    assert_eq!(
        a.diag.evm_snr_db.to_bits(),
        b.diag.evm_snr_db.to_bits(),
        "{ctx}: evm"
    );
    assert_eq!(
        a.diag.mean_snr_db.to_bits(),
        b.diag.mean_snr_db.to_bits(),
        "{ctx}: mean snr"
    );
    assert_eq!(
        a.diag.timing_offset_samples.to_bits(),
        b.diag.timing_offset_samples.to_bits(),
        "{ctx}: timing"
    );
    for (x, y) in a
        .diag
        .per_carrier_snr_db
        .iter()
        .zip(&b.diag.per_carrier_snr_db)
    {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: carrier snr");
    }
}

#[test]
fn batch_matches_sequential_for_any_thread_count() {
    let params = OfdmParams::dot11a();
    let rx = Receiver::new(params.clone());
    let captures = make_captures(&params, 10, 42);

    // Sequential ground truth, a fresh workspace per capture.
    let sequential: Vec<_> = captures
        .iter()
        .map(|c| rx.receive_with(c, &mut RxWorkspace::new(&params)))
        .collect();
    assert!(
        sequential.iter().all(|r| r.is_ok()),
        "all seeded captures must decode"
    );

    for threads in [1, 2, 4, 7] {
        let pool = WorkspacePool::new(&params);
        let batch = rx.receive_batch(&captures, &pool, threads);
        assert_eq!(batch.len(), captures.len());
        for (i, (b, s)) in batch.iter().zip(&sequential).enumerate() {
            let (b, s) = (b.as_ref().unwrap(), s.as_ref().unwrap());
            assert_same_result(b, s, &format!("threads={threads} capture={i}"));
        }
    }
}

#[test]
fn batch_results_are_independent_of_pool_state() {
    let params = OfdmParams::dot11a();
    let rx = Receiver::new(params.clone());
    let captures = make_captures(&params, 6, 7);

    // A cold pool, a pre-warmed pool, and a pool dirtied by unrelated
    // earlier decodes must all yield the same results.
    let cold = WorkspacePool::new(&params);
    let warm = WorkspacePool::with_capacity(&params, 4);
    let dirty = WorkspacePool::new(&params);
    let other = make_captures(&params, 3, 99);
    let _ = rx.receive_batch(&other, &dirty, 2);

    let from_cold = rx.receive_batch(&captures, &cold, 2);
    let from_warm = rx.receive_batch(&captures, &warm, 2);
    let from_dirty = rx.receive_batch(&captures, &dirty, 2);
    for i in 0..captures.len() {
        let a = from_cold[i].as_ref().unwrap();
        assert_same_result(a, from_warm[i].as_ref().unwrap(), "warm pool");
        assert_same_result(a, from_dirty[i].as_ref().unwrap(), "dirty pool");
    }
}

#[test]
fn batch_reports_per_capture_errors_in_order() {
    let params = OfdmParams::dot11a();
    let rx = Receiver::new(params.clone());
    let mut captures = make_captures(&params, 4, 11);
    // Replace capture 2 with pure noise: its slot must fail while the
    // others still decode, in order.
    let mut rng = StdRng::seed_from_u64(13);
    let noise = ComplexGaussian::with_power(1.0);
    captures[2] = noise.sample_vec(&mut rng, 2500);
    let pool = WorkspacePool::new(&params);
    let out = rx.receive_batch(&captures, &pool, 3);
    assert!(out[0].is_ok() && out[1].is_ok() && out[3].is_ok());
    assert!(out[2].is_err(), "noise capture must not decode");
}

#[test]
fn workspace_pool_recycles_checkouts() {
    let params = OfdmParams::dot11a();
    let pool = WorkspacePool::new(&params);
    assert_eq!(pool.idle(), 0);
    {
        let _a = pool.checkout();
        let _b = pool.checkout();
        assert_eq!(pool.idle(), 0, "both workspaces live");
    }
    assert_eq!(pool.idle(), 2, "both returned on drop");
    {
        let _c = pool.checkout();
        assert_eq!(pool.idle(), 1, "reused an idle workspace");
    }
    assert_eq!(pool.idle(), 2);

    let warm = WorkspacePool::with_capacity(&params, 3);
    assert_eq!(warm.idle(), 3);
}

/// The full receive chain pinned to exact bits: this test compiles in every
/// feature mode, so the `simd` and scalar builds (and the runtime AVX2 tier
/// on hosts that have it) must all reproduce these constants for the suite
/// to pass in both CI jobs — a cross-build differential test without
/// cross-build plumbing.
#[test]
fn full_chain_bits_are_build_invariant() {
    let params = OfdmParams::dot11a();
    let tx = Transmitter::new(params.clone());
    let rx = Receiver::new(params.clone());
    let mut rng = StdRng::seed_from_u64(2024);
    let payload: Vec<u8> = (0..700).map(|_| rng.gen()).collect();
    let wave = tx.frame_waveform(&payload, RateId::R24, 0);
    let noise = ComplexGaussian::with_power(1e-3);
    let mut buf = noise.sample_vec(&mut rng, 200);
    buf.extend(wave);
    buf.extend(noise.sample_vec(&mut rng, 200));

    let res = rx
        .receive_with(&buf, &mut RxWorkspace::new(&params))
        .expect("seeded frame decodes");
    assert_eq!(res.payload, payload);

    // FNV-1a over the diagnostic bits: any cross-kernel divergence anywhere
    // in the chain (correlator, FFT, demap, Viterbi, EVM) changes this hash.
    let mut hash = 0xcbf29ce484222325u64;
    let mut feed = |v: u64| {
        for byte in v.to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x100000001b3);
        }
    };
    feed(res.diag.evm_snr_db.to_bits());
    feed(res.diag.mean_snr_db.to_bits());
    feed(res.diag.timing_offset_samples.to_bits());
    for v in &res.diag.per_carrier_snr_db {
        feed(v.to_bits());
    }
    assert_eq!(
        hash, PINNED_DIAG_HASH,
        "receive-chain bits diverged from the pinned capture \
         (evm={:.12}, mean={:.12})",
        res.diag.evm_snr_db, res.diag.mean_snr_db
    );
}

/// Pinned by running the seeded capture above on the scalar build; the simd
/// build must reproduce it exactly.
const PINNED_DIAG_HASH: u64 = 12792249986871947276;
