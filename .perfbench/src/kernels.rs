//! Kernel timings on inputs shaped like the workloads' frames: the costs
//! the cost model multiplies the traced counts by.
//!
//! Each kernel is calibrated to a batch of calls lasting at least
//! [`SAMPLE_TARGET`]; the per-call time of each batch is one sample. Every
//! kernel checks its own output once before it is timed.

use crate::Scale;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssync_channel::Position;
use ssync_core::{
    decode_joint_data_with, joint_data_waveform, CombineWorkspace, DataSectionSpec,
    JointDataWindow, RoleChannels,
};
use ssync_dsp::rng::ComplexGaussian;
use ssync_dsp::{Complex64, FftPlan};
use ssync_phy::chanest::{estimate_from_lts, ChannelEstimate};
use ssync_phy::viterbi::ViterbiDecoder;
use ssync_phy::{
    frame, DetectScratch, Detector, OfdmParams, Params, RateId, Receiver, RxWorkspace, Transmitter,
};
use ssync_sim::{ChannelModels, EventQueue, Network, NodeId, Time};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Minimum wall time of one sample's batch of calls.
pub const SAMPLE_TARGET: Duration = Duration::from_millis(2);

/// Per-call times (µs) of `f`, one per sample.
fn sample_us(samples: usize, mut f: impl FnMut()) -> Vec<f64> {
    f(); // warm caches and workspaces
    let mut iters = 1usize;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        if t0.elapsed() >= SAMPLE_TARGET {
            break;
        }
        iters *= 2;
    }
    (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_secs_f64() * 1e6 / iters as f64
        })
        .collect()
}

/// Margin of noise before and after a frame in a capture window, samples.
const MARGIN: usize = 400;

/// A three-node testbed network with every link pinned to `snr_db`.
fn net(params: &Params, snr_db: f64) -> Network {
    let mut rng = StdRng::seed_from_u64(17);
    let positions = [
        Position::new(0.0, 0.0),
        Position::new(9.0, 4.0),
        Position::new(4.0, 11.0),
    ];
    let mut net = Network::build(
        &mut rng,
        params,
        &positions,
        &ChannelModels::testbed(params),
    );
    for a in 0..3 {
        for b in 0..3 {
            if a != b {
                net.pin_snr_db(NodeId(a), NodeId(b), snr_db);
            }
        }
    }
    net
}

/// A frame of `len` random bytes at `rate`, on the air from node 0: the
/// network, the capture window and the payload.
fn on_air(params: &Params, len: usize, rate: RateId) -> (Network, usize, Vec<u8>) {
    let mut net = net(params, 25.0);
    let mut rng = StdRng::seed_from_u64(len as u64);
    let payload: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
    let wave = Transmitter::new(params.clone()).frame_waveform(&payload, rate, 0);
    let window = 2 * MARGIN + wave.len() + 200;
    let t0 = Time(MARGIN as u64 * params.sample_period_fs());
    net.medium.transmit(NodeId(0), t0, wave);
    (net, window, payload)
}

fn capture(net: &mut Network, window: usize) -> Vec<Complex64> {
    net.medium
        .capture(&mut StdRng::seed_from_u64(5), NodeId(1), Time::ZERO, window)
}

/// Times every kernel; `(name, per-call µs samples)`.
pub fn run_all(scale: Scale) -> Vec<(&'static str, Vec<f64>)> {
    let samples = match scale {
        Scale::Full => 25,
        Scale::Tiny => 2,
    };
    let wiglan = OfdmParams::wiglan();
    let dot11a = OfdmParams::dot11a();
    let mut out = Vec::new();

    // Medium synthesis: one frame through multipath, CFO, delay and AWGN.
    let (mut w_net, w_window, w_payload) = on_air(&wiglan, 60, RateId::R6);
    let w_cap = capture(&mut w_net, w_window);
    out.push((
        "kernel.medium_capture.wiglan_r6_60B",
        sample_us(samples, || {
            black_box(capture(&mut w_net, w_window));
        }),
    ));
    let (mut a_net, a_window, a_payload) = on_air(&dot11a, 384 + 5, RateId::R12);
    let a_cap = capture(&mut a_net, a_window);
    out.push((
        "kernel.medium_capture.dot11a_r12_384B",
        sample_us(samples, || {
            black_box(capture(&mut a_net, a_window));
        }),
    ));

    // Detection on those captures.
    for (name, params, cap) in [
        ("kernel.detect.wiglan", &wiglan, &w_cap),
        ("kernel.detect.dot11a", &dot11a, &a_cap),
    ] {
        let fft = FftPlan::new(params.fft_size);
        let det = Detector::new(params, &fft);
        let mut scratch = DetectScratch::new();
        assert!(
            det.detect_with(params, cap, 0, &mut scratch).is_some(),
            "{name}: no detection"
        );
        out.push((
            name,
            sample_us(samples, || {
                black_box(det.detect_with(params, cap, 0, &mut scratch));
            }),
        ));
    }

    // Channel estimation from the long training symbols.
    {
        let fft = FftPlan::new(wiglan.fft_size);
        let lts = Detector::new(&wiglan, &fft)
            .detect(&wiglan, &w_cap, 0)
            .expect("wiglan capture detects")
            .lts_start;
        out.push((
            "kernel.chanest.lts",
            sample_us(samples, || {
                black_box(estimate_from_lts(&wiglan, &fft, &w_cap, lts));
            }),
        ));
    }

    // Whole-frame receive: detection through Viterbi and CRC.
    let rx = Receiver::new(dot11a.clone());
    let mut ws = RxWorkspace::new(&dot11a);
    let got = rx
        .receive_with(&a_cap, &mut ws)
        .expect("384 B frame decodes");
    assert_eq!(got.payload, a_payload, "384 B frame decoded wrong");
    out.push((
        "kernel.rx_frame.dot11a_r12_384B",
        sample_us(samples, || {
            black_box(rx.receive_with(&a_cap, &mut ws).ok());
        }),
    ));
    let (mut s_net, s_window, s_payload) = on_air(&dot11a, 64 + 5, RateId::R12);
    let s_cap = capture(&mut s_net, s_window);
    out.push((
        "kernel.medium_capture.dot11a_r12_64B",
        sample_us(samples, || {
            black_box(capture(&mut s_net, s_window));
        }),
    ));
    let got = rx
        .receive_with(&s_cap, &mut ws)
        .expect("64 B frame decodes");
    assert_eq!(got.payload, s_payload, "64 B frame decoded wrong");
    out.push((
        "kernel.rx_frame.dot11a_r12_64B",
        sample_us(samples, || {
            black_box(rx.receive_with(&s_cap, &mut ws).ok());
        }),
    ));

    // Viterbi alone: the coded bits of a 384 B R12 (rate-1/2) frame.
    {
        let mut rng = StdRng::seed_from_u64(3);
        let mut bits: Vec<u8> = (0..(384 + 5 + 4) * 8 + 16)
            .map(|_| rng.gen_range(0..2u8))
            .collect();
        let info = bits.clone();
        bits.extend([0u8; 6]);
        let llrs = ssync_phy::viterbi::llrs_from_bits(&ssync_phy::convcode::encode_half(&bits));
        let mut dec = ViterbiDecoder::new();
        let mut decoded = Vec::new();
        assert!(dec.decode_terminated_into(&llrs, &mut decoded));
        assert_eq!(&decoded[..info.len()], &info[..], "viterbi decoded wrong");
        out.push((
            "kernel.viterbi.r12_384B",
            sample_us(samples, || {
                black_box(dec.decode_terminated_into(&llrs, &mut decoded));
            }),
        ));
    }

    out.push((
        "kernel.joint_combine.wiglan_r6_2tx",
        joint_combine(&wiglan, samples, &w_payload),
    ));

    // The event engine's queue: schedule 64 attempts, pop them all.
    {
        let mut rng = StdRng::seed_from_u64(4);
        let times: Vec<u64> = (0..64)
            .map(|_| rng.gen_range(0..1_000_000_000u64))
            .collect();
        let mut q: EventQueue<u32> = EventQueue::new();
        let per_batch = sample_us(samples, || {
            for (i, &t) in times.iter().enumerate() {
                q.schedule(Time(t), i as u32);
            }
            while let Some(e) = q.pop() {
                black_box(e);
            }
        });
        out.push((
            "kernel.event_queue.push_pop",
            per_batch
                .into_iter()
                .map(|us| us / times.len() as f64)
                .collect(),
        ));
    }
    out
}

/// Alamouti decode + demap of a two-sender joint data section (wiglan, R6,
/// the joint_sync payload size).
fn joint_combine(params: &Params, samples: usize, payload: &[u8]) -> Vec<f64> {
    let fft = FftPlan::new(params.fft_size);
    let psdu = ssync_phy::crc::append_crc(payload);
    let spec = DataSectionSpec {
        rate: RateId::R6,
        cp_len: params.cp_len + 16,
        smart_combiner: true,
        pilot_sharing: true,
    };
    let (h_a, h_b) = (
        Complex64::from_polar(1.0, 0.4),
        Complex64::from_polar(0.8, -1.2),
    );
    let wa = joint_data_waveform(params, &fft, &psdu, ssync_stbc::Codeword::A, &spec);
    let wb = joint_data_waveform(params, &fft, &psdu, ssync_stbc::Codeword::B, &spec);
    let noise = ComplexGaussian::with_power(1e-3);
    let mut rng = StdRng::seed_from_u64(2);
    let buf: Vec<Complex64> = wa
        .iter()
        .zip(&wb)
        .map(|(a, b)| h_a * *a + h_b * *b + noise.sample(&mut rng))
        .collect();
    let occupied = params.occupied_carriers();
    let est = |v: Complex64| ChannelEstimate {
        carriers: occupied.clone(),
        values: vec![v; occupied.len()],
        noise_power: 1e-3,
    };
    let (lead, co) = (est(h_a), est(h_b));
    let roles = RoleChannels::from_estimates(params, &[Some(&lead), Some(&co)]);
    let window = JointDataWindow {
        data_start: 0,
        n_syms: frame::n_data_symbols(params, psdu.len(), RateId::R6),
        psdu_len: psdu.len(),
        backoff: 0,
    };
    let mut ws = CombineWorkspace::new(params);
    let (got, _) = decode_joint_data_with(params, &fft, &buf, &window, &spec, &roles, &mut ws)
        .expect("joint section fits the buffer");
    assert_eq!(
        got.as_deref(),
        Some(&psdu[..]),
        "joint combine decoded wrong"
    );
    sample_us(samples, || {
        black_box(decode_joint_data_with(
            params, &fft, &buf, &window, &spec, &roles, &mut ws,
        ));
    })
}
