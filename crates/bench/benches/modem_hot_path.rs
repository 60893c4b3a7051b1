//! `modem_hot_path` — the performance baseline of the zero-allocation
//! modem workspaces.
//!
//! Three tiers of the sample-level hot path, each benchmarked through a
//! warmed, reused workspace:
//!
//! 1. **end-to-end frame rx** — detection → channel estimation →
//!    equalisation → Viterbi → CRC of a 1460-byte frame,
//! 2. **joint combine** — Alamouti decoding + LLR demap of a joint data
//!    section at two senders,
//! 3. **N-co-sender session step** — one complete staged `JointSession`
//!    (lead TX, two co-sender joins, receiver decode) over the waveform
//!    medium.
//!
//! Committed baseline: `BENCH_modem_hot_path.json` at the repo root
//! (regenerate with `SSYNC_BENCH_JSON=BENCH_modem_hot_path.json cargo
//! bench -p ssync_bench --bench modem_hot_path`; see EXPERIMENTS.md).

use criterion::Criterion;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssync_channel::Position;
use ssync_core::{
    decode_joint_data_with, joint_data_waveform, CombineWorkspace, CosenderPlan, DataSectionSpec,
    DelayDatabase, JointConfig, JointDataWindow, JointSession, RoleChannels, SessionWorkspace,
};
use ssync_dsp::rng::ComplexGaussian;
use ssync_dsp::{Complex64, FftPlan};
use ssync_phy::chanest::ChannelEstimate;
use ssync_phy::workspace::WorkspacePool;
use ssync_phy::{frame, OfdmParams, RateId, Receiver, RxWorkspace, Transmitter};
use ssync_sim::{ChannelModels, Network, NodeId};

fn bench_frame_rx(c: &mut Criterion) {
    let params = OfdmParams::dot11a();
    let tx = Transmitter::new(params.clone());
    let rx = Receiver::new(params.clone());
    let mut rng = StdRng::seed_from_u64(1);
    let payload: Vec<u8> = (0..1460).map(|_| rng.gen()).collect();
    let wave = tx.frame_waveform(&payload, RateId::R24, 0);
    let noise = ComplexGaussian::with_power(1e-3);
    let mut buf = noise.sample_vec(&mut rng, 200);
    buf.extend(wave);
    buf.extend(noise.sample_vec(&mut rng, 200));

    let mut ws = RxWorkspace::new(&params);
    let _ = rx.receive_with(&buf, &mut ws).expect("warmup");
    c.bench_function("frame_rx_1460B_r24_workspace", |b| {
        b.iter(|| rx.receive_with(&buf, &mut ws).expect("decodes"))
    });

    // Batched throughput over the pool: 8 copies of the capture, decoded
    // through `receive_batch`. Reported time is for the whole batch, so
    // per-frame cost is the row divided by 8.
    let captures: Vec<Vec<Complex64>> = (0..8).map(|_| buf.clone()).collect();
    let pool = WorkspacePool::with_capacity(&params, 4);
    c.bench_function("frame_rx_batch8_r24_pool_1thread", |b| {
        b.iter(|| rx.receive_batch(&captures, &pool, 1))
    });
    c.bench_function("frame_rx_batch8_r24_pool_4threads", |b| {
        b.iter(|| rx.receive_batch(&captures, &pool, 4))
    });
}

fn bench_joint_combine(c: &mut Criterion) {
    let params = OfdmParams::dot11a();
    let fft = FftPlan::new(params.fft_size);
    let mut rng = StdRng::seed_from_u64(2);
    let psdu: Vec<u8> = (0..700).map(|_| rng.gen()).collect();
    let spec = DataSectionSpec {
        rate: RateId::R12,
        cp_len: params.cp_len,
        smart_combiner: true,
        pilot_sharing: true,
    };
    let h_a = Complex64::from_polar(1.0, 0.4);
    let h_b = Complex64::from_polar(0.8, -1.2);
    let wa = joint_data_waveform(&params, &fft, &psdu, ssync_stbc::Codeword::A, &spec);
    let wb = joint_data_waveform(&params, &fft, &psdu, ssync_stbc::Codeword::B, &spec);
    let noise = ComplexGaussian::with_power(1e-4);
    let buf: Vec<Complex64> = wa
        .iter()
        .zip(&wb)
        .map(|(a, b)| h_a * *a + h_b * *b + noise.sample(&mut rng))
        .collect();
    let occupied = params.occupied_carriers();
    let mk = |v: Complex64| ChannelEstimate {
        carriers: occupied.clone(),
        values: vec![v; occupied.len()],
        noise_power: 1e-4,
    };
    let (lead, co) = (mk(h_a), mk(h_b));
    let roles = RoleChannels::from_estimates(&params, &[Some(&lead), Some(&co)]);
    let window = JointDataWindow {
        data_start: 0,
        n_syms: frame::n_data_symbols(&params, psdu.len(), RateId::R12),
        psdu_len: psdu.len(),
        backoff: 0,
    };

    let mut ws = CombineWorkspace::new(&params);
    c.bench_function("joint_combine_700B_r12_workspace", |b| {
        b.iter(|| {
            decode_joint_data_with(&params, &fft, &buf, &window, &spec, &roles, &mut ws)
                .expect("decodes")
        })
    });
}

/// A 4-node clean-channel network: lead, two co-senders, one receiver.
fn session_fixture() -> (Network, DelayDatabase, JointSession) {
    let params = OfdmParams::dot11a();
    let positions = vec![
        Position::new(0.0, 0.0),
        Position::new(10.0, 0.0),
        Position::new(0.0, 10.0),
        Position::new(8.0, 8.0),
    ];
    let mut rng = StdRng::seed_from_u64(3);
    let net = Network::build(
        &mut rng,
        &params,
        &positions,
        &ChannelModels::clean(&params),
    );
    let nodes: Vec<NodeId> = (0..4).map(NodeId).collect();
    let mut db = DelayDatabase::new();
    for i in 0..nodes.len() {
        for j in i + 1..nodes.len() {
            db.set_delay(nodes[i], nodes[j], net.true_delay_s(nodes[i], nodes[j]));
        }
    }
    let waits = db
        .wait_solution(NodeId(0), &[NodeId(1), NodeId(2)], &[NodeId(3)])
        .expect("oracle delays");
    let session = JointSession::new(NodeId(0))
        .cosenders(
            [NodeId(1), NodeId(2)]
                .into_iter()
                .zip(waits.waits.iter().copied())
                .map(|(node, wait_s)| CosenderPlan { node, wait_s }),
        )
        .receiver(NodeId(3))
        .payload(vec![0x5Au8; 260])
        .config(JointConfig::default());
    (net, db, session)
}

fn bench_session_step(c: &mut Criterion) {
    let (mut net, db, session) = session_fixture();

    let mut ws = SessionWorkspace::new(net.params.clone());
    let mut rng = StdRng::seed_from_u64(4);
    c.bench_function("session_step_2co_1rx_workspace", |b| {
        b.iter(|| session.run_with(&mut net, &mut rng, &db, &mut ws))
    });
}

fn main() {
    let mut criterion = Criterion::default()
        .sample_size(15)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(3));
    bench_frame_rx(&mut criterion);
    bench_joint_combine(&mut criterion);
    bench_session_step(&mut criterion);
    if let Ok(path) = std::env::var("SSYNC_BENCH_JSON") {
        std::fs::write(&path, criterion.summary_json("modem_hot_path"))
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path}");
    }
}
