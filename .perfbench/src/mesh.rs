//! `mesh_transfer`: one 8 × 384 B R12 batch per topology and routing mode
//! through `ssync_testbed::run_transfer` (the shape of
//! `testbed_multihop`), on one thread.
//!
//! Set-up draws each five-node jittered diamond (source 0, relays 1–3,
//! destination 4) and shapes its links to measured delivery bands with
//! real modulate → superpose → decode rounds, checking every decoded frame
//! against the one sent. A trial is one (topology, mode) transfer; delays
//! come from the oracle, so nothing is probed.
//!
//! The topologies are `testbed_multihop`'s own (seeds [`LAYOUT_SEED`] + t)
//! in every run; the run's seed drives every transfer's RNG. With a new
//! set of topologies per seed, `frames_per_s` spread 23 % between ten
//! seeds, close to its bound, because the topologies' loss rates set how
//! many frames, and which kinds, a transfer needs.

use crate::trace::Tracer;
use crate::{bump, Counters, Digest, Model, Scale, Spec, TrialOut, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssync_channel::Position;
use ssync_exp::trial_seed;
use ssync_mac::{DataFrame, MacFrame};
use ssync_phy::{OfdmParams, RateId};
use ssync_sim::{ChannelModels, Network, NodeId};
use ssync_testbed::{run_transfer, Modem, RoutingMode, TestbedConfig, TestbedOutcome};

/// Data-frame payload, bytes (batch-map overhead excluded).
const PAYLOAD_LEN: usize = 384;
/// Topologies per pass at full size.
const TOPOLOGIES: usize = 10;
/// Seed of the first topology: `testbed_multihop`'s first.
pub const LAYOUT_SEED: u64 = 770_000;
/// Routing modes, in the order every topology runs them.
pub const MODES: [RoutingMode; 3] = [
    RoutingMode::SinglePath,
    RoutingMode::Exor,
    RoutingMode::ExorSourceSync,
];

/// Span name of a transfer in `mode`.
fn transfer_span(mode: RoutingMode) -> &'static str {
    match mode {
        RoutingMode::SinglePath => "testbed.transfer.single",
        RoutingMode::Exor => "testbed.transfer.exor",
        RoutingMode::ExorSourceSync => "testbed.transfer.exor_ss",
    }
}

/// See the module docs.
pub struct MeshTransfer;

/// The drawn topologies and the seed the transfers derive theirs from.
pub struct State {
    nets: Vec<Network>,
    run_seed: u64,
}

/// Folds every field of a transfer outcome into `d`.
pub fn digest_outcome(d: &mut Digest, o: &TestbedOutcome) {
    d.u64(o.delivered as u64)
        .u64(o.elapsed.0)
        .f64(o.throughput_bps)
        .u64(o.data_frames)
        .u64(o.joint_frames)
        .u64(o.collisions)
        .u64(o.arq_retries)
        .u64(o.packets_abandoned)
        .u64(o.acks_lost)
        .u64(o.cleanup_deliveries)
        .u64(o.joins.attempted)
        .u64(o.joins.joined)
        .u64(o.joins.failures());
}

/// Checks a transfer outcome against the protocol's accounting rules;
/// `max_exchanges` is the engine's livelock cap (every exchange puts at
/// least one frame on the air, so fewer frames proves it was not hit).
pub fn check_outcome(o: &TestbedOutcome, cfg: &TestbedConfig) -> Option<String> {
    let frames = o.data_frames + o.joint_frames;
    let cap = if cfg.max_exchanges == 0 {
        50 * cfg.batch_size
    } else {
        cfg.max_exchanges
    };
    if o.delivered > cfg.batch_size {
        Some(format!(
            "delivered {} of a {}-packet batch",
            o.delivered, cfg.batch_size
        ))
    } else if frames as usize >= cap {
        Some(format!(
            "{frames} frames on the air: max_exchanges cap may have been hit"
        ))
    } else if cfg.mode == RoutingMode::SinglePath
        && o.delivered + (o.packets_abandoned as usize) < cfg.batch_size
    {
        // Every single-path packet ends delivered or abandoned. The sum
        // can exceed the batch: a packet whose last retry fails counts as
        // abandoned even when an earlier attempt already reached the hop.
        Some(format!(
            "single-path: {} delivered + {} abandoned < {}",
            o.delivered, o.packets_abandoned, cfg.batch_size
        ))
    } else {
        None
    }
}

/// Delivery probability of `tx → rx` over `n` real exchanges of a
/// payload-sized R12 frame. A frame that decodes to anything but what was
/// sent is an error.
fn measured_delivery(
    net: &mut Network,
    modem: &Modem,
    seed: u64,
    (tx, rx): (usize, usize),
    n: usize,
) -> Result<f64, String> {
    let frame = MacFrame::Data(DataFrame {
        src: tx as u16,
        dst: rx as u16,
        seq: 0,
        retry: false,
        payload: ssync_testbed::packet_payload(0, PAYLOAD_LEN + 5),
    });
    let wave = modem.mac_waveform(&frame, RateId::R12);
    let mut ok = 0usize;
    for f in 0..n {
        let mut rng = StdRng::seed_from_u64(seed ^ (0x51D0 + f as u64));
        let got = modem.exchange(net, &mut rng, &[(NodeId(tx), wave.clone())], &[NodeId(rx)]);
        match &got[0].1 {
            Some(g) if *g == frame => ok += 1,
            Some(_) => return Err(format!("link {tx}->{rx} decoded a different frame")),
            None => {}
        }
    }
    Ok(ok as f64 / n as f64)
}

/// Nudges the pinned SNR of `a ↔ b` until measured delivery lands in
/// `[lo, hi]` (the paper chose testbed links by measured loss, §8).
fn shape_link(
    net: &mut Network,
    modem: &Modem,
    seed: u64,
    (a, b): (usize, usize),
    mut snr: f64,
    (lo, hi): (f64, f64),
) -> Result<(), String> {
    for step in 0..4u64 {
        net.pin_snr_db(NodeId(a), NodeId(b), snr);
        net.pin_snr_db(NodeId(b), NodeId(a), snr);
        let d = measured_delivery(net, modem, seed ^ (step << 8), (a, b), 8)?;
        if d > hi {
            snr -= 1.5;
        } else if d < lo {
            snr += 1.5;
        } else {
            break;
        }
    }
    Ok(())
}

/// Draws one topology: jittered diamond, testbed multipath, healthy first
/// hop, ≈50 %-lossy last hop, clustered relays, dead direct link.
fn draw(seed: u64, tr: &mut Tracer) -> Result<Network, String> {
    let params = OfdmParams::dot11a();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut jitter =
        |x: f64, y: f64| Position::new(x + rng.gen_range(-2.0..2.0), y + rng.gen_range(-2.0..2.0));
    let positions = vec![
        Position::new(0.0, 0.0),
        jitter(14.0, -8.0),
        jitter(14.0, 0.0),
        jitter(14.0, 8.0),
        jitter(28.0, 0.0),
    ];
    let open = tr.begin("sim.build");
    let mut net = Network::build(
        &mut rng,
        &params,
        &positions,
        &ChannelModels::testbed(&params),
    );
    tr.end(open);
    let modem = Modem::new(params);
    let link_seed = rng.gen::<u64>();
    for r in 1..=3usize {
        let first = rng.gen_range(7.5..9.0);
        shape_link(
            &mut net,
            &modem,
            link_seed ^ r as u64,
            (0, r),
            first,
            (0.75, 1.0),
        )?;
        let last = rng.gen_range(5.0..6.5);
        shape_link(
            &mut net,
            &modem,
            link_seed ^ (0x40 + r as u64),
            (r, 4),
            last,
            (0.1, 0.4),
        )?;
    }
    for i in 1..=3usize {
        for j in i + 1..=3 {
            let c = rng.gen_range(12.0..18.0);
            net.pin_snr_db(NodeId(i), NodeId(j), c);
            net.pin_snr_db(NodeId(j), NodeId(i), c);
        }
    }
    net.pin_snr_db(NodeId(0), NodeId(4), -15.0);
    net.pin_snr_db(NodeId(4), NodeId(0), -15.0);
    Ok(net)
}

impl Workload for MeshTransfer {
    type State = State;

    fn setup(&self, spec: &Spec, tr: &mut Tracer) -> Result<State, String> {
        let n = match spec.scale {
            Scale::Full => TOPOLOGIES,
            Scale::Tiny => 1,
        };
        let nets = (0..n)
            .map(|t| draw(LAYOUT_SEED + t as u64, tr))
            .collect::<Result<_, _>>()?;
        Ok(State {
            nets,
            run_seed: spec.seed,
        })
    }

    fn setup_digest(&self, st: &State) -> u64 {
        let mut d = Digest::default();
        for net in &st.nets {
            for a in 0..net.len() {
                for b in 0..net.len() {
                    if a != b {
                        d.f64(net.snr_db(NodeId(a), NodeId(b)))
                            .f64(net.true_delay_s(NodeId(a), NodeId(b)));
                    }
                }
            }
        }
        d.0
    }

    fn trial_count(&self, st: &State) -> usize {
        st.nets.len() * MODES.len()
    }

    fn trial(&self, st: &mut State, i: usize, tr: &mut Tracer, ctr: &mut Counters) -> TrialOut {
        let (t, m) = (i / MODES.len(), i % MODES.len());
        let net = &mut st.nets[t];
        let mode = MODES[m];
        let cfg = TestbedConfig::new(RateId::R12, mode);
        let mut rng = StdRng::seed_from_u64(trial_seed(st.run_seed, t as u64, m as u64));
        let propagates0 = net.medium.propagate_count();
        let retired0 = net.medium.retired_count();
        let open = tr.begin(transfer_span(mode));
        let outcome = run_transfer(net, &mut rng, 0, 4, &[1, 2, 3], &cfg);
        tr.end(open);
        let mut out = TrialOut::default();
        let Some(o) = outcome else {
            out.failure = Some("run_transfer found no route".into());
            return out;
        };
        let mut d = Digest::default();
        digest_outcome(&mut d, &o);
        out.digest = d.0;
        out.frames = o.data_frames + o.joint_frames;
        out.decode_ok = o.delivered as u64;
        out.decode_of = cfg.batch_size as u64;
        out.failure = check_outcome(&o, &cfg);
        if tr.enabled() {
            add_outcome_counters(ctr, &o);
            bump(ctr, "trials", 1.0);
            bump(
                ctr,
                "sim.propagates",
                (net.medium.propagate_count() - propagates0) as f64,
            );
            bump(
                ctr,
                "sim.retired",
                (net.medium.retired_count() - retired0) as f64,
            );
        }
        out
    }

    fn audit(&self, _: &mut State, _: &Spec, _: &mut Tracer, _: &mut Counters) -> Vec<String> {
        Vec::new()
    }

    fn size(&self, st: &State) -> Vec<(&'static str, f64)> {
        let cfg = TestbedConfig::new(RateId::R12, RoutingMode::Exor);
        vec![
            ("topologies", st.nets.len() as f64),
            ("modes", MODES.len() as f64),
            ("batch_size", cfg.batch_size as f64),
            ("payload_bytes", cfg.payload_len as f64),
        ]
    }

    fn model(&self, _: &State) -> Model {
        Model {
            terms: vec![
                ("kernel.medium_capture.dot11a_r12_384B", "sim.propagates"),
                ("kernel.rx_frame.dot11a_r12_384B", "sim.propagates"),
                ("kernel.event_queue.push_pop", "frames"),
            ],
            per: "trials",
            parallel: 1,
        }
    }
}

/// Adds a transfer outcome's frame accounting to the counters.
pub fn add_outcome_counters(ctr: &mut Counters, o: &TestbedOutcome) {
    bump(ctr, "frames", (o.data_frames + o.joint_frames) as f64);
    bump(ctr, "testbed.delivered", o.delivered as f64);
    bump(ctr, "testbed.collisions", o.collisions as f64);
    bump(ctr, "testbed.arq_retries", o.arq_retries as f64);
}
