//! `joint_sync`: the SourceSync control loop over random wiglan
//! placements (the shape of `fig12_sync_error` and `session_matrix`).
//!
//! Each placement is a lead, 1–3 co-senders and 1–2 receivers on the
//! testbed floor, every link pinned to one SNR. A trial runs the whole
//! loop through the staged `JointSession`: probe-based delay measurement
//! for every pair, the wait LP, [`TRACKING`] §4.5 tracking frames, then
//! [`MEASURE`] measurement frames, on one thread.
//!
//! The pair measurements are `DelayDatabase::measure` calls in the order
//! `measure_all` makes them, so each gets its own span. Placements cover
//! every (co-senders, receivers, SNR) cell equally and are drawn from
//! [`LAYOUT_SEED`] in every run; the run's seed drives each trial's RNG
//! (receiver noise, and through it probe, join and decode outcomes). With
//! placements drawn from the run's seed, `decode_ratio` spread 4.4 % over
//! ten seeds; with the placements fixed, 1.6 % over five.

use crate::trace::Tracer;
use crate::{bump, Counters, Digest, Model, Scale, Spec, TrialOut, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssync_channel::{FloorPlan, Position};
use ssync_core::{
    probe_pair, tracking_update, CosenderPlan, DelayDatabase, JointConfig, JointSession,
    SessionWorkspace,
};
use ssync_exp::trial_seed;
use ssync_phy::{OfdmParams, Params, RateId};
use ssync_sim::{ChannelModels, Network, NodeId};
use std::time::Instant;

/// Probe exchanges per node pair.
pub const N_PROBES: usize = 2;
/// §4.5 tracking frames after the LP waits.
pub const TRACKING: usize = 2;
/// Measurement frames after tracking.
pub const MEASURE: usize = 3;
/// Pinned link SNRs, dB, each paired with a payload length, bytes: every
/// seed runs the same mix of frame lengths and link qualities.
const SNRS_DB: [(f64, usize); 3] = [(20.0, 90), (23.0, 120), (26.0, 60)];
/// Placements per (co-senders, receivers, SNR) cell.
const PER_CELL: usize = 2;
/// Seed the placements are drawn from.
pub const LAYOUT_SEED: u64 = 310_000;

/// See the module docs.
pub struct JointSync;

/// One placement: its network and what the loop sends over it.
pub struct Placement {
    net: Network,
    n_co: usize,
    n_rx: usize,
    snr_db: f64,
    payload: Vec<u8>,
    rng_seed: u64,
}

/// The placements plus one reusable session workspace.
pub struct State {
    placements: Vec<Placement>,
    ws: SessionWorkspace,
}

/// (co-senders, receivers) cells. Three co-senders run with one receiver
/// only: six-node placements would put the median trial on the boundary
/// between two cost groups, where it jumps from seed to seed.
const SHAPES: [(usize, usize); 5] = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)];

fn cells(scale: Scale) -> Vec<(usize, usize, (f64, usize))> {
    let mut out = Vec::new();
    match scale {
        Scale::Full => {
            for (n_co, n_rx) in SHAPES {
                for snr in SNRS_DB {
                    for _ in 0..PER_CELL {
                        out.push((n_co, n_rx, snr));
                    }
                }
            }
        }
        Scale::Tiny => {
            out.push((1, 1, SNRS_DB[2]));
            out.push((2, 2, SNRS_DB[2]));
        }
    }
    out
}

fn config() -> JointConfig {
    JointConfig {
        rate: RateId::R6,
        cp_extension: 16,
        ..Default::default()
    }
}

impl Workload for JointSync {
    type State = State;

    fn setup(&self, spec: &Spec, tr: &mut Tracer) -> Result<State, String> {
        let params: Params = OfdmParams::wiglan();
        let models = ChannelModels::testbed(&params);
        let plan = FloorPlan::testbed();
        let placements = cells(spec.scale)
            .into_iter()
            .enumerate()
            .map(|(i, (n_co, n_rx, (snr_db, len)))| {
                let mut rng = StdRng::seed_from_u64(trial_seed(LAYOUT_SEED, i as u64, 0));
                let n = 1 + n_co + n_rx;
                let positions: Vec<Position> =
                    (0..n).map(|_| plan.random_position(&mut rng)).collect();
                let open = tr.begin("sim.build");
                let mut net = Network::build(&mut rng, &params, &positions, &models);
                tr.end(open);
                for a in 0..n {
                    for b in 0..n {
                        if a != b {
                            net.pin_snr_db(NodeId(a), NodeId(b), snr_db);
                        }
                    }
                }
                let payload = (0..len).map(|_| rng.gen()).collect();
                Placement {
                    net,
                    n_co,
                    n_rx,
                    snr_db,
                    payload,
                    rng_seed: trial_seed(spec.seed, i as u64, 1),
                }
            })
            .collect();
        Ok(State {
            placements,
            ws: SessionWorkspace::new(params),
        })
    }

    fn setup_digest(&self, st: &State) -> u64 {
        let mut d = Digest::default();
        for p in &st.placements {
            d.u64(p.n_co as u64).u64(p.n_rx as u64).bytes(&p.payload);
            let n = p.net.len();
            for a in 0..n {
                for b in a + 1..n {
                    d.f64(p.net.true_delay_s(NodeId(a), NodeId(b)))
                        .f64(p.net.snr_db(NodeId(a), NodeId(b)));
                }
            }
        }
        d.0
    }

    fn trial_count(&self, st: &State) -> usize {
        st.placements.len()
    }

    fn trial(&self, st: &mut State, i: usize, tr: &mut Tracer, ctr: &mut Counters) -> TrialOut {
        let State { placements, ws } = st;
        let p = &mut placements[i];
        let mut rng = StdRng::seed_from_u64(p.rng_seed);
        let mut out = TrialOut::default();
        let mut digest = Digest::default();
        let n = 1 + p.n_co + p.n_rx;
        let nodes: Vec<NodeId> = (0..n).map(NodeId).collect();
        let lead = nodes[0];
        let cos = &nodes[1..=p.n_co];
        let rxs = &nodes[1 + p.n_co..];
        let propagates0 = p.net.medium.propagate_count();
        let retired0 = p.net.medium.retired_count();

        // Probe every pair, as `measure_all` does; a traced pass keeps the
        // RNG state of each call so the audit can replay its probes.
        let mut db = DelayDatabase::new();
        let mut all_measured = true;
        let mut replays = Vec::new();
        for a in 0..n {
            for b in a + 1..n {
                let before = tr.enabled().then(|| rng.clone());
                let open = tr.begin("core.sls.measure");
                all_measured &= db.measure(&mut p.net, &mut rng, nodes[a], nodes[b], N_PROBES);
                tr.end(open);
                replays.extend(before.map(|r| (a, b, r)));
            }
        }
        let pairs = (n * (n - 1) / 2) as u64;
        out.frames += pairs * N_PROBES as u64 * 2;
        // A pair whose every probe failed leaves the loop without the delays
        // it needs: SourceSync's own outcome (the scenarios drop such
        // placements), kept in the digest, and its joint frames count as
        // sent but not decoded.
        let mut waits = Vec::new();
        let frames = if all_measured {
            let open = tr.begin("linprog.wait_solution");
            let solution = db.wait_solution(lead, cos, rxs);
            tr.end(open);
            let Some(solution) = solution else {
                out.failure = Some("wait_solution found a missing delay".into());
                return out;
            };
            digest.f64(solution.max_misalignment);
            waits = solution.waits;
            TRACKING + MEASURE
        } else {
            digest.u64(u64::MAX);
            out.decode_of += ((TRACKING + MEASURE) * rxs.len()) as u64;
            0
        };

        let (mut joins, mut joined, mut combines) = (0u64, 0u64, 0u64);
        for frame_idx in 0..frames {
            let session = JointSession::new(lead)
                .cosenders(
                    cos.iter()
                        .zip(&waits)
                        .map(|(&node, &wait_s)| CosenderPlan { node, wait_s }),
                )
                .receivers(rxs.iter().copied())
                .payload(p.payload.clone())
                .config(config());
            let open = tr.begin("core.session.lead_tx");
            let frame = session.lead_tx().transmit_with(&mut p.net, ws);
            tr.end(open);
            for c in 0..cos.len() {
                let open = tr.begin("core.session.join");
                let join = session
                    .cosender_join(c, &frame)
                    .join_with(&mut p.net, &mut rng, &db, ws);
                tr.end(open);
                joins += 1;
                match join {
                    Ok(tx) => {
                        joined += 1;
                        digest.u64(tx.data_time.0).f64(tx.cfo_hz);
                    }
                    Err(f) => {
                        digest.bytes(f.to_string().as_bytes());
                    }
                }
            }
            let mut reports = Vec::with_capacity(rxs.len());
            for &r in rxs {
                let open = tr.begin("core.session.decode");
                let report = session
                    .receiver_decode(r, &frame)
                    .decode_with(&mut p.net, &mut rng, ws);
                tr.end(open);
                combines += 1;
                out.decode_of += 1;
                match &report.payload {
                    Some(got) if *got == p.payload => out.decode_ok += 1,
                    Some(_) => {
                        out.failure = Some(format!("receiver {r} returned a wrong payload"));
                    }
                    None => {}
                }
                digest.u64(report.header_ok as u64);
                digest.u64(report.payload.is_some() as u64);
                for m in &report.measured_misalign_s {
                    digest.f64(m.unwrap_or(f64::NAN));
                }
                reports.push(report);
            }
            out.frames += 1;
            if frame_idx < TRACKING {
                for (c, w) in waits.iter_mut().enumerate() {
                    if let Some(m) = reports[0].measured_misalign_s[c] {
                        *w = tracking_update(*w, m);
                    }
                }
            }
        }
        out.digest = digest.0;

        if tr.enabled() {
            let receives = pairs * N_PROBES as u64 * 2 + joins + combines;
            bump(ctr, "trials", 1.0);
            bump(ctr, "core.sls.unmeasured", !all_measured as u64 as f64);
            bump(ctr, "frames", out.frames as f64);
            bump(
                ctr,
                "sim.propagates",
                (p.net.medium.propagate_count() - propagates0) as f64,
            );
            bump(
                ctr,
                "sim.retired",
                (p.net.medium.retired_count() - retired0) as f64,
            );
            bump(ctr, "core.session.join_attempts", joins as f64);
            bump(ctr, "core.session.joins", joined as f64);
            bump(ctr, "model.receives", receives as f64);
            bump(ctr, "model.chanests", receives as f64 + joined as f64);
            bump(ctr, "model.combines", combines as f64);
            // Audit: replay each measurement's probes from its saved RNG
            // state to count failed exchanges, and check the replay lands
            // on the stored delay bit for bit. Untimed.
            let t0 = Instant::now();
            let open = tr.begin("audit.probe_replay");
            for (a, b, mut r) in replays {
                let mut delays = Vec::new();
                for _ in 0..N_PROBES {
                    if let Some(o) = probe_pair(&mut p.net, &mut r, nodes[a], nodes[b]) {
                        delays.push(o.delay_s);
                    }
                }
                bump(ctr, "core.sls.probes", N_PROBES as f64);
                bump(
                    ctr,
                    "core.sls.probe_failures",
                    (N_PROBES - delays.len()) as f64,
                );
                let stored = db.delay_s(nodes[a], nodes[b]).map(f64::to_bits);
                let replayed =
                    (!delays.is_empty()).then(|| ssync_dsp::stats::mean(&delays).to_bits());
                if stored != replayed {
                    out.failure = Some(format!("probe replay of pair ({a},{b}) diverged"));
                }
            }
            tr.end(open);
            out.excluded = t0.elapsed();
        }
        out
    }

    fn audit(&self, _: &mut State, _: &Spec, _: &mut Tracer, _: &mut Counters) -> Vec<String> {
        Vec::new()
    }

    fn size(&self, st: &State) -> Vec<(&'static str, f64)> {
        let snrs: Vec<f64> = st.placements.iter().map(|p| p.snr_db).collect();
        vec![
            ("placements", st.placements.len() as f64),
            ("probes_per_pair", N_PROBES as f64),
            ("joint_frames_per_placement", (TRACKING + MEASURE) as f64),
            ("payload_bytes_mean", {
                let total: usize = st.placements.iter().map(|p| p.payload.len()).sum();
                total as f64 / st.placements.len().max(1) as f64
            }),
            ("snr_db_mean", ssync_dsp::stats::mean(&snrs)),
        ]
    }

    fn model(&self, _: &State) -> Model {
        Model {
            terms: vec![
                ("kernel.medium_capture.wiglan_r6_60B", "sim.propagates"),
                ("kernel.detect.wiglan", "model.receives"),
                ("kernel.chanest.lts", "model.chanests"),
                ("kernel.joint_combine.wiglan_r6_2tx", "model.combines"),
            ],
            per: "trials",
            parallel: 1,
        }
    }
}
