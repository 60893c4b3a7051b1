//! `city_parallel`: the 504-node, 72-region avenue of `testbed_city`,
//! built with `CityNetwork::build` and run with `run_city` (ExOR +
//! SourceSync, 4 × 64 B batches per region) on the available threads.
//!
//! Set-up is the ranged network draw plus the region partition. Every run
//! builds the same avenue, the scenario's first city ([`LAYOUT_SEED`]); the
//! run's seed drives the transfers, since each region's RNG derives from
//! it. A new layout per seed moved the city's total work by ±35 % between
//! seeds (region costs are heavy-tailed), far beyond any usable bound;
//! with the layout fixed the work moves by about ±4 %. A trial is one whole
//! city run. The audit re-runs the city on one thread and
//! requires the same digest; a traced run also replays every region's
//! `subnetwork` + `run_transfer` serially with the region's own seed —
//! the work `run_city` fans out — to time regions one by one and check
//! each replay against the parallel run.

use crate::mesh::{add_outcome_counters, check_outcome, digest_outcome};
use crate::trace::Tracer;
use crate::{bump, Counters, Digest, Model, Scale, Spec, TrialOut, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use ssync_channel::CityPlan;
use ssync_exp::trial_seed;
use ssync_phy::{OfdmParams, RateId};
use ssync_sim::ChannelModels;
use ssync_testbed::{
    run_city, run_transfer, CityConfig, CityNetwork, CityOutcome, RoutingMode, TestbedConfig,
};
use std::time::Instant;

/// Interference range the city is built at, metres.
const RANGE_M: f64 = 215.0;
/// Seed of the avenue's layout: `testbed_city`'s first city.
pub const LAYOUT_SEED: u64 = 880_000;

/// See the module docs.
pub struct CityParallel;

/// The built city and the run configuration.
pub struct State {
    city: CityNetwork,
    cfg: CityConfig,
    run_seed: u64,
    /// The latest trial's outcome, for the audit to check against.
    last: Option<CityOutcome>,
}

fn plan(scale: Scale) -> CityPlan {
    match scale {
        // 72 blocks of 7 radios: blocks of 150 m, streets of 220 m (beyond
        // the range, so every block is its own region).
        Scale::Full => CityPlan {
            blocks_x: 72,
            blocks_y: 1,
            block_m: 150.0,
            street_m: 220.0,
            nodes_per_block: 7,
        },
        Scale::Tiny => CityPlan {
            blocks_x: 2,
            blocks_y: 1,
            block_m: 20.0,
            street_m: 220.0,
            nodes_per_block: 4,
        },
    }
}

fn transfer() -> TestbedConfig {
    TestbedConfig {
        batch_size: 4,
        payload_len: 64,
        ..TestbedConfig::new(RateId::R12, RoutingMode::ExorSourceSync)
    }
}

/// Digest of a whole city outcome, region by region.
fn digest_city(o: &CityOutcome) -> u64 {
    let mut d = Digest::default();
    d.u64(o.nodes as u64);
    for r in &o.regions {
        d.u64(r.region as u64)
            .u64(r.nodes as u64)
            .u64(r.backhaul_hops as u64)
            .u64(r.backhaul_attempts)
            .u64(r.sink_delivered as u64);
        match &r.outcome {
            Some(t) => digest_outcome(&mut d, t),
            None => {
                d.u64(u64::MAX);
            }
        }
    }
    d.0
}

impl Workload for CityParallel {
    type State = State;

    fn setup(&self, spec: &Spec, tr: &mut Tracer) -> Result<State, String> {
        let params = OfdmParams::dot11a();
        let mut rng = StdRng::seed_from_u64(LAYOUT_SEED);
        let open = tr.begin("sim.build");
        let city = CityNetwork::build(
            &mut rng,
            &params,
            &plan(spec.scale),
            &ChannelModels::testbed(&params),
            RANGE_M,
        );
        tr.end(open);
        let cfg = CityConfig {
            threads: spec.threads,
            ..CityConfig::new(transfer())
        };
        Ok(State {
            city,
            cfg,
            run_seed: trial_seed(spec.seed, 0, 0),
            last: None,
        })
    }

    fn setup_digest(&self, st: &State) -> u64 {
        let mut d = Digest::default();
        for region in &st.city.regions {
            d.u64(region.len() as u64);
            for &g in region {
                let p = st.city.net.nodes[g].position;
                d.u64(g as u64).f64(p.x).f64(p.y);
            }
        }
        d.u64(st.city.net.medium.links().count() as u64);
        d.0
    }

    fn trial_count(&self, _: &State) -> usize {
        1
    }

    fn trial(&self, st: &mut State, _: usize, tr: &mut Tracer, ctr: &mut Counters) -> TrialOut {
        let open = tr.begin("testbed.city_run");
        let o = run_city(&st.city, st.run_seed, &st.cfg);
        tr.end(open);
        let mut out = TrialOut {
            digest: digest_city(&o),
            frames: o.data_frames() + o.joint_frames(),
            decode_ok: o.delivered_local() as u64,
            ..TrialOut::default()
        };
        for r in &o.regions {
            match &r.outcome {
                Some(t) => {
                    out.decode_of += st.cfg.transfer.batch_size as u64;
                    if let Some(f) = check_outcome(t, &st.cfg.transfer) {
                        out.failure = Some(format!("region {}: {f}", r.region));
                    }
                    if tr.enabled() {
                        add_outcome_counters(ctr, t);
                    }
                }
                None => out.failure = Some(format!("region {} returned no outcome", r.region)),
            }
        }
        if tr.enabled() {
            bump(ctr, "trials", 1.0);
        }
        st.last = Some(o);
        out
    }

    fn audit(
        &self,
        st: &mut State,
        spec: &Spec,
        tr: &mut Tracer,
        ctr: &mut Counters,
    ) -> Vec<String> {
        let mut failures = Vec::new();
        let Some(parallel) = st.last.take() else {
            return vec!["no city run to audit".into()];
        };
        if st.cfg.threads > 1 {
            let serial_cfg = CityConfig {
                threads: 1,
                ..st.cfg.clone()
            };
            if digest_city(&run_city(&st.city, st.run_seed, &serial_cfg)) != digest_city(&parallel)
            {
                failures.push(format!(
                    "city digest differs between 1 and {} threads",
                    st.cfg.threads
                ));
            }
        }
        if !spec.trace {
            return failures;
        }
        // Replay the fan-out serially, one region at a time.
        let t0 = Instant::now();
        for (k, members) in st.city.regions.iter().enumerate() {
            let m = members.len();
            if m < 2 {
                continue;
            }
            let mut rng = StdRng::seed_from_u64(trial_seed(st.run_seed, k as u64, 0));
            let open = tr.begin("exp.region");
            let mut sub = st.city.net.subnetwork(members);
            let candidates: Vec<usize> = (1..m - 1).collect();
            let outcome = run_transfer(&mut sub, &mut rng, 0, m - 1, &candidates, &st.cfg.transfer);
            tr.end(open);
            bump(ctr, "exp.regions", 1.0);
            bump(
                ctr,
                "exp.sim.propagates",
                sub.medium.propagate_count() as f64,
            );
            bump(ctr, "exp.sim.retired", sub.medium.retired_count() as f64);
            if let Some(o) = &outcome {
                bump(ctr, "exp.frames", (o.data_frames + o.joint_frames) as f64);
            }
            if outcome != parallel.regions[k].outcome {
                failures.push(format!("region {k} replay differs from the parallel run"));
            }
        }
        bump(ctr, "exp.replay_s", t0.elapsed().as_secs_f64());
        bump(ctr, "exp.cities", 1.0);
        failures
    }

    fn size(&self, st: &State) -> Vec<(&'static str, f64)> {
        vec![
            ("nodes", st.city.node_count() as f64),
            ("regions", st.city.regions.len() as f64),
            ("links", st.city.net.medium.links().count() as f64),
            ("batch_size", st.cfg.transfer.batch_size as f64),
            ("payload_bytes", st.cfg.transfer.payload_len as f64),
        ]
    }

    fn model(&self, st: &State) -> Model {
        Model {
            terms: vec![
                ("kernel.medium_capture.dot11a_r12_64B", "exp.sim.propagates"),
                ("kernel.rx_frame.dot11a_r12_64B", "exp.sim.propagates"),
                ("kernel.event_queue.push_pop", "exp.frames"),
            ],
            per: "exp.cities",
            parallel: st.cfg.threads,
        }
    }
}
