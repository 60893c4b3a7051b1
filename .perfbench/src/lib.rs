//! The repository benchmark: three seeded workloads that drive the
//! SourceSync library through its public API, time it end to end, check
//! its outputs, and (in a traced run) attribute the time to layers.
//!
//! A run is: set-up (repeated, see [`SETUP_REPS`]; digests compared),
//! then whole *passes* over the workload's fixed trial set until the time
//! budget is spent. Every trial of every pass must reproduce the digest it
//! had in the first pass. A traced run alternates untraced and traced
//! passes, so one run yields both the tracing overhead and the spans; it
//! also times the kernels and runs each workload's untimed audit.
//!
//! The binary prints one raw JSON record; `run.py` turns it into metrics.

pub mod city;
pub mod joint_sync;
pub mod json;
pub mod kernels;
pub mod mesh;
pub mod trace;

use json::Json;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use trace::Tracer;

/// Set-ups per run: at least `.0`, then more until `.1` seconds of set-up
/// have run, at most `.2`; `setup_s` is their median.
pub const SETUP_REPS: (usize, f64, usize) = (3, 0.5, 1000);

/// Workload size: `Full` is what the benchmark measures, `Tiny` the smoke
/// tests' debug-fast variant of the same code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured size.
    Full,
    /// A few trials, for tests.
    Tiny,
}

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload seed; the same seed gives the same inputs.
    pub seed: u64,
    /// Minimum measuring time; whole passes run until it is spent.
    pub seconds: f64,
    /// Traced run: alternate traced passes, time kernels, run audits.
    pub trace: bool,
    /// Workload size.
    pub scale: Scale,
    /// Worker threads the parallel workload may use.
    pub threads: usize,
}

/// What one trial produced.
#[derive(Debug, Clone, Default)]
pub struct TrialOut {
    /// Digest of the trial's outcome; must repeat in every pass.
    pub digest: u64,
    /// Frames put on the air.
    pub frames: u64,
    /// Receptions that returned exactly the sent payload.
    pub decode_ok: u64,
    /// Receptions attempted.
    pub decode_of: u64,
    /// Why the trial failed its correctness check, if it did.
    pub failure: Option<String>,
    /// Untimed audit work done inside the trial (subtracted from its time).
    pub excluded: Duration,
}

/// Per-layer counts accumulated over traced passes.
pub type Counters = BTreeMap<&'static str, f64>;

/// Adds `v` to counter `name`.
pub fn bump(ctr: &mut Counters, name: &'static str, v: f64) {
    *ctr.entry(name).or_insert(0.0) += v;
}

/// A benchmark workload.
pub trait Workload {
    /// Set-up output the trials run against.
    type State;
    /// Builds the inputs from the seed (timed as `setup_s`).
    fn setup(&self, spec: &Spec, tr: &mut Tracer) -> Result<Self::State, String>;
    /// Digest of the set-up: every repetition must agree.
    fn setup_digest(&self, st: &Self::State) -> u64;
    /// Trials per pass.
    fn trial_count(&self, st: &Self::State) -> usize;
    /// Runs trial `i` (counters are only read when the tracer is on).
    fn trial(
        &self,
        st: &mut Self::State,
        i: usize,
        tr: &mut Tracer,
        ctr: &mut Counters,
    ) -> TrialOut;
    /// Untimed checks after the passes; returns failures. Traced runs also
    /// gather their replay-based layer metrics here.
    fn audit(
        &self,
        st: &mut Self::State,
        spec: &Spec,
        tr: &mut Tracer,
        ctr: &mut Counters,
    ) -> Vec<String>;
    /// The workload's size, for the fingerprint.
    fn size(&self, st: &Self::State) -> Vec<(&'static str, f64)>;
    /// The cost model: what the traced counters predict a trial costs.
    fn model(&self, st: &Self::State) -> Model;
}

/// A calibrated cost model: `Σ counter/per × kernel median ÷ parallel`
/// predicts one trial's time.
#[derive(Debug, Clone)]
pub struct Model {
    /// `(kernel, counter)` pairs.
    pub terms: Vec<(&'static str, &'static str)>,
    /// Counter holding how many trials the counts cover.
    pub per: &'static str,
    /// Threads the trial's work is spread over.
    pub parallel: usize,
}

/// FNV-1a, the digest every outcome is folded into.
#[derive(Debug, Clone, Copy)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Folds an integer in.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Folds a float's exact bits in.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }
}

/// Peak resident set of this process, KiB (`VmHWM`; 0 where unavailable).
pub fn peak_rss_kb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0.0)
}

/// The kernel tier the library dispatches to.
pub fn simd_tier() -> &'static str {
    let avx2 = {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx2")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    };
    match (ssync_dsp::simd::SIMD_ENABLED, avx2) {
        (true, true) => "simd+avx2",
        (true, false) => "simd",
        (false, _) => "scalar",
    }
}

/// Runs `w` under `spec`; returns the raw record and the tracer.
pub fn run<W: Workload>(name: &str, w: &W, spec: &Spec) -> (Json, Tracer) {
    let mut failures: Vec<String> = Vec::new();
    let mut tr = Tracer::new(spec.trace);

    // Set-up, repeated; the last build is kept.
    let (min_reps, min_s, max_reps) = SETUP_REPS;
    let mut setup_s: Vec<f64> = Vec::new();
    let mut setup_digest = None;
    let mut state = None;
    for rep in 0..max_reps {
        if rep >= min_reps && setup_s.iter().sum::<f64>() >= min_s {
            break;
        }
        tr.set_enabled(spec.trace && rep == 0);
        let t0 = Instant::now();
        let built = w.setup(spec, &mut tr);
        setup_s.push(t0.elapsed().as_secs_f64());
        match built {
            Ok(st) => {
                let d = w.setup_digest(&st);
                if *setup_digest.get_or_insert(d) != d {
                    failures.push(format!("set-up {rep} digest differs from set-up 0"));
                }
                state = Some(st);
            }
            Err(e) => failures.push(format!("set-up failed: {e}")),
        }
    }
    let Some(mut st) = state else {
        let rec = record(
            name,
            spec,
            &setup_s,
            &Passes::default(),
            failures,
            &tr,
            &[],
            None,
        );
        return (rec, tr);
    };

    let kernels = if spec.trace {
        kernels::run_all(spec.scale)
    } else {
        Vec::new()
    };

    let mut passes = Passes::default();
    let n = w.trial_count(&st);
    let mut first: Vec<Option<u64>> = vec![None; n];
    let mut ctr = Counters::new();
    let started = Instant::now();
    let budget = Duration::from_secs_f64(spec.seconds);
    let mut pass = 0usize;
    // Whole passes, at least two, stopping at the pass boundary nearest
    // the budget so a run lasts about `seconds` whatever the pass length.
    while pass < 2 || started.elapsed() + started.elapsed() / (2 * pass as u32) < budget {
        let traced = spec.trace && pass % 2 == 1;
        tr.set_enabled(traced);
        for (i, first_digest) in first.iter_mut().enumerate() {
            tr.set_trial(i as u32);
            let t0 = Instant::now();
            let open = tr.begin("trial");
            let result = catch_unwind(AssertUnwindSafe(|| w.trial(&mut st, i, &mut tr, &mut ctr)));
            let elapsed = t0.elapsed();
            passes.attempted += 1;
            let out = match result {
                Ok(out) => {
                    tr.end(open);
                    out
                }
                Err(_) => {
                    tr.close_all();
                    passes.failed += 1;
                    failures.push(format!("pass {pass} trial {i} panicked"));
                    continue;
                }
            };
            let ms = (elapsed.saturating_sub(out.excluded)).as_secs_f64() * 1e3;
            let side = if traced {
                &mut passes.traced
            } else {
                &mut passes.untraced
            };
            side.ms.push(ms);
            side.frames += out.frames;
            if pass == 0 {
                passes.decode_ok += out.decode_ok;
                passes.decode_of += out.decode_of;
            }
            let mut bad = out.failure.map(|f| format!("pass {pass} trial {i}: {f}"));
            match *first_digest {
                None => *first_digest = Some(out.digest),
                Some(d) if d != out.digest => {
                    bad.get_or_insert(format!("pass {pass} trial {i}: digest changed"));
                }
                Some(_) => {}
            }
            if let Some(b) = bad {
                passes.failed += 1;
                failures.push(b);
            }
        }
        pass += 1;
    }
    passes.passes = pass;
    tr.set_enabled(spec.trace);
    tr.set_trial(u32::MAX);
    let audit = w.audit(&mut st, spec, &mut tr, &mut ctr);
    passes.attempted += 1;
    if !audit.is_empty() {
        passes.failed += 1;
    }
    failures.extend(audit);
    passes.counters = ctr;
    passes.size = w.size(&st);
    passes.trials_per_pass = n;
    let model = w.model(&st);
    let rec = record(
        name,
        spec,
        &setup_s,
        &passes,
        failures,
        &tr,
        &kernels,
        Some(&model),
    );
    (rec, tr)
}

/// Trial timings and outcomes of one side (traced or untraced).
#[derive(Debug, Default)]
struct Side {
    ms: Vec<f64>,
    frames: u64,
}

#[derive(Debug, Default)]
struct Passes {
    passes: usize,
    trials_per_pass: usize,
    attempted: u64,
    failed: u64,
    decode_ok: u64,
    decode_of: u64,
    untraced: Side,
    traced: Side,
    counters: Counters,
    size: Vec<(&'static str, f64)>,
}

/// Span names whose durations (and the trial's self time) go in the record.
const SPAN_NAMES: &[&str] = &[
    "trial",
    "sim.build",
    "core.sls.measure",
    "linprog.wait_solution",
    "core.session.lead_tx",
    "core.session.join",
    "core.session.decode",
    "testbed.transfer.single",
    "testbed.transfer.exor",
    "testbed.transfer.exor_ss",
    "testbed.city_run",
    "exp.region",
    "audit.probe_replay",
];

#[allow(clippy::too_many_arguments)] // one flat record, assembled once
fn record(
    name: &str,
    spec: &Spec,
    setup_s: &[f64],
    p: &Passes,
    failures: Vec<String>,
    tr: &Tracer,
    kernels: &[(&'static str, Vec<f64>)],
    model: Option<&Model>,
) -> Json {
    let side = |s: &Side| {
        Json::obj([
            ("ms", Json::nums(s.ms.iter().copied())),
            ("frames", Json::Num(s.frames as f64)),
        ])
    };
    let mut spans: Vec<(String, Json)> = SPAN_NAMES
        .iter()
        .map(|n| (n.to_string(), Json::nums(tr.durations_ms(n))))
        .collect();
    spans.push(("trial.self".into(), Json::nums(tr.self_ms("trial"))));
    Json::obj([
        ("workload", Json::Str(name.into())),
        ("seed", Json::Num(spec.seed as f64)),
        ("threads", Json::Num(spec.threads as f64)),
        ("nproc", Json::Num(available_threads() as f64)),
        ("simd_tier", Json::Str(simd_tier().into())),
        ("traced", Json::Bool(spec.trace)),
        ("setup_s", Json::nums(setup_s.iter().copied())),
        ("passes", Json::Num(p.passes as f64)),
        ("trials_per_pass", Json::Num(p.trials_per_pass as f64)),
        ("attempted", Json::Num(p.attempted as f64)),
        ("failed", Json::Num(p.failed as f64)),
        (
            "failures",
            Json::Arr(failures.into_iter().map(Json::Str).collect()),
        ),
        ("decode_ok", Json::Num(p.decode_ok as f64)),
        ("decode_of", Json::Num(p.decode_of as f64)),
        ("untraced", side(&p.untraced)),
        ("traced", side(&p.traced)),
        ("peak_rss_kb", Json::Num(peak_rss_kb())),
        (
            "size",
            Json::obj(p.size.iter().map(|(k, v)| (*k, Json::Num(*v)))),
        ),
        (
            "counters",
            Json::obj(p.counters.iter().map(|(k, v)| (*k, Json::Num(*v)))),
        ),
        ("spans", Json::Obj(spans)),
        (
            "kernels_us",
            Json::obj(
                kernels
                    .iter()
                    .map(|(k, v)| (*k, Json::nums(v.iter().copied()))),
            ),
        ),
        (
            "model",
            match model {
                Some(m) => Json::obj([
                    (
                        "terms",
                        Json::Arr(
                            m.terms
                                .iter()
                                .map(|(k, c)| {
                                    Json::Arr(vec![Json::Str((*k).into()), Json::Str((*c).into())])
                                })
                                .collect(),
                        ),
                    ),
                    ("per", Json::Str(m.per.into())),
                    ("parallel", Json::Num(m.parallel as f64)),
                ]),
                None => Json::obj(Vec::<(&str, Json)>::new()),
            },
        ),
    ])
}

/// Hardware threads available to this process.
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
