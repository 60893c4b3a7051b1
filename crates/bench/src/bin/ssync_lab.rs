//! `ssync-lab` — the unified experiment runner and resident experiment
//! service.
//!
//! One-shot mode lists and runs any registered evaluation scenario by
//! name:
//!
//! ```text
//! ssync-lab list
//! ssync-lab run fig12_sync_error --threads 8 --trials 4 --format json
//! ssync-lab run fig08_wait_lp --check golden/fig08.tsv
//! ```
//!
//! Service mode operates a spool directory (see
//! `ssync_exp::service`): enqueue jobs, drain them with sharded workers,
//! resume interrupted runs, inspect the result cache:
//!
//! ```text
//! ssync-lab enqueue testbed_city --dir spool --trials 4
//! ssync-lab serve --dir spool --workers 8 --once
//! ssync-lab resume j000001 --dir spool
//! ssync-lab result j000001 --dir spool --check golden/testbed_city.tsv
//! ssync-lab cache list --dir spool
//! ```
//!
//! Flags for `run`:
//!
//! * `--threads N` — worker count (default: all cores). Output is
//!   byte-identical for every `N`.
//! * `--trials K` — trial multiplier. The flag wins over the
//!   `SSYNC_TRIALS` env (see `ssync_exp::resolve_trials`); a malformed
//!   flag is a hard error, never a silent fallback.
//! * `--format tsv|json` — serialization (default `tsv`).
//! * `--out FILE` — write to a file instead of stdout.
//! * `--check FILE` — golden-regression mode: compare the rendered output
//!   against `FILE`; exit 1 with a first-divergence diagnostic on mismatch.
//! * `--trace FILE` — (observable scenarios only) write a Chrome
//!   trace-event JSON of the run, loadable in Perfetto as a per-node
//!   timeline. The normal rendered output is byte-identical with or
//!   without this flag.
//! * `--metrics FILE` — (observable scenarios only) write the folded
//!   metric-registry snapshot, serialized per `--format`.
//!
//! Flags for the service subcommands:
//!
//! * `--dir DIR` — the spool directory (required everywhere).
//! * `enqueue`: `--trials K` (flag beats env, baked into the spec),
//!   `--seed S`, `--format tsv|json`.
//! * `serve`: `--workers N`, `--once` (exit when the queue drains instead
//!   of polling), `--abort-after-units K` (deterministic kill switch:
//!   stop each job after K fresh units — the CI smoke test's
//!   mid-run "crash"), `--trace FILE` / `--metrics FILE` (service
//!   lifecycle observability via `ssync_obs::ServiceObs`).
//! * `resume`: `--workers N`, `--abort-after-units K`, `--trace`,
//!   `--metrics` — re-runs one claimed job; the checkpoint and cache make
//!   it idempotent.
//! * `result`: `--check FILE` and/or `--out FILE` for a completed job's
//!   result bytes.
//! * `cache`: `list` | `stats` | `clear`.

use ssync_bench::scenarios;
use ssync_exp::service::{
    process_next, resume_job, JobOutcome, JobQueue, JobSpec, ResultCache, ServiceConfig,
    ServiceEvent, ServiceObserver,
};
use ssync_exp::{golden, resolve_trials, run_rendered, Format, RunConfig};
use ssync_obs::{run_observed_rendered, ServiceObs};

fn usage() -> ! {
    eprintln!(
        "usage:\n  ssync-lab list\n  ssync-lab run <scenario> [--threads N] [--trials K] \
         [--format tsv|json] [--out FILE] [--check FILE] [--trace FILE] [--metrics FILE]\n  \
         ssync-lab enqueue <scenario> --dir DIR [--trials K] [--seed S] [--format tsv|json]\n  \
         ssync-lab serve --dir DIR [--workers N] [--once] [--abort-after-units K] \
         [--trace FILE] [--metrics FILE]\n  \
         ssync-lab resume <job-id> --dir DIR [--workers N] [--abort-after-units K] \
         [--trace FILE] [--metrics FILE]\n  \
         ssync-lab result <job-id> --dir DIR [--check FILE] [--out FILE]\n  \
         ssync-lab cache <list|stats|clear> --dir DIR\n\n\
         run `ssync-lab list` for scenario names"
    );
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("ssync-lab: {msg}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            println!("{:<22} {:<18} description", "name", "paper");
            for s in scenarios::all() {
                println!("{:<22} {:<18} {}", s.name(), s.paper_ref(), s.title());
            }
        }
        Some("run") => run(&args[1..]),
        Some("enqueue") => enqueue(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("resume") => resume(&args[1..]),
        Some("result") => result(&args[1..]),
        Some("cache") => cache(&args[1..]),
        _ => usage(),
    }
}

fn run(args: &[String]) {
    let Some(name) = args.first().filter(|a| !a.starts_with("--")) else {
        usage();
    };
    let Some(scenario) = scenarios::find(name) else {
        fail(&format!(
            "unknown scenario {name:?}; run `ssync-lab list` for the registry"
        ));
    };

    let mut cfg = RunConfig::default();
    let mut trials_flag: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| -> String {
            it.next()
                .unwrap_or_else(|| fail(&format!("{what} expects a value")))
                .clone()
        };
        match flag.as_str() {
            "--threads" => {
                cfg.threads = value("--threads")
                    .parse()
                    .unwrap_or_else(|_| fail("--threads expects an integer"));
            }
            "--trials" => trials_flag = Some(value("--trials")),
            "--format" => {
                cfg.format = Format::parse(&value("--format"))
                    .unwrap_or_else(|| fail("--format expects `tsv` or `json`"));
            }
            "--out" => out_path = Some(value("--out")),
            "--check" => check_path = Some(value("--check")),
            "--trace" => trace_path = Some(value("--trace")),
            "--metrics" => metrics_path = Some(value("--metrics")),
            other => fail(&format!("unknown flag {other:?}")),
        }
    }
    // The flag beats the environment; a malformed flag fails loudly
    // rather than silently running the wrong number of trials.
    cfg.trials_scale = resolve_trials(
        trials_flag.as_deref(),
        std::env::var("SSYNC_TRIALS").ok().as_deref(),
    )
    .unwrap_or_else(|e| fail(&e));

    let rendered = if trace_path.is_some() || metrics_path.is_some() {
        let Some(observable) = scenarios::find_observable(name) else {
            let names: Vec<&str> = scenarios::observable().iter().map(|s| s.name()).collect();
            fail(&format!(
                "scenario {name:?} does not support --trace/--metrics \
                 (observable scenarios: {})",
                names.join(", ")
            ));
        };
        let (rendered, obs) = run_observed_rendered(observable, &cfg);
        if let Some(path) = &trace_path {
            std::fs::write(path, obs.chrome_trace_json())
                .unwrap_or_else(|e| fail(&format!("cannot write trace {path:?}: {e}")));
        }
        if let Some(path) = &metrics_path {
            let snapshot = obs.metrics_snapshot();
            let serialized = match cfg.format {
                Format::Tsv => ssync_exp::sink::render_tsv(&snapshot),
                Format::Json => ssync_exp::sink::render_json("metrics", &snapshot),
            };
            std::fs::write(path, serialized)
                .unwrap_or_else(|e| fail(&format!("cannot write metrics {path:?}: {e}")));
        }
        rendered
    } else {
        run_rendered(scenario, &cfg)
    };

    if let Some(path) = &check_path {
        let expected = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(&format!("cannot read golden file {path:?}: {e}")));
        if let Err(diff) = golden::compare(&expected, &rendered) {
            eprintln!("ssync-lab: golden mismatch for {name} vs {path}: {diff}");
            std::process::exit(1);
        }
        eprintln!("ssync-lab: {name} matches golden {path}");
    }

    match &out_path {
        Some(path) => std::fs::write(path, &rendered)
            .unwrap_or_else(|e| fail(&format!("cannot write {path:?}: {e}"))),
        None => print!("{rendered}"),
    }
}

/// Shared service-flag parser: `--dir` plus whatever each subcommand
/// accepts.
struct ServiceArgs {
    dir: Option<String>,
    workers: usize,
    once: bool,
    abort_after_units: Option<usize>,
    trials_flag: Option<String>,
    seed: u64,
    format: Format,
    check_path: Option<String>,
    out_path: Option<String>,
    trace_path: Option<String>,
    metrics_path: Option<String>,
}

fn parse_service_args(args: &[String], allowed: &[&str]) -> ServiceArgs {
    let mut parsed = ServiceArgs {
        dir: None,
        workers: 0,
        once: false,
        abort_after_units: None,
        trials_flag: None,
        seed: 0,
        format: Format::Tsv,
        check_path: None,
        out_path: None,
        trace_path: None,
        metrics_path: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !allowed.contains(&flag.as_str()) {
            fail(&format!("unknown flag {flag:?}"));
        }
        let mut value = |what: &str| -> String {
            it.next()
                .unwrap_or_else(|| fail(&format!("{what} expects a value")))
                .clone()
        };
        match flag.as_str() {
            "--dir" => parsed.dir = Some(value("--dir")),
            "--workers" => {
                parsed.workers = value("--workers")
                    .parse()
                    .unwrap_or_else(|_| fail("--workers expects an integer"));
            }
            "--once" => parsed.once = true,
            "--abort-after-units" => {
                parsed.abort_after_units = Some(
                    value("--abort-after-units")
                        .parse()
                        .unwrap_or_else(|_| fail("--abort-after-units expects an integer")),
                );
            }
            "--trials" => parsed.trials_flag = Some(value("--trials")),
            "--seed" => {
                parsed.seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| fail("--seed expects an integer"));
            }
            "--format" => {
                parsed.format = Format::parse(&value("--format"))
                    .unwrap_or_else(|| fail("--format expects `tsv` or `json`"));
            }
            "--check" => parsed.check_path = Some(value("--check")),
            "--out" => parsed.out_path = Some(value("--out")),
            "--trace" => parsed.trace_path = Some(value("--trace")),
            "--metrics" => parsed.metrics_path = Some(value("--metrics")),
            other => fail(&format!("unknown flag {other:?}")),
        }
    }
    parsed
}

fn open_spool(dir: &Option<String>) -> JobQueue {
    let Some(dir) = dir else {
        fail("--dir DIR is required for service subcommands");
    };
    JobQueue::open(std::path::Path::new(dir))
        .unwrap_or_else(|e| fail(&format!("cannot open spool {dir:?}: {e}")))
}

fn service_config(parsed: &ServiceArgs) -> ServiceConfig {
    ServiceConfig {
        workers: RunConfig {
            threads: parsed.workers,
            ..Default::default()
        }
        .effective_threads(),
        abort_after_units: parsed.abort_after_units,
    }
}

/// Narrates service progress on stderr (stdout stays reserved for
/// result bytes) and optionally tees into a `ServiceObs`.
struct Narrator {
    obs: Option<ServiceObs>,
}

impl ServiceObserver for Narrator {
    fn on_event(&mut self, event: &ServiceEvent) {
        match event {
            ServiceEvent::JobStarted {
                job,
                scenario,
                units,
            } => eprintln!("ssync-lab: {job}: {scenario} ({units} units)"),
            ServiceEvent::CacheHit { job, key } => {
                eprintln!("ssync-lab: {job}: cache hit ({key:016x})");
            }
            ServiceEvent::CheckpointLoaded {
                job,
                units,
                dropped_tail,
            } => eprintln!(
                "ssync-lab: {job}: restored {units} units from checkpoint{}",
                if *dropped_tail {
                    " (dropped a torn tail)"
                } else {
                    ""
                }
            ),
            ServiceEvent::JobCompleted {
                job,
                units,
                from_checkpoint,
            } => eprintln!(
                "ssync-lab: {job}: done ({units} units, {from_checkpoint} from checkpoint)"
            ),
            ServiceEvent::JobInterrupted { job, done, total } => {
                eprintln!("ssync-lab: {job}: interrupted at {done}/{total} units (resumable)");
            }
            _ => {}
        }
        if let Some(obs) = &mut self.obs {
            obs.on_event(event);
        }
    }
}

impl Narrator {
    fn new(want_obs: bool) -> Narrator {
        Narrator {
            obs: want_obs.then(ServiceObs::new),
        }
    }

    /// Writes the requested observability artifacts.
    fn export(&self, parsed: &ServiceArgs) {
        let Some(obs) = &self.obs else { return };
        if let Some(path) = &parsed.trace_path {
            std::fs::write(path, obs.chrome_trace_json())
                .unwrap_or_else(|e| fail(&format!("cannot write trace {path:?}: {e}")));
        }
        if let Some(path) = &parsed.metrics_path {
            let serialized = match parsed.format {
                Format::Tsv => ssync_exp::sink::render_tsv(&obs.metrics_snapshot()),
                Format::Json => ssync_exp::sink::render_json("metrics", &obs.metrics_snapshot()),
            };
            std::fs::write(path, serialized)
                .unwrap_or_else(|e| fail(&format!("cannot write metrics {path:?}: {e}")));
        }
    }
}

fn enqueue(args: &[String]) {
    let Some(name) = args.first().filter(|a| !a.starts_with("--")) else {
        usage();
    };
    if scenarios::find(name).is_none() {
        fail(&format!(
            "unknown scenario {name:?}; run `ssync-lab list` for the registry"
        ));
    }
    let parsed = parse_service_args(&args[1..], &["--dir", "--trials", "--seed", "--format"]);
    // Enqueue-time resolution is final: the resolved count is baked into
    // the spec, and the serving process never re-reads SSYNC_TRIALS — the
    // trials a job is enqueued with are the trials it runs with.
    let trials = resolve_trials(
        parsed.trials_flag.as_deref(),
        std::env::var("SSYNC_TRIALS").ok().as_deref(),
    )
    .unwrap_or_else(|e| fail(&e));
    let queue = open_spool(&parsed.dir);
    let spec = JobSpec {
        scenario: name.clone(),
        trials,
        seed: parsed.seed,
        format: parsed.format,
    };
    let id = queue
        .enqueue(&spec)
        .unwrap_or_else(|e| fail(&format!("cannot enqueue: {e}")));
    println!("{id}");
}

fn serve(args: &[String]) {
    let parsed = parse_service_args(
        args,
        &[
            "--dir",
            "--workers",
            "--once",
            "--abort-after-units",
            "--trace",
            "--metrics",
            "--format",
        ],
    );
    let queue = open_spool(&parsed.dir);
    let svc = service_config(&parsed);
    let mut narrator = Narrator::new(parsed.trace_path.is_some() || parsed.metrics_path.is_some());
    let registry = scenarios::LabRegistry;
    loop {
        match process_next(&queue, &registry, &svc, &mut narrator) {
            Ok(Some(_)) => continue,
            Ok(None) => {
                if parsed.once {
                    break;
                }
                // Resident mode: poll the spool. Wall-clock here shapes
                // only latency, never result bytes.
                std::thread::sleep(std::time::Duration::from_millis(200));
            }
            Err(e) => {
                narrator.export(&parsed);
                fail(&format!("job failed: {e}"));
            }
        }
    }
    narrator.export(&parsed);
}

fn resume(args: &[String]) {
    let Some(id) = args.first().filter(|a| !a.starts_with("--")) else {
        usage();
    };
    let parsed = parse_service_args(
        &args[1..],
        &[
            "--dir",
            "--workers",
            "--abort-after-units",
            "--trace",
            "--metrics",
            "--format",
        ],
    );
    let queue = open_spool(&parsed.dir);
    let svc = service_config(&parsed);
    let mut narrator = Narrator::new(parsed.trace_path.is_some() || parsed.metrics_path.is_some());
    let outcome = resume_job(&queue, id, &scenarios::LabRegistry, &svc, &mut narrator)
        .unwrap_or_else(|e| fail(&format!("cannot resume {id}: {e}")));
    narrator.export(&parsed);
    if let JobOutcome::Interrupted { done, total } = outcome {
        eprintln!("ssync-lab: {id} still interrupted at {done}/{total}");
        std::process::exit(3);
    }
}

fn result(args: &[String]) {
    let Some(id) = args.first().filter(|a| !a.starts_with("--")) else {
        usage();
    };
    let parsed = parse_service_args(&args[1..], &["--dir", "--check", "--out"]);
    let queue = open_spool(&parsed.dir);
    let spec = queue
        .job_spec(id)
        .unwrap_or_else(|e| fail(&format!("unknown job {id}: {e}")));
    let path = queue.result_path(id, spec.format);
    let rendered = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        let status = queue.read_status(id).unwrap_or_else(|_| "unknown".into());
        fail(&format!(
            "no result for {id} (status: {status}): {e}; \
             run `ssync-lab resume {id}` to finish it"
        ))
    });
    if let Some(check) = &parsed.check_path {
        let expected = std::fs::read_to_string(check)
            .unwrap_or_else(|e| fail(&format!("cannot read golden file {check:?}: {e}")));
        if let Err(diff) = golden::compare(&expected, &rendered) {
            eprintln!("ssync-lab: golden mismatch for {id} vs {check}: {diff}");
            std::process::exit(1);
        }
        eprintln!("ssync-lab: {id} matches golden {check}");
    }
    match &parsed.out_path {
        Some(out) => std::fs::write(out, &rendered)
            .unwrap_or_else(|e| fail(&format!("cannot write {out:?}: {e}"))),
        None => print!("{rendered}"),
    }
}

fn cache(args: &[String]) {
    let Some(action) = args.first().filter(|a| !a.starts_with("--")) else {
        usage();
    };
    let parsed = parse_service_args(&args[1..], &["--dir"]);
    let queue = open_spool(&parsed.dir);
    let cache = ResultCache::open(&queue.cache_dir())
        .unwrap_or_else(|e| fail(&format!("cannot open cache: {e}")));
    match action.as_str() {
        "list" => {
            for e in cache
                .entries()
                .unwrap_or_else(|e| fail(&format!("cannot list cache: {e}")))
            {
                println!("{:016x}\t{}\t{}", e.key, e.scenario, e.bytes);
            }
        }
        "stats" => {
            let entries = cache
                .entries()
                .unwrap_or_else(|e| fail(&format!("cannot list cache: {e}")));
            let bytes: usize = entries.iter().map(|e| e.bytes).sum();
            println!("{} entries, {} payload bytes", entries.len(), bytes);
        }
        "clear" => {
            let removed = cache
                .clear()
                .unwrap_or_else(|e| fail(&format!("cannot clear cache: {e}")));
            eprintln!("ssync-lab: removed {removed} cache entries");
        }
        other => fail(&format!("unknown cache action {other:?}: list|stats|clear")),
    }
}
