//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--spans <file>]`
//!
//! Runs one workload and prints its raw JSON record as the last line of
//! standard output; `--spans` also writes the traced spans as a Chrome
//! trace. `run.py` turns the record into the benchmark's metrics.

use ssync_perfbench::city::CityParallel;
use ssync_perfbench::joint_sync::JointSync;
use ssync_perfbench::mesh::MeshTransfer;
use ssync_perfbench::{available_threads, run, Scale, Spec};
use std::process::ExitCode;

fn parse() -> Result<(String, Spec, Option<String>), String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut spans = None;
    let mut spec = Spec {
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        threads: available_threads(),
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => spec.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => spec.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => spec.trace = value == "1",
            "--spans" => spans = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, spec, spans))
}

fn main() -> ExitCode {
    let (workload, spec, spans) = match parse() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (record, trace) = match workload.as_str() {
        "joint_sync" => run(&workload, &JointSync, &spec),
        "mesh_transfer" => run(&workload, &MeshTransfer, &spec),
        "city_parallel" => run(&workload, &CityParallel, &spec),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = spans {
        if let Err(e) = std::fs::write(&path, trace.chrome_json()) {
            eprintln!("perfbench: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", record.render());
    ExitCode::SUCCESS
}
