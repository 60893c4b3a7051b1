//! A tiny-size run of each workload through the whole harness: set-up
//! repetition, two passes with digest comparison, a traced pass, kernels
//! and the audit. Every correctness check must pass and the record must
//! carry what `run.py` reads.

use ssync_perfbench::city::CityParallel;
use ssync_perfbench::joint_sync::JointSync;
use ssync_perfbench::mesh::MeshTransfer;
use ssync_perfbench::{run, Scale, Spec};

fn spec(threads: usize) -> Spec {
    Spec {
        seed: 3,
        seconds: 0.0,
        trace: true,
        scale: Scale::Tiny,
        threads,
    }
}

fn check(record: &str, spans: &[&str]) {
    assert!(record.contains("\"failed\":0.0"), "{record}");
    assert!(record.contains("\"failures\":[]"), "{record}");
    for key in [
        "\"untraced\":{\"ms\":[",
        "\"traced\":{\"ms\":[",
        "\"kernels_us\":{\"kernel.",
    ] {
        assert!(record.contains(key), "missing {key}");
    }
    for s in spans {
        let key = format!("\"{s}\":[");
        let at = record.find(&key).unwrap_or_else(|| panic!("no span {s}"));
        assert!(
            !record[at + key.len()..].starts_with(']'),
            "span {s} never recorded"
        );
    }
}

#[test]
fn joint_sync_tiny_passes_its_checks() {
    let (record, tracer) = run("joint_sync", &JointSync, &spec(1));
    check(
        &record.render(),
        &[
            "core.sls.measure",
            "linprog.wait_solution",
            "core.session.join",
            "core.session.decode",
        ],
    );
    assert!(tracer.chrome_json().contains("\"name\":\"trial\""));
}

#[test]
fn mesh_transfer_tiny_passes_its_checks() {
    let (record, _) = run("mesh_transfer", &MeshTransfer, &spec(1));
    check(
        &record.render(),
        &[
            "testbed.transfer.single",
            "testbed.transfer.exor",
            "testbed.transfer.exor_ss",
        ],
    );
}

#[test]
fn city_parallel_tiny_matches_across_thread_counts() {
    let (record, _) = run("city_parallel", &CityParallel, &spec(2));
    check(
        &record.render(),
        &["testbed.city_run", "exp.region", "sim.build"],
    );
}
