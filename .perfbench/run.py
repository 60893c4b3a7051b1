#!/usr/bin/env python3
"""The repository benchmark's command.

    python3 .perfbench/run.py --workload <joint_sync|mesh_transfer|city_parallel>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` binary from source
(release profile, into $CARGO_TARGET_DIR, default `.bench_build`), runs one
workload, prints every metric by name with its unit, and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the per-layer ones. The
full result, with the machine and build fingerprint, goes to
.perfbench/out/<workload>-seed<n>-trace<t>.json; a traced run also writes
its spans there as a Chrome trace.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import stats  # noqa: E402

WORKLOADS = ("joint_sync", "mesh_transfer", "city_parallel")

# Each workload's default seed, and the held-out seed a claimed gain must
# also hold on (never tune a change against it). `--seed default` and
# `--seed held-out` name them.
SEEDS = {
    "joint_sync": {"default": 11, "held-out": 911},
    "mesh_transfer": {"default": 12, "held-out": 912},
    "city_parallel": {"default": 13, "held-out": 913},
}

# Sources whose content the fingerprint hashes (the checkout may not be a
# git repository, so a git revision is recorded only when there is one).
HASHED = ("Cargo.toml", "Cargo.lock", "src", "crates", "shims", ".perfbench")
SKIPPED_DIRS = {"out", "target", "__pycache__", ".bench_build"}


def build():
    """Builds the benchmark binary; returns its path."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    built = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        stdout=sys.stderr, env=env,
    )
    if built.returncode != 0:
        sys.exit(f"building the benchmark failed (cargo exited with {built.returncode})")
    return target / "release" / "perfbench"


def source_hash():
    h = hashlib.sha256()
    for top in HASHED:
        path = ROOT / top
        files = [path] if path.is_file() else sorted(
            p for p in path.rglob("*")
            if p.is_file() and not SKIPPED_DIRS.intersection(p.relative_to(ROOT).parts)
        )
        for f in files:
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def fingerprint(raw, seed):
    return {
        "nproc": raw["nproc"],
        "threads": raw["threads"],
        "simd_tier": raw["simd_tier"],
        "rustc": command_output(["rustc", "--version"]),
        "profile": "release",
        "git_rev": command_output(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else "none",
        "source_hash": source_hash(),
        "machine": platform.machine(),
        "seed": seed,
        "size": raw["size"],
    }


def p50(values):
    return statistics.median(values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(raw):
    """End-to-end metrics from the untraced passes: {name: (value, unit)}."""
    ms = raw["untraced"]["ms"]
    wall_s = sum(ms) / 1e3
    return {
        "trials_per_s": (len(ms) / wall_s, "1/s"),
        "trial_p50_ms": (statistics.median(ms), "ms"),
        "frames_per_s": (raw["untraced"]["frames"] / wall_s, "1/s"),
        "setup_s": (statistics.median(raw["setup_s"]), "s"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MB"),
        "decode_ratio": (ratio(raw["decode_ok"], raw["decode_of"]), "ratio"),
    }


def kernel_stats(raw):
    out = {}
    for name, us in raw["kernels_us"].items():
        out[name + ".median_us"] = (statistics.median(us), "us")
        out[name + ".p90_us"] = (stats.percentile(us, 90), "us")
        out[name + ".mad_us"] = (stats.mad(us), "us")
    return out


def model(raw, measured_ms):
    """Counts × kernel medians against the measured mean trial time."""
    m, ctr = raw["model"], raw["counters"]
    per = ctr.get(m["per"], 0.0)
    predicted = 0.0
    for kernel, counter in m["terms"]:
        predicted += ratio(ctr.get(counter, 0.0), per) * statistics.median(raw["kernels_us"][kernel]) / 1e3
    predicted /= m["parallel"]
    return predicted, measured_ms - predicted


def per_layer(raw):
    """Per-layer metrics from the traced passes, spans, counters and kernels."""
    spans, ctr = raw["spans"], raw["counters"]
    city = raw["workload"] == "city_parallel"
    frames = ctr.get("exp.frames" if city else "frames", 0.0)
    sim = "exp.sim." if city else "sim."
    regions = spans["exp.region"]
    city_ms = p50(spans["testbed.city_run"])
    untraced, traced = raw["untraced"]["ms"], raw["traced"]["ms"]
    mean_ms = statistics.mean(untraced)
    predicted, residual = model(raw, mean_ms)
    out = {
        "core.sls.measure_ms": (p50(spans["core.sls.measure"]), "ms"),
        "core.sls.probe_fail_ratio": (ratio(ctr.get("core.sls.probe_failures", 0.0), ctr.get("core.sls.probes", 0.0)), "ratio"),
        "core.sls.unmeasured_ratio": (ratio(ctr.get("core.sls.unmeasured", 0.0), ctr.get("trials", 0.0)), "ratio"),
        "core.session.lead_tx_ms": (p50(spans["core.session.lead_tx"]), "ms"),
        "core.session.join_ms": (p50(spans["core.session.join"]), "ms"),
        "core.session.decode_ms": (p50(spans["core.session.decode"]), "ms"),
        "core.session.join_ok_ratio": (ratio(ctr.get("core.session.joins", 0.0), ctr.get("core.session.join_attempts", 0.0)), "ratio"),
        "linprog.wait_solution_us": (p50(spans["linprog.wait_solution"]) * 1e3, "us"),
        "sim.build_ms": (p50(spans["sim.build"]), "ms"),
        "sim.medium.propagates_per_frame": (ratio(ctr.get(sim + "propagates", 0.0), frames), "count"),
        "sim.medium.retired_per_frame": (ratio(ctr.get(sim + "retired", 0.0), frames), "count"),
        "testbed.transfer_ms.single": (p50(spans["testbed.transfer.single"]), "ms"),
        "testbed.transfer_ms.exor": (p50(spans["testbed.transfer.exor"]), "ms"),
        "testbed.transfer_ms.exor_ss": (p50(spans["testbed.transfer.exor_ss"]), "ms"),
        "testbed.collisions_per_frame": (ratio(ctr.get("testbed.collisions", 0.0), ctr.get("frames", 0.0)), "count"),
        "testbed.arq_retries_per_frame": (ratio(ctr.get("testbed.arq_retries", 0.0), ctr.get("frames", 0.0)), "count"),
        "testbed.useful_frame_ratio": (ratio(ctr.get("testbed.delivered", 0.0), ctr.get("frames", 0.0)), "ratio"),
        "testbed.city_run_s": (city_ms / 1e3, "s"),
        "exp.region_p50_ms": (p50(regions), "ms"),
        "exp.region_max_ms": (max(regions, default=0.0), "ms"),
        "exp.straggler_ratio": (ratio(max(regions, default=0.0), statistics.mean(regions)) if regions else 0.0, "ratio"),
        "exp.worker_busy_ratio": (ratio(sum(regions), raw["threads"] * city_ms), "ratio"),
        "model.explained_ratio": (ratio(predicted, mean_ms), "ratio"),
        "model.residual_ms": (residual, "ms"),
        "trace.overhead_ratio": (ratio(len(traced) / sum(traced), len(untraced) / sum(untraced)) - 1.0, "ratio"),
    }
    out.update(kernel_stats(raw))
    return out


def layer_shares(raw):
    """Share of traced trial time spent inside each span name."""
    spans = raw["spans"]
    total = sum(spans["trial"]) - sum(spans["audit.probe_replay"])
    outside = ("trial", "exp.region", "sim.build", "audit.probe_replay")
    return {name: sum(v) / total for name, v in spans.items()
            if v and name not in outside and total}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, help="a number, 'default' or 'held-out'")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    args.seed = SEEDS[args.workload].get(args.seed) or int(args.seed)

    binary = build()
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(out_dir / f"{args.workload}-seed{args.seed}.trace.json")]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.exit(f"perfbench exited with {proc.returncode}")
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    metrics = per_layer(raw) if args.trace else end_to_end(raw)
    extra = {}
    if not args.trace:
        ms = raw["untraced"]["ms"]
        tail = stats.tail_percentile(ms, 95)
        extra["trial_samples"] = len(ms)
        extra["trial_p95_ms"] = tail
        extra["fail_ratio"] = ratio(raw["failed"], raw["attempted"])
    else:
        extra["layer_shares"] = layer_shares(raw)
    for f in raw["failures"]:
        print(f"perfbench: {f}", file=sys.stderr)

    fp = fingerprint(raw, args.seed)
    print(f"# {args.workload} seed {args.seed}: {raw['passes']:.0f} passes of "
          f"{raw['trials_per_pass']:.0f} trials; fingerprint {json.dumps(fp, sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:14.6g} {unit}")
    for name, value in extra.items():
        print(f"# {name}: {json.dumps(value)}")
    correct = raw["failed"] == 0 and not raw["failures"]
    result = {
        "correct": correct,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(
        dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
             finished_unix=time.time(), fingerprint=fp, extra=extra,
             failures=raw["failures"]), indent=1))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
