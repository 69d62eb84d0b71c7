#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload serve-yelp-store --seed 1 --seconds 30 --trace 0

Builds the `perfbench` package (into `$CARGO_TARGET_DIR`, default
`.bench_build`), runs one workload and checks its result against
`BENCHMARK.json`. Standard output ends with one JSON line: `correct`,
`attempted`, `failed` and `metrics` (end-to-end metrics with `--trace 0`,
per-layer metrics with `--trace 1`). The lines before it describe the run,
including a machine fingerprint. A traced run also writes its spans and
per-layer metrics to `.bench_out/`. Any failed build, correctness check or
result check exits non-zero without printing a result.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
# A run sets up once, then measures for --seconds; a traced run measures
# twice. The limit on one run grows with --seconds from this allowance, up
# to RUN_TIMEOUT_MAX_S, so that a stuck run still ends within 180 s.
RUN_SETUP_ALLOWANCE_S = 60
RUN_TIMEOUT_PER_SECOND = 5
RUN_TIMEOUT_MAX_S = 170
# Sources whose hash identifies the measured code when git is unavailable.
SOURCE_DIRS = ["crates", "src", "perfbench"]
SOURCE_FILES = ["Cargo.toml", "Cargo.lock", "BENCHMARK.json"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_sha256():
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, f) for f in SOURCE_FILES]
    for d in SOURCE_DIRS:
        for base, dirs, files in os.walk(os.path.join(ROOT, d)):
            dirs[:] = sorted(x for x in dirs if x not in ("target", ".bench_build"))
            paths.extend(os.path.join(base, f) for f in sorted(files))
    for p in paths:
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def fingerprint(config):
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    fp = {
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "git_sha": command_output(["git", "rev-parse", "HEAD"]) or "unavailable",
        "source_sha256": source_sha256(),
        "rustc": command_output(["rustc", "--version"]) or "unknown",
        "build": "cargo build --release (default features)",
    }
    fp.update(config)
    return fp


def check_result(result, spec, trace):
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result must have exactly the keys correct, attempted, failed, metrics")
    if result["correct"] is not True:
        fail("the run reported incorrect output")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail(f"{key} must be a whole number")
    if result["attempted"] < 1:
        fail("nothing was attempted")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(want):
        missing, extra = sorted(set(want) - set(got)), sorted(set(got) - set(want))
        fail(f"metric names differ from BENCHMARK.json: missing {missing}, extra {extra}")
    for name, m in got.items():
        v = m.get("value")
        if m.get("unit") != want[name] or not isinstance(v, (int, float)) or not math.isfinite(v):
            fail(f"metric {name} is malformed: {m}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"BENCHMARK.json: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    manifest = os.path.join(HERE, "Cargo.toml")
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build: {e}")
    if build.returncode != 0:
        fail("build failed")
    binary = os.path.join(ROOT, target, "release", "gcnp-perfbench")

    trace_path = os.path.join(ROOT, ".bench_out", f"trace-{args.workload}-seed{args.seed}.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", trace_path]
    try:
        run = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=min(RUN_SETUP_ALLOWANCE_S + RUN_TIMEOUT_PER_SECOND * args.seconds,
                        RUN_TIMEOUT_MAX_S),
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"run: {e}")
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        fail(f"the run failed (exit code {run.returncode})")

    config = {}
    info = []
    for line in lines[:-1]:
        if line.startswith("config: "):
            config = json.loads(line[len("config: "):])
        else:
            info.append(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"the last line is not JSON: {lines[-1]!r}")
    check_result(result, spec, args.trace == 1)

    fp = fingerprint(config)
    if args.trace == 1:
        with open(trace_path) as f:
            doc = json.load(f)
        doc["fingerprint"] = fp
        with open(trace_path, "w") as f:
            json.dump(doc, f)
    for line in info:
        print(line)
    print("fingerprint: " + json.dumps(fp, sort_keys=True))
    print(lines[-1])


if __name__ == "__main__":
    main()
