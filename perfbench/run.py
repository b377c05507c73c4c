#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run it from the repository root. It builds perfbench/ (which compiles the
engine from src/) under $CARGO_TARGET_DIR, default .bench_build, then runs
the benchmark program. Without --trace it first starts SETUP_SAMPLES - 1
processes that only set the workload up, so that setup_s is a median over
fresh processes.
The last line of standard output is the program's JSON result; the exit
status is non-zero when the build fails, a check fails or a run does not
finish.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep_short", "core_chip", "serve_warm")
SETUP_SAMPLES = 5
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def source_hash():
    """sha256 over the engine and benchmark sources (git may be absent)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def build(build_dir, env):
    bin_dir = os.path.join(build_dir, "perfbench")
    if not os.path.exists(os.path.join(bin_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bin_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            shutil.rmtree(bin_dir, ignore_errors=True)
            return None
    cmd = ["cmake", "--build", bin_dir, "-j", str(os.cpu_count() or 2)]
    if subprocess.run(cmd, stdout=sys.stderr, env=env,
                      timeout=BUILD_TIMEOUT_S).returncode != 0:
        return None
    return os.path.join(bin_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)

    exe = build(build_dir, env)
    if exe is None:
        log("build failed")
        return 1

    work = os.path.join(build_dir, "work", f"{args.workload}-{os.getpid()}")
    spans_dir = os.path.join(build_dir, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    base = [exe, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    started = time.monotonic()
    try:
        setup_s, setup_mips = [], []
        if args.trace == 0:
            for i in range(SETUP_SAMPLES - 1):
                cmd = base + ["--setup-only", "--workdir", f"{work}/setup{i}"]
                r = subprocess.run(cmd, capture_output=True, text=True,
                                   env=env, timeout=RUN_TIMEOUT_S)
                sys.stderr.write(r.stderr)
                if r.returncode != 0:
                    log(f"set-up sample {i} failed ({r.returncode})")
                    return 1
                sample = json.loads(r.stdout.strip().splitlines()[-1])
                setup_s.append(repr(sample["setup_s"]))
                setup_mips.append(repr(sample["setup_mips"]))
        cmd = base + [
            "--workdir", f"{work}/run",
            "--source-hash", source_hash(),
            "--spans-out",
            os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.jsonl"),
        ]
        if setup_s:
            cmd += ["--setup-samples", ",".join(setup_s),
                    "--setup-mips", ",".join(setup_mips)]
        left = RUN_TIMEOUT_S - (time.monotonic() - started)
        r = subprocess.run(cmd, capture_output=True, text=True, env=env,
                           timeout=max(left, 10))
        sys.stderr.write(r.stderr)
        sys.stdout.write(r.stdout)
        return r.returncode
    except subprocess.TimeoutExpired:
        log("run timed out")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
