#!/usr/bin/env python3
"""Run one benchmark workload and print its result line.

    python3 perfbench/run.py --workload gnn-dss-2k --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds the
`perfbench` driver (into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench) and trains the benchmark's DSS model once into
perfbench/.model/. Every run writes its full record (environment stamp,
diagnostics and, when traced, a Chrome trace) to <build dir>/results/, and
prints the environment stamp and diagnostics as '#' lines before the result
line. Exits non-zero when any operation failed.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("gnn-dss-2k", "lu-setup-100k", "serve-batch-8")
# The operator is part of a workload's definition: --seed varies only the
# right-hand sides, so run-to-run spread is not problem-to-problem spread.
MESH_SEED = 7
MODEL = os.path.join(HERE, ".model", "dss_k10_d10_h10_smoke_e30.bin")
RUN_TIMEOUT_S = 170


def fail(msg):
    sys.stderr.write("perfbench: " + msg + "\n")
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def logged(cmd, log_path):
    # Compiler scratch files stay inside the build directory too.
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(log_path, "a") as log:
        log.write("$ " + " ".join(cmd) + "\n")
        log.flush()
        rc = subprocess.run(cmd, cwd=ROOT, stdout=log, env=env,
                            stderr=subprocess.STDOUT).returncode
    if rc != 0:
        with open(log_path) as log:
            sys.stderr.write("".join(log.readlines()[-40:]))
        fail(f"command failed ({rc}): {' '.join(cmd)}")


def build():
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    log = os.path.join(bdir, "build.log")
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        logged(["cmake", "-S", HERE, "-B", bdir,
                "-DCMAKE_BUILD_TYPE=Release"], log)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    logged(["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs],
           log)
    return os.path.join(bdir, "perfbench")


def provision_model(binary):
    if not os.path.exists(MODEL):
        os.makedirs(os.path.dirname(MODEL), exist_ok=True)
        logged([binary, "--provision-model", MODEL],
               os.path.join(build_dir(), "model.log"))
    return MODEL


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_digest():
    """Digest of the library sources and root build file: names the code
    under test where there is no git."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for d, _, names in os.walk(os.path.join(ROOT, "src")):
        files += [os.path.join(d, n) for n in names]
    for path in sorted(files):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small inputs, for the self-test")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "core",
                                       "solver_session.hpp")):
        fail("solver sources not found: run from the root of a full "
             "checkout of the repository")

    binary = build()
    model = provision_model(binary)
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.smoke:
        stem += "-smoke"
    cmd = [binary, "--workload", args.workload, "--rhs-seed", str(args.seed),
           "--mesh-seed", str(MESH_SEED), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--model", model,
           "--git-sha", git_sha()]
    if args.trace:
        cmd += ["--trace-out", os.path.join(results, stem + ".trace.json")]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{args.workload} printed no result (exit code "
             f"{proc.returncode})")
    record["env"]["source_digest"] = source_digest()
    with open(os.path.join(results, stem + ".json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print("# env " + json.dumps(record["env"], sort_keys=True))
    print("# diagnostics " + json.dumps(record["diagnostics"], sort_keys=True))
    result = {k: record[k] for k in ("correct", "attempted", "failed",
                                     "metrics")}
    print(json.dumps(result), flush=True)
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
