#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the repository root.

    python3 perfbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

The C++ benchmark program is built from source (Release) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the
variable is unset. Build output goes to stderr; the program's standard
output is passed through unchanged, so its last line is the result
JSON. Result and trace files land in <build dir>/results.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("bulk-wide", "small-streams", "serve-mix")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir(root):
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not d.is_absolute():
        d = root / d
    return d / "perfbench"


def build(bench, out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(bench), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def source_stamp(root):
    """The git commit when there is one, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        p = root / top
        files = [p] if p.is_file() else sorted(
            f for f in p.rglob("*") if f.is_file())
        for f in files:
            h.update(str(f.relative_to(root)).encode())
            h.update(f.read_bytes())
    return "tree-sha256:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench = Path(__file__).resolve().parent
    root = bench.parent
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        fail(f"no simdram sources next to {bench.name}/ (expected "
             "CMakeLists.txt and src/ at the repository root)")

    out = build_dir(root)
    build(bench, out)
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)

    cmd = [str(out / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--git-sha", source_stamp(root),
           "--out-dir", str(results)]
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(stdout.decode())
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
