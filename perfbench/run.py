#!/usr/bin/env python3
"""Build and run one perfbench workload.

    python3 perfbench/run.py --workload sweep_scpg|serve_hot|serve_cold \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first run configures and builds
perfbench/ (and the library tree under src/) into the directory named by
CARGO_TARGET_DIR, or .bench_build when it is unset; later runs only
check that the build is current.  Build output goes to stderr, so the
last line on stdout is the benchmark's JSON result.  Scratch files live
in .bench_work/ and are removed afterwards; a traced run (--trace 1)
leaves its Chrome trace in .bench_out/.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("sweep_scpg", "serve_hot", "serve_cold")
# Beyond --seconds of load a run sets up, checks and (traced) exports;
# this margin covers that several times over.
RUN_MARGIN_S = 90


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(root, bench_dir, build_dir):
    """Configures once, then (re)builds the perfbench target."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no library sources under " + os.path.join(root, "src"))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = ["cmake", "-S", bench_dir, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        if subprocess.run(cfg, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    a = ap.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(root, build_dir)
    exe = build(root, bench_dir, build_dir)

    work = os.path.join(root, ".bench_work",
                        "%s-%d-%d" % (a.workload, a.seed, os.getpid()))
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(work)
    os.makedirs(out_dir, exist_ok=True)
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", a.trace, "--root", root]
    timeout = 2 * a.seconds + RUN_MARGIN_S
    try:
        proc = subprocess.run(cmd, cwd=work, stdout=subprocess.PIPE,
                              timeout=timeout)
        trace = os.path.join(work, "trace-%s-seed%d.json" % (a.workload, a.seed))
        if os.path.exists(trace):
            shutil.move(trace, os.path.join(out_dir, os.path.basename(trace)))
    except subprocess.TimeoutExpired:
        fail("workload %s timed out after %g s" % (a.workload, timeout), 4)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(proc.stdout.decode())
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
