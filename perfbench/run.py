#!/usr/bin/env python3
"""Build and run fluxtrace's repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
program from the checkout's sources into .bench_build/ (CMake, Release);
later runs only re-check the build. The benchmark program prints its
metrics, a host record, and as its last stdout line one JSON result.
Work files live under .bench_build/work/ and are removed when the run
ends; traced runs leave their Chrome trace-event span files in
.bench_build/spans/.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(root):
    """Configure once, then let the build tool decide what is stale."""
    build_dir = os.path.join(root, BUILD_DIR)
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("configure failed", 1)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed", 1)
    return os.path.join(build_dir, "perfbench")


def git_revision(root):
    if not os.path.exists(os.path.join(root, ".git")) or not shutil.which("git"):
        return "none (not a git checkout)"
    r = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def source_hash(root):
    """SHA-256 over the program's sources, for checkouts without git."""
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for d, dirs, files in os.walk(src):
        dirs.sort()
        for f in sorted(files):
            p = os.path.join(d, f)
            h.update(os.path.relpath(p, root).encode())
            with open(p, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def filesystem_of(path):
    """Filesystem type of the mount holding `path` (from mountinfo)."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mountinfo") as fh:
            for line in fh:
                left, _, right = line.partition(" - ")
                mount = left.split()[4]
                if (path == mount or path.startswith(mount.rstrip("/") + "/")) \
                        and len(mount) >= len(best):
                    best, fstype = mount, right.split()[0]
    except OSError:
        pass
    return fstype


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    if not os.path.exists(os.path.join(root, "src", "CMakeLists.txt")):
        fail("run from the root of a fluxtrace checkout (src/ not found)")
    binary = build(root)

    work = os.path.join(root, BUILD_DIR, "work", "%s-%d" % (args.workload, os.getpid()))
    spans = os.path.join(root, BUILD_DIR, "spans")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--out-dir", spans,
           "--git-rev", git_revision(root), "--source-hash", source_hash(root),
           "--work-fs", filesystem_of(os.path.join(root, BUILD_DIR))]
    try:
        r = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S, 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
