#!/usr/bin/env python3
"""Build and run the closed-loop loopback session benchmark.

Usage, from the repository root:

    python3 loopbench/run.py --workload full_handshake --seed 1 \
        --seconds 10 --trace 0

Configures and builds loopbench/ (Release) under .bench_build/loopbench on
first use, then runs it. The benchmark's output passes through unchanged;
its last line is the JSON result. Digests and span logs go to .bench_out/.
The exit status is the benchmark's: 0 only when every correctness gate
passed.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 175


def build():
    """Return the benchmark binary, building it if needed; None on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("loopbench: mapsec sources (src/) not found; nothing to build",
              file=sys.stderr)
        return None
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    build_dir = build_root / "loopbench"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "loopbench",
                  "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("loopbench: build failed", file=sys.stderr)
            return None
    return build_dir / "loopbench"


def main():
    binary = build()
    if binary is None:
        return 2
    cmd = [str(binary), *sys.argv[1:],
           "--state-dir", str(ROOT / ".bench_out")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout or "")
        print("loopbench: run exceeded its time limit", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        well_formed = set(result) == {"correct", "attempted", "failed",
                                      "metrics"}
    except (IndexError, ValueError):
        well_formed = False
    if not well_formed:
        print("loopbench: no result line", file=sys.stderr)
        return proc.returncode or 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
