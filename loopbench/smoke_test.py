#!/usr/bin/env python3
"""Smoke test of the loopback session benchmark.

Run from the repository root:

    python3 loopbench/smoke_test.py

Checks, on short runs, that
  * an untraced run prints every end_to_end metric of BENCHMARK.json with
    its unit, and a traced run every per_layer metric;
  * a run whose load generator corrupts one echoed record in flight
    (--inject-bad-echo) fails its gates: correct is false, the session is
    counted as failed, and the exit status is not 0.
Exits 0 when every check passes.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD = "resume_ticket"


def run(*extra):
    cmd = [sys.executable, str(ROOT / "loopbench" / "run.py"),
           "--workload", WORKLOAD, "--seed", "3", "--seconds", "2", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, json.loads(lines[-1]) if lines else None


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        code, lines, result = run("--trace", trace)
        expect(code == 0 and result and result["correct"],
               f"--trace {trace} run passes its gates")
        metrics = (result or {}).get("metrics", {})
        for m in spec[key]:
            got = metrics.get(m["name"])
            expect(got is not None and got.get("unit") == m["unit"],
                   f"--trace {trace} prints {m['name']} in {m['unit']}")
            expect(any(line.split()[1:2] == [m["name"]] and
                       line.split()[-1] == m["unit"] for line in lines),
                   f"--trace {trace} shows {m['name']} in its metric lines")

    code, lines, result = run("--trace", "0", "--inject-bad-echo")
    expect(code != 0, "injected bad echo: exit status is not 0")
    expect(result is not None and result["correct"] is False,
           "injected bad echo: correct is false")
    expect(result is not None and result["failed"] >= 1,
           "injected bad echo: the session counts as failed")
    expect(any(line.startswith("gate FAIL") and "echo mismatch" in line
               for line in lines),
           "injected bad echo: the echo gate fails")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
