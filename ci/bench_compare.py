#!/usr/bin/env python3
"""Compare a fresh benchmark JSON report against a committed baseline.

Usage: bench_compare.py BASELINE.json FRESH.json [--threshold 0.20]
       bench_compare.py --exact BASELINE.json FRESH.json

Two input formats are understood:

  * google-benchmark reports (BENCH_crypto.json, BENCH_engine.json):
    benchmarks matched by name (argument variants like
    BM_EspInboundPipeline/4/real_time are distinct names, so every
    worker count is compared on its own), throughput taken from
    bytes_per_second or items_per_second when present, otherwise
    inverse real_time.
  * mapsec scenario reports (BENCH_server.json, any doc with a top-level
    "scenarios" key): nested dicts of named scenarios holding mixed
    metric fields. Only throughput-like numeric leaves (keys ending in
    "_per_s" or "_mbps") are compared; every other field — counters,
    energy figures, metrics added by future experiments — is ignored by
    construction, so extending a report never breaks comparison against
    an older baseline. The E23 "ticket_scale" block follows that
    convention: its cache_/ticket_sessions_per_s and *_record_mbps pairs
    are compared (the cache-vs-stateless-ticket throughput parity the
    bench itself gates at ±10%), while throughput_droop, the
    state-bytes-per-user figures and the 10k/100k/1M extrapolation rows
    are descriptive and skipped. The E24 "shard_sweep" block gets one
    extra structural gate on the FRESH report: the sharded tier must
    still scale the aggregate handshake rate >= 3x from 1 to 4 shards
    with byte-identical fleet digests — a topology property, so it is
    checked absolutely rather than against the baseline's value. The
    E25 "failover_slo" block gets the same treatment: a shard crash may
    lose zero honest sessions, every failover reconnect must resume by
    ticket, the blackout p99 must stay under the report's own budget,
    and the recovery transcript must be byte-identical across reruns
    and against the undisturbed run. The E26 "socket_wallclock" block
    inverts the split: its rates are real wall-clock figures, named
    with _wall suffixes precisely so they are NEVER baseline-compared
    (loopback throughput is a property of the host, not the code),
    while the outcome-equality/conservation/zero-allocation booleans
    are gated absolutely.

Refuses the comparison (exit 2, nothing compared) when the two reports
describe different hosts: a different "num_cpus" in their contexts, or a
primitive present in both "crypto_dispatch" strings that resolved to a
different backend. Numbers from different hosts or kernels move in both
directions and say nothing about the code. A dispatch row present on
only one side (a row added or deleted between the two builds) is
printed and does not refuse. A report without a num_cpus field (the
scenario reports) skips that check.

Otherwise exits non-zero if any benchmark regressed by more than the
threshold. Improvements and new/removed benchmarks are reported but
never fail the run. ci/check.sh runs this comparison by default against
the release tree it just validated; set MAPSEC_BENCH_COMPARE=0 there to
skip it on hosts whose wall-clock throughput is not trustworthy.

--exact is the model pin for scenario reports (BENCH_server.json): every
leaf of the two reports must be equal, except the wall-clock ones
(crypto_dispatch, the socket_wallclock wall* leaves and the
session_cache_*_ns_per_lookup figures). Everything else in that report
is simulated time, modeled pricing or a structural verdict, so it is a
pure function of the code: a pricing change, a served-rate change or a
new counter shows up as a named leaf instead of passing unseen inside
the 20% band. The structural gates above run too. The host-mismatch
refusal does not apply, since no pinned leaf depends on the host. A
fresh run that skipped the socket block (no loopback TCP) exempts that
block with a visible note.

Only python3 stdlib; no third-party imports.
"""

import argparse
import json
import sys


def _walk_throughput(node, prefix, out):
    """Collect throughput-like numeric leaves from a scenario report."""
    if isinstance(node, dict):
        for key, value in sorted(node.items()):
            _walk_throughput(value, f"{prefix}/{key}" if prefix else key, out)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        if prefix.endswith(("_per_s", "_mbps")) and node > 0:
            out[prefix] = ("throughput", float(node))


def load_benchmarks(path):
    with open(path) as f:
        doc = json.load(f)
    if "scenarios" in doc:
        out = {}
        _walk_throughput(doc, "", out)
        ctx = {"mapsec_build_type": doc.get("mapsec_build_type",
                                            doc.get("build_type")),
               "crypto_dispatch": doc.get("crypto_dispatch"),
               "num_cpus": doc.get("num_cpus")}
        return ctx, out
    out = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        name = b["name"]
        if "bytes_per_second" in b:
            out[name] = ("bytes_per_second", float(b["bytes_per_second"]))
        elif "items_per_second" in b:
            # Benchmarks that count items report per-item throughput;
            # compare that, not wall time per iteration.
            out[name] = ("items_per_second", float(b["items_per_second"]))
        elif float(b.get("real_time", 0)) > 0:
            # Throughput proxy: ops per unit real time.
            out[name] = ("1/real_time", 1.0 / float(b["real_time"]))
    return doc.get("context", {}), out


def parse_dispatch(summary):
    """Map primitive -> backend from a "crypto_dispatch" summary string.

    "aes=aesni sha1=sha-ni ... (forced_scalar=off)" -> {"aes": "aesni",
    ..., "forced_scalar": "off"}. A missing summary parses as {}.
    """
    rows = {}
    for token in (summary or "").split():
        key, sep, value = token.strip("()").partition("=")
        if sep:
            rows[key] = value
    return rows


def host_mismatches(base_ctx, fresh_ctx):
    """Reasons the two reports cannot be compared; [] when they can."""
    reasons = []
    b, f = base_ctx.get("num_cpus"), fresh_ctx.get("num_cpus")
    if b is not None and f is not None and b != f:
        reasons.append(f"num_cpus differs: baseline={b} fresh={f}")
    base_rows = parse_dispatch(base_ctx.get("crypto_dispatch"))
    fresh_rows = parse_dispatch(fresh_ctx.get("crypto_dispatch"))
    for prim in sorted(set(base_rows) & set(fresh_rows)):
        if base_rows[prim] != fresh_rows[prim]:
            reasons.append(f"{prim} resolved to {base_rows[prim]!r} in the "
                           f"baseline but {fresh_rows[prim]!r} fresh")
    for prim in sorted(set(base_rows) - set(fresh_rows)):
        print(f"note: dispatch row {prim} in baseline only")
    for prim in sorted(set(fresh_rows) - set(base_rows)):
        print(f"note: dispatch row {prim} in fresh report only")
    return reasons


def check_shard_sweep(path):
    """Structural gate on the fresh report's E24 shard_sweep block.

    Scaling across shard counts is a property of the sharded tier, not
    of the host the baseline was recorded on, so it is gated absolutely:
    aggregate full-handshake rate must grow >= 3x from 1 to 4 shards and
    the fleet digests must have matched byte-for-byte. Reports without a
    shard_sweep block (older baselines, other benches) pass vacuously.
    """
    with open(path) as f:
        doc = json.load(f)
    sweep = doc.get("shard_sweep")
    if not isinstance(sweep, dict):
        return True
    failures = []
    one = sweep.get("shards_1", {}).get("full_handshakes_per_s", 0)
    four = sweep.get("shards_4", {}).get("full_handshakes_per_s", 0)
    if one > 0 and four > 0:
        scaling = four / one
        if scaling < 3.0:
            failures.append(
                f"1->4 shard handshake scaling {scaling:.2f}x < 3x")
    else:
        failures.append("shards_1/shards_4 rates missing or non-positive")
    if sweep.get("digests_match") is not True:
        failures.append("fleet digests diverged across shard counts")
    if sweep.get("soak_conserved") is False:
        failures.append("soak per-shard sums diverged from fleet totals")
    for msg in failures:
        print(f"  [SHARD]   {msg}")
    return not failures


def check_failover_slo(path):
    """Structural gate on the fresh report's E25 failover_slo block.

    Availability SLOs are absolute properties of the supervised tier —
    a crash may lose ZERO honest sessions, every failover reconnect must
    resume by ticket (no public-key op for the survivor), the client
    blackout p99 must stay under the report's own budget, and the
    crash/recovery transcript must be byte-identical to both a rerun and
    the undisturbed run. None of this depends on the baseline host, so
    the gate never compares against the baseline. Reports without a
    failover_slo block (older baselines, other benches) pass vacuously.
    """
    with open(path) as f:
        doc = json.load(f)
    slo = doc.get("failover_slo")
    if not isinstance(slo, dict):
        return True
    failures = []
    if slo.get("sessions_lost", 0) != 0:
        failures.append(
            f"{slo.get('sessions_lost')} honest session(s) lost to the crash")
    if slo.get("sessions_completed") != slo.get("sessions_attempted"):
        failures.append("not every attempted session completed")
    reconnects = slo.get("client_reconnects", 0)
    if reconnects <= 0:
        failures.append("crash produced no failover reconnects "
                        "(the fault did not land mid-flood)")
    if slo.get("failover_resumes") != reconnects:
        failures.append(
            f"{slo.get('failover_resumes')}/{reconnects} failover "
            "reconnects resumed by ticket (the rest paid a full handshake)")
    budget = slo.get("blackout_budget_ms", 0)
    p99 = slo.get("blackout_p99_ms", 0)
    if budget > 0 and p99 > budget:
        failures.append(
            f"blackout p99 {p99:.1f} ms over the {budget:.0f} ms budget")
    if slo.get("digest_match_rerun") is not True:
        failures.append("crash/recovery transcript diverged across reruns")
    if slo.get("digest_match_undisturbed") is not True:
        failures.append(
            "crashed run's fleet digest differs from the undisturbed run")
    if slo.get("missed_heartbeats", 0) != 0:
        failures.append(
            f"{slo.get('missed_heartbeats')} live-shard heartbeat(s) missed")
    for msg in failures:
        print(f"  [FAILOVER] {msg}")
    return not failures


def check_socket_wallclock(path):
    """Structural gate on the fresh report's E26 socket_wallclock block.

    Wall-clock socket rates are host-dependent by nature, and the bench
    deliberately names them with _wall suffixes so the throughput walk
    above never compares them against a baseline. What IS absolute is
    correctness: the loopback run (a SocketServerFleet and one
    in-process SocketClientFleet) must have reproduced the sim run's
    session outcomes exactly (handshake mix, byte-exact echoes via the
    client fleet's digest), kept the tier's conservation books balanced,
    and never allocated past the arena pre-reserve on either side's
    record path. Reports without the block, or runs that skipped it
    because the sandbox has no loopback sockets, pass vacuously — the
    skip is already visible in the bench output.
    """
    with open(path) as f:
        doc = json.load(f)
    sw = doc.get("socket_wallclock")
    if not isinstance(sw, dict) or sw.get("skipped") is True:
        return True
    failures = []
    if sw.get("outcome_equal") is not True:
        failures.append("socket-fleet session outcomes diverged from the "
                        "sim run for the same seed")
    if sw.get("digest_match") is not True:
        failures.append("socket fleet digest differs from the sim fleet "
                        "digest")
    if sw.get("conserved") is not True:
        failures.append("conservation books did not balance across the "
                        "socket fleet")
    if sw.get("zero_steady_state_alloc") is not True:
        failures.append("record path allocated past the arena pre-reserve")
    if sw.get("echo_mismatches", 0) != 0:
        failures.append(f"{sw.get('echo_mismatches')} echo mismatch(es) "
                        "over the socket bearer")
    for msg in failures:
        print(f"  [SOCKET]  {msg}")
    return not failures


def _walk_leaves(node, prefix, out):
    if isinstance(node, dict):
        for key, value in node.items():
            _walk_leaves(value, f"{prefix}/{key}" if prefix else key, out)
    else:
        out[prefix] = node


def is_wall_clock(path):
    """Leaves of a scenario report that measure the host, not the code."""
    key = path.rsplit("/", 1)[-1]
    return (path == "crypto_dispatch"
            or (path.startswith("socket_wallclock/") and "wall" in key)
            or (key.startswith("session_cache_")
                and key.endswith("_ns_per_lookup")))


def compare_exact(baseline_path, fresh_path):
    """Names of the non-wall-clock leaves that differ; [] when pinned."""
    base, fresh = {}, {}
    with open(baseline_path) as f:
        _walk_leaves(json.load(f), "", base)
    with open(fresh_path) as f:
        _walk_leaves(json.load(f), "", fresh)
    exempt = is_wall_clock
    if fresh.get("socket_wallclock/skipped") is True and \
            base.get("socket_wallclock/skipped") is not True:
        print("  [SKIP]    socket_wallclock: skipped in the fresh run "
              "(no loopback TCP); its leaves are not pinned")
        exempt = (lambda p: is_wall_clock(p)
                  or p.startswith("socket_wallclock/"))
    diffs = []
    for name in sorted(set(base) | set(fresh)):
        if exempt(name):
            continue
        b, f = base.get(name, "<missing>"), fresh.get(name, "<missing>")
        if b != f:
            diffs.append(name)
            print(f"  [DIFF]    {name}: baseline {b!r} fresh {f!r}")
    pinned = len([n for n in base if not exempt(n)])
    print(f"{pinned - len(diffs)} of {pinned} pinned leaves equal")
    return diffs


def structural_gates(path):
    if not check_shard_sweep(path):
        print(f"shard_sweep structural gate failed in {path}")
        return False
    if not check_failover_slo(path):
        print(f"failover_slo structural gate failed in {path}")
        return False
    if not check_socket_wallclock(path):
        print(f"socket_wallclock structural gate failed in {path}")
        return False
    return True


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("fresh")
    ap.add_argument("--threshold", type=float, default=0.20,
                    help="fractional regression that fails the run")
    ap.add_argument("--exact", action="store_true",
                    help="require every non-wall-clock leaf to be equal")
    args = ap.parse_args()

    if args.exact:
        diffs = compare_exact(args.baseline, args.fresh)
        if not structural_gates(args.fresh):
            return 1
        if diffs:
            print(f"{len(diffs)} pinned leaf/leaves of {args.fresh} differ "
                  f"from {args.baseline}")
            return 1
        print(f"{args.fresh} matches {args.baseline} on every pinned leaf")
        return 0

    base_ctx, base = load_benchmarks(args.baseline)
    fresh_ctx, fresh = load_benchmarks(args.fresh)

    b = base_ctx.get("mapsec_build_type")
    f = fresh_ctx.get("mapsec_build_type")
    if b and f and b != f:
        print(f"note: mapsec_build_type differs: baseline={b!r} fresh={f!r}")
    reasons = host_mismatches(base_ctx, fresh_ctx)
    if reasons:
        for reason in reasons:
            print(f"  [HOST]    {reason}")
        print(f"refusing to compare {args.fresh} against {args.baseline}: "
              "the reports come from different hosts or dispatch backends; "
              "re-record the baseline on this host")
        return 2

    regressions = []
    for name, (metric, base_v) in sorted(base.items()):
        if name not in fresh:
            print(f"  [gone]    {name} (in baseline only)")
            continue
        fresh_metric, fresh_v = fresh[name]
        if fresh_metric != metric or base_v <= 0:
            continue
        ratio = fresh_v / base_v
        if ratio < 1.0 - args.threshold:
            regressions.append((name, metric, ratio))
            print(f"  [REGRESS] {name}: {metric} at {ratio:.2f}x baseline")
        elif ratio > 1.0 + args.threshold:
            print(f"  [faster]  {name}: {metric} at {ratio:.2f}x baseline")
        else:
            print(f"  [ok]      {name}: {ratio:.2f}x")
    for name in sorted(set(fresh) - set(base)):
        print(f"  [new]     {name} (no baseline)")

    if not structural_gates(args.fresh):
        return 1
    if regressions:
        print(f"{len(regressions)} benchmark(s) regressed more than "
              f"{args.threshold:.0%} vs {args.baseline}")
        return 1
    print(f"no regressions beyond {args.threshold:.0%} vs {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
