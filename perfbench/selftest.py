#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

1. Two runs with one seed give bit-identical simulated metrics and
   per-layer counts, on every workload.
2. A second seed also passes the oracle.
3. A per-op delay larger than the bound on op_ms_p50 and sim_mips, added
   by this harness through --inject-delay-us, is reported as a
   regression; a zero delay is not.
"""

import statistics
import sys

from compare import load_bench, regressions, run_once

WORKLOADS = ["pipeline_cold", "calls_hot", "loops_hot", "cluster_storm"]
SIMULATED = ["sim_cpi", "jump_speed_frac", "sim_makespan_mcycles"]
SECONDS = 1


def host_timed(name):
    """Per-layer metrics that are host timings rather than counts."""
    return (name.endswith(("_us", "_ns")) or ".ns_per_instr." in name
            or name in ("sched.guest_frac", "trace.overhead_frac"))


failures = []


def check(ok, what):
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def determinism_and_second_seed():
    for w in WORKLOADS:
        a = run_once(w, 1, SECONDS)
        b = run_once(w, 1, SECONDS)
        c = run_once(w, 2, SECONDS)
        same = all(a["metrics"][m]["value"] == b["metrics"][m]["value"] for m in SIMULATED)
        check(a["correct"] and b["correct"], f"{w}: seed 1 passes the oracle")
        check(same, f"{w}: simulated metrics repeat exactly for one seed")
        check(c["correct"] and c["failed"] == 0, f"{w}: seed 2 passes the oracle")
        ta = run_once(w, 1, SECONDS, trace=1)
        tb = run_once(w, 1, SECONDS, trace=1)
        counts = [m for m in ta["metrics"] if not host_timed(m)]
        diff = [m for m in counts if ta["metrics"][m]["value"] != tb["metrics"][m]["value"]]
        check(ta["correct"] and not diff, f"{w}: per-layer counts repeat exactly {diff or ''}")


def injected_delay():
    bench = load_bench()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    b = max(bounds["op_ms_p50"], bounds["sim_mips"])
    first = run_once("calls_hot", 1, 2)
    # Large enough to push both metrics past their bound: sim_mips falls
    # by delay / (run + delay), and every run is shorter than p90.
    delay_us = 2 * b / (1 - b) * first["metrics"]["op_ms_p90"]["value"] * 1e3
    base, slow, same = [], [], []
    for _ in range(3):
        base.append(run_once("calls_hot", 1, 2))
        slow.append(run_once("calls_hot", 1, 2, extra=["--inject-delay-us", str(delay_us)]))
        same.append(run_once("calls_hot", 1, 2, extra=["--inject-delay-us", "0"]))
    flagged = {name for name, *_ in regressions(bench, base, slow)}
    check({"op_ms_p50", "sim_mips"} <= flagged,
          f"a {delay_us / 1e3:.1f} ms per-op delay is reported as a regression ({sorted(flagged)})")
    flagged0 = {name for name, *_ in regressions(bench, base, same)}
    check(not flagged0 & {"op_ms_p50", "sim_mips"},
          f"no delay is not reported as a regression ({sorted(flagged0)})")
    print("median op_ms_p50: base %.3f, delayed %.3f, no delay %.3f" % tuple(
        statistics.median(r["metrics"]["op_ms_p50"]["value"] for r in runs)
        for runs in (base, slow, same)))


if __name__ == "__main__":
    determinism_and_second_seed()
    injected_delay()
    print(f"{len(failures)} failed")
    sys.exit(1 if failures else 0)
