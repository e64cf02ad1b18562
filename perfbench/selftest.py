#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark.

Usage, from the repository root:

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json on tiny inputs, with tracing off and
on, and checks that each run's result line is well formed, that its
metrics are exactly the declared end-to-end (trace off) or per-layer
(trace on) metrics with their units, and that every declared metric is
also printed exactly once as a report line with the same unit. Exits
non-zero on the first failure.
"""
import json
import math
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(message):
    sys.stderr.write("selftest: FAIL: %s\n" % message)
    sys.exit(1)


def check_declaration(bench):
    expected = {"command", "paths", "run_seconds", "workloads", "end_to_end",
                "per_layer"}
    if set(bench) != expected:
        fail("BENCHMARK.json keys %s" % sorted(bench))
    names = set()
    for group in ("workloads", "end_to_end", "per_layer"):
        for entry in bench[group]:
            name = entry["name"]
            if not NAME.match(name) or name in names:
                fail("bad or repeated name %r" % name)
            names.add(name)
            if group != "workloads" and not UNIT.match(entry["unit"]):
                fail("bad unit %r for %s" % (entry["unit"], name))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    if "setup_s" not in bounds or max(bounds.values()) > 0.25:
        fail("end-to-end bounds %s" % bounds)
    if bounds["setup_s"] != max(bounds.values()):
        fail("setup_s must carry the largest bound")


def check_run(bench, workload, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--smoke"]
    run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    where = "%s --trace %d" % (workload, trace)
    if run.returncode != 0:
        fail("%s exited %d:\n%s%s" % (where, run.returncode, run.stdout[-3000:],
                                      run.stderr[-3000:]))
    lines = run.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s result keys %s" % (where, sorted(result)))
    if result["correct"] is not True or result["failed"] != 0:
        fail("%s reported incorrect output: %s" % (where, lines[-1]))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("%s attempted %r" % (where, result["attempted"]))

    declared = bench["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(result["metrics"]) != set(units):
        fail("%s metrics differ from BENCHMARK.json: %s" % (
            where, sorted(set(result["metrics"]) ^ set(units))))
    for name, metric in result["metrics"].items():
        value = metric["value"]
        if metric["unit"] != units[name]:
            fail("%s %s unit %r" % (where, name, metric["unit"]))
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail("%s %s value %r" % (where, name, value))

    printed = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            printed.setdefault(parts[1], []).append(parts[2:])
    for name, unit in units.items():
        rows = printed.get(name, [])
        if len(rows) != 1:
            fail("%s prints metric %s %d times" % (where, name, len(rows)))
        value, printed_unit = rows[0]
        float(value)
        if printed_unit != unit:
            fail("%s prints %s in %r, declared %r" % (where, name,
                                                      printed_unit, unit))
    print("ok %-16s trace=%d  %d metrics, %d ops" % (
        workload, trace, len(units), result["attempted"]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    check_declaration(bench)
    for workload in bench["workloads"]:
        for trace in (0, 1):
            check_run(bench, workload["name"], trace)
    print("selftest: all workloads print every declared metric once")
    return 0


if __name__ == "__main__":
    sys.exit(main())
