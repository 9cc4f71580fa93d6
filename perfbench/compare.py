#!/usr/bin/env python3
"""Summarise or compare perfbench results files (JSON lines, one run each,
as perfbench/run.py appends them).

    python3 perfbench/compare.py RUNS.jsonl
    python3 perfbench/compare.py BASE.jsonl CANDIDATE.jsonl

With one file it prints, per workload and end-to-end metric, the median,
the quartiles and the spread (quartile distance over median) of the timed
runs, and fails when a spread exceeds the metric's bound in BENCHMARK.json
(set-up time excepted): such a metric cannot resolve a change of that size.

With two files it prints both sides and a verdict per metric:

  * FAIL  the candidate median is worse than the baseline median by more
          than the bound;
  * note  unresolved: either side's spread exceeds the bound, and not every
          candidate run beats every baseline run;
  * ok    within the bound (or better).

Runs that were not correct are reported as FAIL on their own.  Both modes
also print the host speed probe each run records (single-thread Philox
draws per second): when it differs between the two files, the host ran at
a different speed and the timings differ for that reason too.  Exit status
is 1 on any FAIL, in the style of scripts/compare_reports.py.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HOST_PROBE = "host_probe"


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def load_runs(path):
    """{workload: {metric: [values]}} over the timed (--trace 0) runs, with
    the host speed probe under "host_probe", plus a list of runs that were
    not correct."""
    values = defaultdict(lambda: defaultdict(list))
    bad = []
    for number, line in enumerate(Path(path).read_text().splitlines(), 1):
        if not line.strip():
            continue
        record = json.loads(line)
        result = record["result"]
        label = f"{path}:{number} {record['workload']} seed={record['seed']}"
        if not result["correct"] or result["failed"]:
            bad.append(f"{label}: {result['failed']}/{result['attempted']} solves "
                       f"failed {record.get('failures', [])}")
        if record["trace"]:
            continue
        for name, entry in result["metrics"].items():
            if entry["value"] is not None:
                values[record["workload"]][name].append(entry["value"])
        probe = record["host"].get("probe_mdraws_per_s")
        if probe:
            values[record["workload"]][HOST_PROBE].append(statistics.mean(probe))
    return values, bad


def summary(values):
    if len(values) == 1:
        return values[0], values[0], values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def fmt(values):
    med, q1, q3, spread = summary(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}] spread {spread:.3f} n={len(values)}"


def report_one(path, spec):
    runs, bad = load_runs(path)
    failures = len(bad)
    for problem in bad:
        print(f"FAIL  {problem}")
    for workload in sorted(runs):
        for name, metric in spec.items():
            series = runs[workload].get(name)
            label = f"{workload}.{name}"
            if not series:
                print(f"note  {label}: no runs")
                continue
            spread = summary(series)[3]
            steady = name == "setup_s" or spread <= metric["bound"]
            failures += not steady
            print(f"{'ok   ' if steady else 'FAIL '} {label}: {fmt(series)} "
                  f"(bound {metric['bound']}) {metric['unit']}")
        if runs[workload].get(HOST_PROBE):
            print(f"note  {workload}.{HOST_PROBE}: "
                  f"{fmt(runs[workload][HOST_PROBE])} Mdraws/s")
    return 1 if failures else 0


def compare(base_path, cand_path, spec):
    base, base_bad = load_runs(base_path)
    cand, cand_bad = load_runs(cand_path)
    failures = len(base_bad) + len(cand_bad)
    for problem in base_bad + cand_bad:
        print(f"FAIL  {problem}")
    for workload in sorted(set(base) | set(cand)):
        for name, metric in spec.items():
            label = f"{workload}.{name}"
            b, c = base[workload].get(name), cand[workload].get(name)
            if not b or not c:
                print(f"note  {label}: missing on the "
                      f"{'baseline' if not b else 'candidate'} side")
                continue
            b_med, _, _, b_spread = summary(b)
            c_med, _, _, c_spread = summary(c)
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse_by = sign * (c_med - b_med) / b_med
            all_better = (max(c) < min(b)) if sign > 0 else (min(c) > max(b))
            line = (f"{label}: base {fmt(b)} | cand {fmt(c)} | "
                    f"{'worse' if worse_by > 0 else 'better'} by "
                    f"{abs(worse_by):.3f} (bound {metric['bound']})")
            if worse_by > metric["bound"]:
                failures += 1
                print(f"FAIL  {line}")
            elif max(b_spread, c_spread) > metric["bound"] and not all_better:
                print(f"note  {line}: unresolved, spread exceeds the bound")
            else:
                print(f"ok    {line}")
        b, c = base[workload].get(HOST_PROBE), cand[workload].get(HOST_PROBE)
        if b and c:
            change = statistics.median(c) / statistics.median(b) - 1
            print(f"note  {workload}.{HOST_PROBE}: base {fmt(b)} | cand {fmt(c)} "
                  f"Mdraws/s ({change:+.1%}); timings move with the host's "
                  "speed as much as with the code")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", metavar="RUNS.jsonl")
    args = parser.parse_args()
    if len(args.files) > 2:
        parser.error("give one results file, or a baseline and a candidate")
    spec = load_spec()
    if len(args.files) == 1:
        return report_one(args.files[0], spec)
    return compare(args.files[0], args.files[1], spec)


if __name__ == "__main__":
    sys.exit(main())
