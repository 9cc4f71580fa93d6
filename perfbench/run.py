#!/usr/bin/env python3
"""Repository benchmark: time-to-seeds, memory and seed quality of the IMM
drivers on two workloads, plus a traced per-layer run.

    python3 perfbench/run.py --workload ic_mt --seed 2019 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

One run builds the harness (perfbench/CMakeLists.txt, into .bench_build/),
solves the workload once with imm_sequential as the reference and once with
imm_distributed, which must agree, then in a fresh process times
imm_multithreaded for --seconds and checks every solve against that
reference.  --trace 1 swaps the timed process for the layer-by-layer one
and writes its spans, RunReports and per-layer table to one file under
.bench_build/perfbench/results/.

The last line of stdout is one JSON object with exactly the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it are a readable
summary.  Every run is also appended to a results file (--results) that
compare.py reads.  Exit status: 0 on a correct run, 1 when any solve failed
or disagreed with the reference, 2 when the benchmark refused to run.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
HARNESS = BUILD / "perfbench_harness"
RESULTS = BUILD / "results"

WORKLOADS = ("ic_mt", "lt_mt")
MIN_CORES = 4
# A whole run must end well inside three minutes.
RUN_DEADLINE_S = 170.0
# Busy cores that are not the benchmark's (hypervisor steal included), and
# change of the host speed probe within one run, that flag it as contended.
# Busy cores inside the machine barely slow the 2-worker workloads, but
# hypervisor steal does: lt_mt's solves took 1.15x as long at 0.2 foreign
# cores, most of it steal.
FOREIGN_CORES = 0.25
PROBE_DRIFT = 0.15

class Refusal(Exception):
    """The benchmark cannot produce a trustworthy number here."""


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


# --- host hygiene -------------------------------------------------------------


def load_spec():
    """{0: end-to-end, 1: per-layer} metric name -> unit, from BENCHMARK.json."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as error:
        raise Refusal(f"cannot read BENCHMARK.json: {error}")
    return {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}, spec


def check_host():
    stray = sorted(k for k in os.environ if k.startswith("RIPPLES_"))
    if stray:
        raise Refusal(
            "RIPPLES_* variables change ImmOptions defaults and so what is "
            f"measured; unset {', '.join(stray)}")
    cores = len(os.sched_getaffinity(0))
    if cores < MIN_CORES:
        raise Refusal(f"needs {MIN_CORES} cores, this host gives {cores}")
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise Refusal(f"no library sources under {ROOT / 'src'}")


def cpu_seconds():
    """(busy, steal) seconds of all CPUs since boot, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    tick = os.sysconf("SC_CLK_TCK")
    # user nice system idle iowait irq softirq steal
    busy = sum(fields) - fields[3] - fields[4]
    return busy / tick, fields[7] / tick


def git_sha():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.SubprocessError):
        return None
    return (out.stdout.strip() or None) if out.returncode == 0 else None


class HostWatch:
    """Host fingerprint, and a flag when other work shared the cores."""

    def __init__(self):
        self.cores = len(os.sched_getaffinity(0))
        self.load_start = os.getloadavg()
        self.cpu_start = cpu_seconds()
        self.wall_start = time.monotonic()

    def finish(self, harness_info):
        wall = time.monotonic() - self.wall_start
        cpu_end = cpu_seconds()
        usage = os.times()
        ours = usage.children_user + usage.children_system + usage.user + usage.system
        foreign = steal = None
        if self.cpu_start and cpu_end and wall > 0:
            foreign = max(0.0, (cpu_end[0] - self.cpu_start[0] - ours) / wall)
            steal = (cpu_end[1] - self.cpu_start[1]) / (wall * self.cores)
        load_end = os.getloadavg()
        # The benchmark keeps two cores busy (four in the traced replays),
        # so only load beyond the host's core count, or busy time that is
        # not ours (hypervisor steal included), shows other work competing
        # for the cores.  Work outside the machine shows only as a change of
        # the harness's speed probe between the start and the end of the
        # measurement.
        probe = harness_info.get("host_probe_mdraws_per_s")
        drift = abs(probe[1] / probe[0] - 1) if probe else None
        contended = (self.load_start[0] > self.cores
                     or (foreign is not None and foreign > FOREIGN_CORES)
                     or (drift is not None and drift > PROBE_DRIFT))
        return {
            "nproc": self.cores,
            "loadavg_start": list(self.load_start),
            "loadavg_end": list(load_end),
            "foreign_busy_cores": foreign,
            "steal_frac": steal,
            "probe_mdraws_per_s": probe,
            "contended": contended,
            "compiler": harness_info.get("compiler"),
            "build_type": harness_info.get("build_type"),
            "git_sha": git_sha(),
            "omp_env": {k: v for k, v in sorted(os.environ.items())
                        if k.startswith("OMP_")},
        }


# --- build --------------------------------------------------------------------


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    build_log = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "perfbench_harness", "-j", str(MIN_CORES)])
    with open(build_log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode:
                tail = build_log.read_text().splitlines()[-20:]
                raise Refusal("build failed:\n" + "\n".join(tail))
    cache = (BUILD / "CMakeCache.txt").read_text()
    if "CMAKE_BUILD_TYPE:STRING=Release" not in cache:
        raise Refusal(f"{BUILD} is not a Release build; delete it to rebuild")


# --- one run ------------------------------------------------------------------


def harness(mode, args, deadline, extra=()):
    cmd = [str(HARNESS), mode, "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), *extra]
    if args.toy:
        cmd.append("--toy")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise Refusal(f"no time left for the {mode} step")
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=remaining)
    except subprocess.TimeoutExpired:
        raise Refusal(f"{mode} step overran the run's time limit")
    if out.returncode != 0:
        raise Refusal(f"{mode} step exited with status {out.returncode}")
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise Refusal(f"{mode} step printed nothing")
    return json.loads(lines[-1])


def same_answer(a, b):
    # An answer is null, or a failure message, when its solve failed.
    return (isinstance(a, dict) and isinstance(b, dict)
            and a["seeds"] == b["seeds"]
            and a["theta"] == b["theta"] and a["coverage"] == b["coverage"])


def check_answers(reference, run):
    """Reference mismatches, folded into the run's attempted/failed counts."""
    attempted, failed = run["attempted"], run["failed"]
    problems = list(run["failures"])
    if not same_answer(run["answer"], reference["sequential"]):
        failed = attempted
        problems.append("driver answer differs from imm_sequential")
    attempted += 1
    if not same_answer(reference["distributed"], reference["sequential"]):
        failed += 1
        problems.append("imm_distributed failed or differs from imm_sequential")
    return attempted, failed, problems


def show(value, digits):
    return "n/a" if value is None else f"{value:.{digits}f}"


def run_once(args, units):
    watch = HostWatch()
    deadline = time.monotonic() + RUN_DEADLINE_S
    build()
    reference = harness("reference", args, deadline)
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}"
    if args.trace:
        program_trace = stem.with_name(stem.name + ".program-trace.json")
        report_file = stem.with_name(stem.name + ".run-report.json")
        run = harness("layers", args, deadline,
                      ["--trace-file", str(program_trace),
                       "--report-file", str(report_file)])
        values = run["metrics"]
    else:
        run = harness("measure", args, deadline)
        solves = run["solve_s"]
        values = {
            "solve_s": statistics.median(solves) if solves else None,
            "setup_s": run["setup_s"],
            "peak_rss_mb": (statistics.median(run["peak_rss_mb"])
                            if run["peak_rss_mb"] else None),
            "spread": run.get("spread"),
        }
    metrics = {name: {"value": values.get(name), "unit": unit}
               for name, unit in units[args.trace].items()}
    attempted, failed, problems = check_answers(reference, run)
    host = watch.finish(run)
    # A traced run may leave a layer unmeasured (null); a timed run may not.
    measured = all(m["value"] is not None for m in metrics.values())
    correct = failed == 0 and (measured or bool(args.trace))

    if args.trace:
        layers_file = stem.with_name(stem.name + ".layers.json")
        write_layers_file(layers_file, program_trace, report_file, args, host,
                          run, metrics)
        summary = f"per-layer table and spans in {layers_file}"
    else:
        summary = (
            f"solve_s={show(values['solve_s'], 4)} s (median of "
            f"{len(run['solve_s'])} solves)  setup_s={run['setup_s']:.5f} s "
            f"(median of {run['setup_reps']} reps, {run['setup_builds']} "
            f"builds)  peak_rss_mb="
            f"{show(values['peak_rss_mb'], 1)} MB (median per-solve "
            f"peak)  spread={show(values['spread'], 2)} vertices")
    print(f"{args.workload} seed={args.seed}: {summary}  failed_frac="
          f"{failed}/{attempted}")
    for problem in problems:
        print(f"FAIL  {problem}")
    if host["contended"]:
        print(f"note  host looked contended (loadavg {host['loadavg_start'][0]:.2f}"
              f", foreign busy cores {host['foreign_busy_cores']}, speed probe "
              f"{host['probe_mdraws_per_s']} Mdraws/s); treat these numbers "
              "with care")

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "toy": args.toy, "host": host,
              "failures": problems, "result": result}
    if not args.trace:
        record["solve_s"] = run["solve_s"]
        record["peak_rss_mb"] = run["peak_rss_mb"]
        record["setup_reps"] = run["setup_reps"]
        record["setup_builds"] = run["setup_builds"]
    results_file = Path(args.results) if args.results else RESULTS / "runs.jsonl"
    results_file.parent.mkdir(parents=True, exist_ok=True)
    with open(results_file, "a") as f:
        f.write(json.dumps(record) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def write_layers_file(path, program_trace, report_file, args, host, run,
                      metrics):
    """One file for the traced run: the library's Chrome trace events plus
    the benchmark's own spans as extra events, with the per-layer table,
    RunReport and host fingerprint under "perfbench"."""
    trace = json.loads(program_trace.read_text())
    for span in run["spans"]:
        trace["traceEvents"].append({
            "name": span["name"], "cat": "perfbench", "ph": "X",
            "ts": span["start_us"], "dur": span["dur_us"], "pid": 0,
            "tid": 0, "args": {"parent": span["parent"]}})
    trace["perfbench"] = {
        "workload": args.workload, "seed": args.seed, "toy": args.toy,
        "host": host, "metrics": metrics, "replay_sets": run["replay_sets"],
        "untraced_solve_s": run["untraced_solve_s"],
        "traced_solve_s": run["traced_solve_s"],
        # The first traced solve's RunReport of each driver; a driver whose
        # solve failed is absent, and the run is then not correct.
        "run_reports": json.loads(report_file.read_text()),
    }
    path.write_text(json.dumps(trace))
    program_trace.unlink()
    report_file.unlink(missing_ok=True)


# --- smoke --------------------------------------------------------------------


def smoke(units, spec):
    """Runs every workload at toy scale in both modes and checks that each
    metric BENCHMARK.json names is emitted, with its unit and a value."""
    names = {w["name"] for w in spec["workloads"]}
    errors = []
    if names != set(WORKLOADS):
        errors.append(f"BENCHMARK.json workloads {sorted(names)} != {list(WORKLOADS)}")
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
                   workload, "--seed", "2019", "--seconds", "1", "--trace",
                   str(trace), "--toy", "--results", str(BUILD / "smoke.jsonl")]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            label = f"{workload} --trace {trace}"
            before = len(errors)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                errors.append(f"{label}: exit {out.returncode}")
                print(f"FAIL  {label}", flush=True)
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                errors.append(f"{label}: result keys {sorted(result)}")
            if result.get("correct") is not True:
                errors.append(f"{label}: not correct")
            got = result.get("metrics", {})
            if set(got) != set(units[trace]):
                errors.append(f"{label}: metrics {sorted(set(got) ^ set(units[trace]))}"
                              " differ from BENCHMARK.json")
            for name, unit in units[trace].items():
                entry = got.get(name)
                if entry is None:
                    continue
                if entry.get("unit") != unit:
                    errors.append(f"{label}: {name} unit {entry.get('unit')} != {unit}")
                if not isinstance(entry.get("value"), (int, float)):
                    errors.append(f"{label}: {name} was not measured")
            status = "ok   " if len(errors) == before else "FAIL "
            print(f"{status} {label}", flush=True)
    for error in errors:
        print(f"FAIL  {error}")
    print("smoke: " + ("FAIL" if errors else "ok"))
    return 1 if errors else 0


def main():
    # Turn SIGTERM into SystemExit so subprocess.run kills and reaps the
    # running harness instead of leaving it behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="a tenth of the graph and a sixteenth of the "
                             "replays, for checks of the harness itself")
    parser.add_argument("--results", help="results file to append this run "
                        "to (default .bench_build/perfbench/results/runs.jsonl)")
    parser.add_argument("--smoke", action="store_true",
                        help="check every BENCHMARK.json metric at toy scale")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (args.seconds > 0):
        parser.error("--seconds must be positive")
    try:
        check_host()
        units, spec = load_spec()
        if args.smoke:
            return smoke(units, spec)
        if not args.workload:
            parser.error("--workload is required")
        return run_once(args, units)
    except Refusal as refusal:
        log(f"refusing to run: {refusal}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
