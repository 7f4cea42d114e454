"""The cyclo2 benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from ``src``.
The workload runs in a fresh single-threaded subprocess
(``CYCLO2_THREADS=1``, ``PYTHONHASHSEED`` taken from the seed) that sends
its requests back to back, one at a time.  Every report is checked against
the oracle (``oracle.py``).  A human-readable summary goes to stderr; the
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

* ``--trace 0`` measures the end-to-end metrics: ``wall_s`` (median seconds
  per pass over the request list), ``bidegrees_per_s``, ``peak_rss_mb`` and
  ``setup_s`` (median of several fresh ``import cyclo2`` plus
  ``load_presentation`` timings).
* ``--trace 1`` splits the time into layers: one untraced and one traced
  subprocess share the time; the traced one wraps every layer's public
  functions (``tracer.py``) and reports each layer's share of the self
  time, calls and work counts, plus ``traced_wall_s`` (so a layer's self
  seconds are its share times ``traced_wall_s``) and ``trace_overhead``.
  Its spans are written to ``perfbench/.out/``.

``fail_ratio`` (failed / attempted requests) is carried by the
``attempted`` and ``failed`` fields.  A request fails if it raises or if
its outcome fails the oracle.  ``correct`` is false if any outcome fails
the oracle: a report that fails its checks, or an exception where a report
or another exception was recorded.  So only an exception exactly as
recorded counts as failed while ``correct`` stays true.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, ".out")
sys.path.insert(0, HERE)
from workloads import WORKLOADS, write_inputs  # noqa: E402

SETUP_REPEATS = 7
TIME_LIMIT_S = 170.0  # the whole run, subprocesses included


class BenchError(Exception):
    pass


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_worker(args: list[str], env: dict, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before a subprocess could start")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"subprocess exceeded the time limit: {args}")
    if proc.returncode != 0:
        raise BenchError(f"subprocess exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(
        description="cyclo2 benchmark (see the module docstring)")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "cyclo2", "__init__.py")):
        print("perfbench: src/cyclo2 not found next to perfbench/",
              file=sys.stderr)
        return 2
    units = declared_units(args.trace)
    inputs = os.path.join(OUT, "inputs", args.workload)
    write_inputs(args.workload, inputs)
    env = dict(os.environ, CYCLO2_THREADS="1",
               PYTHONPATH=os.path.join(ROOT, "src"),
               PYTHONHASHSEED=str(args.seed % 2**32))
    where = ["--workload", args.workload, "--inputs", inputs]
    measure = ["measure"] + where + ["--seed", str(args.seed)]

    try:
        if args.trace == 0:
            runs = [run_worker(measure + ["--seconds", str(args.seconds)],
                               env, deadline)]
            setups = [run_worker(["setup"] + where, env, deadline)
                      for _ in range(SETUP_REPEATS)]
            m = runs[0]
            wall = statistics.median(m["walls"])
            metrics = {"wall_s": wall,
                       "bidegrees_per_s": m["bidegrees_per_pass"] / wall,
                       "peak_rss_mb": m["peak_rss_mb"],
                       "setup_s": statistics.median(s["setup_s"]
                                                    for s in setups)}
            raw_setup = statistics.median(s["raw_setup_s"] for s in setups)
        else:
            half = str(args.seconds / 2)
            plain = run_worker(measure + ["--seconds", half], env, deadline)
            spans = os.path.join(
                OUT, f"spans-{args.workload}-seed{args.seed}.json")
            traced = run_worker(measure + ["--seconds", half, "--trace", "1",
                                           "--spans", spans], env, deadline)
            runs = [plain, traced]
            metrics = {name: statistics.median(p[name]
                                               for p in traced["layers"])
                       for name in traced["layers"][0]}
            metrics["traced_wall_s"] = statistics.median(traced["walls"])
            metrics["trace_overhead"] = (
                statistics.median(traced["walls"])
                / statistics.median(plain["walls"]) - 1)
        if set(metrics) != set(units):
            raise BenchError("measured metrics differ from BENCHMARK.json: "
                             f"{sorted(set(metrics) ^ set(units))}")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = not any(r["wrong"] for r in runs)
    print(f"workload {args.workload}, seed {args.seed}, "
          f"passes {[len(r['walls']) for r in runs]}", file=sys.stderr)
    for r in runs:
        print(f"  raw pass seconds {[round(w, 3) for w in r['raw_walls']]}, "
              f"{len(r['probes'])} probes, median "
              f"{statistics.median(r['probes']):.5f} s", file=sys.stderr)
    if args.trace == 0:
        print(f"  raw setup seconds {raw_setup:.6g}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}", file=sys.stderr)
    print(f"  fail_ratio = {failed}/{attempted} = {failed / attempted:.4f}",
          file=sys.stderr)
    failures: dict[str, int] = {}
    for r in runs:
        for line, count in r["failures"].items():
            failures[line] = failures.get(line, 0) + count
    for line, count in failures.items():
        print(f"  FAILED x{count}: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
