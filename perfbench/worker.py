"""One benchmark subprocess: measures a workload, or times set-up.

``run.py`` starts this script in a fresh interpreter with
``CYCLO2_THREADS=1`` and ``src`` on ``PYTHONPATH``; it prints one JSON line.

* ``measure`` runs passes over the workload's requests back to back
  (a closed loop with one client) until ``--seconds`` is used up, checks
  every report against the oracle and, with ``--trace 1``, records the
  per-layer split of each pass.
* ``setup`` times ``import cyclo2`` plus ``load_presentation``
  (parsing and Buchberger completion) of each distinct input, once.

Both rescale their timings to reference speed with the probes of
``reference.py``; probe time is taken out of every timed call.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import oracle  # noqa: E402
from reference import Speedometer, probe, rescale  # noqa: E402
from workloads import WORKLOADS, input_paths  # noqa: E402

# a request is rescaled by the probes taken while it ran, or by the last
# MIN_PROBES probes if it ran for fewer; set-up takes MIN_PROBES of its own
MIN_PROBES = 5


def setup_once(paths: dict[str, str]) -> dict:
    t0 = time.perf_counter()
    from cyclo2 import cli
    for path in paths.values():
        cli.load_presentation(path)
    raw = time.perf_counter() - t0
    return {"setup_s": rescale(raw, [probe() for _ in range(MIN_PROBES)]),
            "raw_setup_s": raw}


class Measurement:
    """Timings, outcomes and layer splits of the passes of one run."""

    def __init__(self, workload: str, paths: dict[str, str], seed: int,
                 tracer):
        self.workload = workload
        self.paths = paths
        self.seed = seed
        self.tracer = tracer
        self.expected = oracle.load()
        self.speedometer = Speedometer(
            None if tracer is None else tracer.absorb_probe)
        self.speedometer.probes.extend(probe() for _ in range(MIN_PROBES))
        self.walls: list[float] = []  # rescaled to reference speed
        self.raw_walls: list[float] = []
        self.layers: list[dict] = []
        self.failures: dict[str, int] = {}
        self.attempted = self.failed = self.wrong = 0
        self.bidegrees = 0  # decided per pass

    def request(self, req) -> tuple[float, float]:
        """Run and check one request; returns (raw, rescaled) seconds."""
        from cyclo2 import cli

        cfg = req.config(self.paths[req.input], self.seed)
        if self.tracer is not None:
            self.tracer.begin_request()
        probes = self.speedometer.probes
        paused, first_probe = self.speedometer.paused, len(probes)
        t0 = time.perf_counter()
        try:
            _, report = cli.run(cfg)
            error = None
        except Exception as exc:  # a failed request is data, not a crash
            report, error = None, oracle.error_text(exc)
        raw = time.perf_counter() - t0 - (self.speedometer.paused - paused)
        during = len(probes) - first_probe
        rescaled = rescale(raw, probes[-max(during, MIN_PROBES):])

        self.attempted += 1
        want = self.expected.get(req.key)
        if want is None:
            wrong = ["no recorded outcome"]
        elif error is not None:
            wrong = oracle.check_error(error, want)
        else:
            wrong = oracle.check(req, report, want)
        if wrong:
            self.wrong += 1
        elif report is not None:
            self.bidegrees += len(report["entries"])
        problem = "; ".join(wrong) or error
        if problem:
            self.failed += 1
            line = (f"{self.workload} {req.input} {req.command} "
                    f"{req.theory} D<={req.max_internal} "
                    f"N<={req.max_homological} S={req.columns}: {problem}")
            self.failures[line] = self.failures.get(line, 0) + 1
        return raw, rescaled

    def one_pass(self):
        if self.tracer is not None:
            self.tracer.reset_counts()
            first_span = len(self.tracer.spans)
        self.bidegrees = 0
        raw_wall = wall = 0.0
        for req in WORKLOADS[self.workload]:
            raw, rescaled = self.request(req)
            raw_wall += raw
            wall += rescaled
        self.raw_walls.append(raw_wall)
        self.walls.append(wall)
        if self.tracer is not None:
            self.layers.append(self.tracer.layer_metrics(first_span))

    def run(self, seconds: float) -> dict:
        """Passes until another one would overrun ``seconds`` by more than
        half a pass; always at least one."""
        start = time.perf_counter()
        self.speedometer.start()
        try:
            while True:
                self.one_pass()
                elapsed = time.perf_counter() - start
                if elapsed + statistics.median(self.raw_walls) / 2 >= seconds:
                    break
        finally:
            self.speedometer.stop()
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {"walls": self.walls, "raw_walls": self.raw_walls,
                "probes": self.speedometer.probes,
                "attempted": self.attempted, "failed": self.failed,
                "wrong": self.wrong, "failures": self.failures,
                "bidegrees_per_pass": self.bidegrees,
                "peak_rss_mb": peak_kib / 1024, "layers": self.layers}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    modes = parser.add_subparsers(dest="mode", required=True)
    measure = modes.add_parser("measure", help="time passes over a workload")
    setup = modes.add_parser("setup", help="time import plus loading")
    for mode in (measure, setup):
        mode.add_argument("--workload", choices=sorted(WORKLOADS),
                          required=True)
        mode.add_argument("--inputs", required=True,
                          help="directory holding the presentation files")
    measure.add_argument("--seed", type=int, required=True)
    measure.add_argument("--seconds", type=float, required=True)
    measure.add_argument("--trace", type=int, choices=(0, 1), default=0)
    measure.add_argument("--spans", help="file for the traced spans")
    args = parser.parse_args()
    paths = input_paths(args.workload, args.inputs)
    if args.mode == "setup":
        result = setup_once(paths)
    else:
        tracer = None
        if args.trace:
            import cyclo2  # noqa: F401  (load every module before patching)
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        result = Measurement(args.workload, paths, args.seed,
                             tracer).run(args.seconds)
        if tracer is not None and args.spans:
            tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
