"""Correctness oracle for benchmark reports.

Every report is checked twice:

* against ``oracle.json``: the sha256 of its canonical JSON (sorted keys,
  the ``seed`` field left out) as recorded on the code the benchmark was
  defined on.  The seed only picks the product samples of
  ``verify-approx``; the recorder checks that the report does not depend
  on it, so one digest serves every seed.
* against mathematics that holds independently of that recording: HKR
  dimensions of HH for polynomial algebras, and for smooth inputs
  ``all_iso``, zero square residuals and zero product failures.

A request whose recorded outcome is an exception has no digest.  If it
later returns a report, that report must still cover its window and pass
the checks above; if it raises, the exception must read as recorded.  A
request recorded with a digest must not raise.

Run ``python3 perfbench/oracle.py --record`` from the repository root to
rewrite ``oracle.json`` from the current code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ORACLE_FILE = os.path.join(HERE, "oracle.json")
RECORD_SEEDS = (0, 1, 7)
VERDICTS = ("iso", "not_iso", "inconclusive")

sys.path.insert(0, HERE)
from workloads import POLYNOMIAL_GENERATORS, SMOOTH, WORKLOADS  # noqa: E402


def canonical(report: dict) -> str:
    body = {k: v for k, v in report.items() if k != "seed"}
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def digest(report: dict) -> str:
    return hashlib.sha256(canonical(report).encode()).hexdigest()


def hkr_dim(k: int, n: int, D: int) -> int:
    """dim HH_n of F2[x_1..x_k] (generators of degree 1) in internal degree D:
    n-forms times polynomials of degree D - n."""
    if n < 0 or n > k or D < n:
        return 0
    return math.comb(k, n) * math.comb(D - n + k - 1, k - 1)


def window_size(report: dict) -> int:
    bars = 2 * report["max_homological"] + 1
    return bars * (report["max_internal"] + 1) if report["graded"] else bars


def math_problems(req, report: dict) -> list[str]:
    """Violations of facts that hold whatever the recorded digest says."""
    problems = []
    entries = report.get("entries", [])
    if len(entries) != window_size(report):
        problems.append(f"{len(entries)} entries for a window of "
                        f"{window_size(report)} bidegrees")
    if req.command == "compute" and req.theory == "hh" \
            and req.input in POLYNOMIAL_GENERATORS:
        k = POLYNOMIAL_GENERATORS[req.input]
        for e in entries:
            want = hkr_dim(k, e["n"], e["internal"])
            if e["dim"] != want:
                problems.append(f"HH_{e['n']} in degree {e['internal']} has "
                                f"dim {e['dim']}, HKR gives {want}")
    if req.command == "verify-approx":
        bad = [e for e in entries if e.get("verdict") not in VERDICTS]
        if bad:
            problems.append(f"unknown verdicts {bad[:3]}")
        if req.input in SMOOTH:
            if report.get("all_iso") is not True:
                problems.append("smooth input without all_iso")
            if report.get("square_residual_total") != 0:
                problems.append("nonzero square residual on a smooth input")
            if report.get("product_failures") != 0:
                problems.append("product failures on a smooth input")
    return problems


def load() -> dict:
    with open(ORACLE_FILE) as fh:
        return json.load(fh)["requests"]


def check(req, report: dict, expected: dict) -> list[str]:
    """Problems with one report; empty when it is correct."""
    problems = math_problems(req, report)
    want = expected.get("sha256")
    if want is not None and digest(report) != want:
        problems.append("report differs from the recorded digest")
    return problems


def error_text(exc: Exception) -> str:
    """How an exception is recorded and compared."""
    return f"{type(exc).__name__}: {exc}"


def check_error(error: str, expected: dict) -> list[str]:
    """Problems with a request that raised ``error`` (``"Class: message"``);
    empty only when the recorded outcome is that same exception."""
    want = expected.get("error")
    if want is None:
        return [f"raised {error} where a report was recorded"]
    if error != want:
        return [f"raised {error} where {want} was recorded"]
    return []


def _record() -> int:
    root = os.path.dirname(HERE)
    sys.path.insert(0, os.path.join(root, "src"))
    import tempfile

    from cyclo2 import cli
    from workloads import write_presentations

    requests = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        paths = write_presentations(tmp)
        for reqs in WORKLOADS.values():
            for req in reqs:
                outcomes = set()
                for seed in (RECORD_SEEDS if req.uses_seed() else (0,)):
                    cfg = req.config(paths[req.input], seed)
                    try:
                        _, report = cli.run(cfg)
                    except Exception as exc:  # recorded as the expected outcome
                        outcomes.add(("error", error_text(exc)))
                        continue
                    problems = math_problems(req, report)
                    if problems:
                        print(f"{req.key}: {problems}", file=sys.stderr)
                        return 1
                    outcomes.add(("sha256", digest(report)))
                if len(outcomes) != 1:
                    print(f"{req.key}: outcome depends on the seed: "
                          f"{sorted(outcomes)}", file=sys.stderr)
                    return 1
                kind, value = outcomes.pop()
                requests[req.key] = {kind: value}
                print(f"{req.key}: {kind} {value}", file=sys.stderr)
    with open(ORACLE_FILE, "w") as fh:
        json.dump({"seeds_checked": list(RECORD_SEEDS), "requests": requests},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--record", action="store_true", required=True,
                        help="rewrite oracle.json from the current code")
    parser.parse_args()
    sys.exit(_record())
