"""Command-line surface: presentation files, computations, reports.

Presentation files are plain text with three sections::

    [options]
    graded = true
    name = F2[x]

    [generators]
    x 1        # name degree [augmentation]

    [relations]
    x^2 + x + 1

Monomials use ``*`` for products and ``^`` for powers; ``+`` separates the
monomials of a relation; ``1`` is the empty monomial.  Lines starting with
``#`` are comments.

The entry point is ``cyclo2 --input FILE --command CMD ...``; JSON reports
go to stdout (schema 1), diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass

from .approx import verify_approximation, verify_squares
from .cyclic import e1_page, e2_page, homology
from .derham import de_rham_cohomology, omega_basis
from .ell import ell_degree_basis, gr_ell, omega_u_gens
from .gralg import AlgebraPresentation, PresentationError

SCHEMA_VERSION = 1

THEORIES = ("hh", "hc", "hcminus", "hcper", "ell", "ellplus", "ellper",
            "derham")
COMMANDS = ("compute", "verify-approx", "spectral", "tables")


class CLIError(Exception):
    pass


@dataclass
class RunConfig:
    input_path: str
    command: str
    theory: str = "hcminus"
    max_internal: int = 4
    max_homological: int = 4
    columns: int = 3
    format: str = "table"
    seed: int = 0

    def validate(self):
        if self.command not in COMMANDS:
            raise CLIError(f"unknown command {self.command!r}")
        if self.theory not in THEORIES:
            raise CLIError(f"unknown theory {self.theory!r}")
        if min(self.max_internal, self.max_homological) < 0:
            raise CLIError("window parameters must be non-negative")
        if self.columns < 1:
            raise CLIError("truncation depth --columns must be >= 1")
        if self.format not in ("table", "json"):
            raise CLIError(f"unknown format {self.format!r}")


def _parse_monomial(term: str, gens: dict[str, int], lineno: int) -> tuple:
    expo = [0] * len(gens)
    for factor in term.split("*"):
        factor = factor.strip()
        if factor == "1":
            continue
        if "^" in factor:
            name, _, power = factor.partition("^")
            name = name.strip()
            try:
                k = int(power)
            except ValueError:
                raise CLIError(f"line {lineno}: bad exponent {power!r}")
            if k < 0:
                raise CLIError(f"line {lineno}: negative exponent")
        else:
            name, k = factor, 1
        if name not in gens:
            raise CLIError(f"line {lineno}: undeclared generator {name!r}")
        expo[gens[name]] += k
    return tuple(expo)


def load_presentation(path: str) -> AlgebraPresentation:
    """Parse and validate an algebra presentation file."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise CLIError(f"cannot read {path}: {exc}") from None
    section = None
    graded = True
    name = None
    gen_names: list[str] = []
    gen_degs: list[int] = []
    gen_augs: list[int] = []
    rel_texts: list[tuple[int, str]] = []
    explicit_aug = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in ("options", "generators", "relations"):
                raise CLIError(f"line {lineno}: unknown section [{section}]")
            continue
        if section == "options":
            key, _, value = line.partition("=")
            key, value = key.strip().lower(), value.strip()
            if key == "graded":
                if value.lower() not in ("true", "false"):
                    raise CLIError(f"line {lineno}: graded must be true/false")
                graded = value.lower() == "true"
            elif key == "name":
                name = value
            else:
                raise CLIError(f"line {lineno}: unknown option {key!r}")
        elif section == "generators":
            parts = line.split()
            if len(parts) not in (2, 3):
                raise CLIError(f"line {lineno}: expected 'name degree "
                               "[augmentation]'")
            gen_names.append(parts[0])
            try:
                gen_degs.append(int(parts[1]))
            except ValueError:
                raise CLIError(f"line {lineno}: bad degree {parts[1]!r}")
            if len(parts) == 3:
                if parts[2] not in ("0", "1"):
                    raise CLIError(f"line {lineno}: augmentation must be 0/1")
                gen_augs.append(int(parts[2]))
                explicit_aug = True
            else:
                gen_augs.append(0)
        elif section == "relations":
            rel_texts.append((lineno, line))
        else:
            raise CLIError(f"line {lineno}: content outside any section")
    gens = {g: i for i, g in enumerate(gen_names)}
    if len(gens) != len(gen_names):
        raise CLIError("duplicate generator names")
    relations = []
    for lineno, text in rel_texts:
        terms = [t for t in (s.strip() for s in text.split("+")) if t]
        poly: frozenset = frozenset()
        for t in terms:
            poly = poly ^ {_parse_monomial(t, gens, lineno)}
        if poly:
            relations.append(poly)
    try:
        return AlgebraPresentation(
            tuple(gen_names), tuple(gen_degs), tuple(relations),
            graded=graded,
            augmentation=tuple(gen_augs) if explicit_aug else None,
            name=name or os.path.splitext(os.path.basename(path))[0])
    except PresentationError as exc:
        raise CLIError(str(exc)) from None


def _bidegrees(A: AlgebraPresentation, cfg: RunConfig) -> list[tuple[int, int]]:
    out = []
    for n in range(-cfg.max_homological, cfg.max_homological + 1):
        if A.graded:
            out.extend((n, D) for D in range(0, cfg.max_internal + 1))
        else:
            out.append((n, 0))
    return out


def cmd_compute(A: AlgebraPresentation, cfg: RunConfig) -> dict:
    theory = cfg.theory
    entries = []
    if theory in ("hh", "hc", "hcminus", "hcper"):
        for n, D in _bidegrees(A, cfg):
            h = homology(A, theory, n, D, cfg.columns)
            entries.append({"n": n, "internal": D, "dim": h.dim,
                            "flag": h.flag})
    elif theory in ("ell", "ellplus", "ellper"):
        flavor = {"ell": "ell", "ellplus": "ell_plus",
                  "ellper": "ell_per"}[theory]
        for n, D in _bidegrees(A, cfg):
            sp = ell_degree_basis(A, flavor, n, D - n)
            entries.append({"n": n, "internal": D, "upper": D - n,
                            "dim": sp.dim, "flag": "stable"})
    elif theory == "derham":
        for nf in range(0, A.ngens + 1):
            for D in (range(0, cfg.max_internal + 1) if A.graded else (0,)):
                sp = omega_basis(A, nf, D)
                h = de_rham_cohomology(A, nf, D)
                entries.append({"form_degree": nf, "internal": D,
                                "dim_forms": sp.dim, "dim_hdr": h.dim,
                                "flag": "stable"})
    entries.sort(key=lambda e: (e.get("n", e.get("form_degree", 0)),
                                e["internal"]))
    return {"entries": entries}


def cmd_verify_approx(A: AlgebraPresentation, cfg: RunConfig) -> dict:
    if cfg.theory not in ("hcminus", "hc", "hcper"):
        raise CLIError("verify-approx needs theory hcminus, hc or hcper")
    report = verify_approximation(
        A, cfg.theory, cfg.max_homological, cfg.max_internal,
        S=cfg.columns, seed=cfg.seed)
    squares = verify_squares(A, min(cfg.max_homological, 3),
                             min(cfg.max_internal, 3), S=cfg.columns)
    out = report.to_dict()
    out.pop("elapsed_sec", None)  # timing is a diagnostic, not report content
    out["squares"] = squares
    out["square_residual_total"] = sum(s["residual"] for s in squares)
    out["all_iso"] = report.all_iso()
    return out


def cmd_spectral(A: AlgebraPresentation, cfg: RunConfig) -> dict:
    bounds = {"hh": (0, 0), "hc": (0, None), "hcminus": (None, 0),
              "hcper": (None, None)}.get(cfg.theory)
    if bounds is None:
        raise CLIError("spectral needs theory hh, hc, hcminus or hcper")
    alpha, beta = bounds
    entries = []
    s_lo = -cfg.max_homological if alpha is None else alpha
    s_hi = cfg.max_homological if beta is None else beta
    for s in range(s_lo, s_hi + 1):
        for t in range(0, cfg.max_homological + 1):
            for D in (range(0, cfg.max_internal + 1) if A.graded else (0,)):
                e1 = e1_page(A, alpha, beta, s, t, D, cfg.columns)
                dim1 = e1.dim if e1 is not None else 0
                dim2, _ = e2_page(A, alpha, beta, s, t, D, cfg.columns)
                if dim1 or dim2:
                    entries.append({"s": s, "t": t, "internal": D,
                                    "e1": dim1, "e2": dim2})
    entries.sort(key=lambda e: (e["s"], e["t"], e["internal"]))
    return {"alpha": alpha, "beta": beta, "entries": entries}


def cmd_tables(A: AlgebraPresentation, cfg: RunConfig) -> dict:
    """Deformation-model diagnostics: ell vs ell~ vs Omega[u] vs Gr."""
    entries = []
    for n, D in _bidegrees(A, cfg):
        d = D - n
        row = {"n": n, "internal": D, "upper": d,
               "ell": ell_degree_basis(A, "ell", n, d).dim,
               "ell_tilde": ell_degree_basis(A, "ell_tilde", n, d).dim,
               "script_L": ell_degree_basis(A, "script_L", n, d).dim,
               "omega_u": len(omega_u_gens(A, n, d))}
        if any(v for k, v in row.items() if k not in ("n", "internal", "upper")):
            row["gr"] = gr_ell(A, n, d, max(cfg.columns, 2))
            entries.append(row)
    entries.sort(key=lambda e: (e["n"], e["internal"]))
    return {"entries": entries}


def run(config: RunConfig) -> tuple[int, dict]:
    """Execute a command; returns (exit_status, report dict).

    The report is deterministic for a fixed config and seed (byte-identical
    JSON); wall-clock timing is a stderr diagnostic, not report content.
    """
    config.validate()
    t0 = time.time()
    A = load_presentation(config.input_path)
    body = {
        "compute": cmd_compute,
        "verify-approx": cmd_verify_approx,
        "spectral": cmd_spectral,
        "tables": cmd_tables,
    }[config.command](A, config)
    report = {
        "schema": SCHEMA_VERSION,
        "command": config.command,
        "algebra": A.name,
        "graded": A.graded,
        "theory": config.theory,
        "max_internal": config.max_internal,
        "max_homological": config.max_homological,
        "columns": config.columns,
        "seed": config.seed,
    }
    report.update(body)
    print(f"cyclo2: {config.command} finished in {time.time() - t0:.3f}s",
          file=sys.stderr)
    return 0, report


def _format_table(report: dict) -> str:
    lines = [f"# {report['command']} {report['algebra']} "
             f"theory={report['theory']}"]
    entries = report.get("entries", [])
    if entries:
        keys = list(entries[0].keys())
        widths = {k: max(len(str(k)),
                         max(len(str(e.get(k, ""))) for e in entries))
                  for k in keys}
        lines.append("  ".join(str(k).rjust(widths[k]) for k in keys))
        for e in entries:
            lines.append("  ".join(str(e.get(k, "")).rjust(widths[k])
                                   for k in keys))
    for key in ("all_iso", "square_residual_total", "product_checks",
                "product_failures"):
        if key in report:
            lines.append(f"{key}: {report[key]}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cyclo2",
        description="Cyclic homology of F2-algebras and the generators-and-"
                    "relations approximations")
    parser.add_argument("--input", required=True, help="presentation file")
    parser.add_argument("--command", required=True, choices=COMMANDS)
    parser.add_argument("--theory", default="hcminus", choices=THEORIES)
    parser.add_argument("--max-internal", type=int, default=4, metavar="D")
    parser.add_argument("--max-homological", type=int, default=4, metavar="N")
    parser.add_argument("--columns", type=int, default=3, metavar="S")
    parser.add_argument("--format", default="table",
                        choices=("table", "json"))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    config = RunConfig(args.input, args.command, args.theory,
                       args.max_internal, args.max_homological, args.columns,
                       args.format, args.seed)
    try:
        status, report = run(config)
    except CLIError as exc:
        print(f"cyclo2: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal invariant failures
        print(f"cyclo2: internal error: {exc}", file=sys.stderr)
        return 1
    if config.format == "json":
        print(json.dumps(report, indent=2, sort_keys=False))
    else:
        print(_format_table(report))
    return status


if __name__ == "__main__":
    sys.exit(main())
