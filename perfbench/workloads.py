"""Inputs and request lists of the cyclo2 benchmark.

A request is one call of ``cyclo2.cli.run`` on a presentation file, the
same work as one ``cyclo2 --input FILE --command ...`` invocation.  The
benchmark writes the presentation files itself; the program receives only
those files plus ``--seed`` on every ``verify-approx`` request.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

# name -> presentation file text
PRESENTATIONS = {
    "poly_x": """[options]
graded = true
name = F2[x]

[generators]
x 1

[relations]
""",
    "poly_xy": """[options]
graded = true
name = F2[x,y]

[generators]
x 1
y 1

[relations]
""",
    "poly_xyz": """[options]
graded = true
name = F2[x,y,z]

[generators]
x 1
y 1
z 1

[relations]
""",
    "cusp_xy": """[options]
graded = true
name = F2[x,y]/(x^2y+y^3)

[generators]
x 1
y 1

[relations]
x^2*y + y^3
""",
    "f8": """[options]
graded = false
name = F8

[generators]
x 0

[relations]
x^3 + x + 1
""",
    "truncated_x3": """[options]
graded = false
name = F2[x]/(x^3)

[generators]
x 0

[relations]
x^3
""",
    "f4": """[options]
graded = false
name = F4

[generators]
x 0

[relations]
x^2 + x + 1
""",
    "dual_numbers": """[options]
graded = false
name = F2[x]/(x^2)

[generators]
x 0

[relations]
x^2
""",
}

# polynomial algebras on degree-1 generators: name -> number of generators
POLYNOMIAL_GENERATORS = {"poly_x": 1, "poly_xy": 2, "poly_xyz": 3}
# inputs that are smooth over F2 (polynomial algebras and finite fields)
SMOOTH = {"poly_x", "poly_xy", "poly_xyz", "f4", "f8"}


@dataclass(frozen=True)
class Request:
    input: str
    command: str
    theory: str
    max_internal: int
    max_homological: int
    columns: int = 3

    @property
    def key(self) -> str:
        """Stable name of the request, used by the oracle file."""
        return (f"{self.input}:{self.command}:{self.theory}:"
                f"D{self.max_internal}:N{self.max_homological}:"
                f"S{self.columns}")

    def uses_seed(self) -> bool:
        return self.command == "verify-approx"

    def config(self, path: str, seed: int):
        """The ``cyclo2.cli.RunConfig`` of this request on ``path``; the seed
        is passed on only where the command uses it."""
        from cyclo2 import cli

        return cli.RunConfig(path, self.command, self.theory,
                             self.max_internal, self.max_homological,
                             self.columns, "json",
                             seed if self.uses_seed() else 0)


WORKLOADS: dict[str, tuple[Request, ...]] = {
    "verify-smooth": (
        Request("poly_xy", "verify-approx", "hcminus", 6, 6),
        Request("poly_x", "verify-approx", "hc", 8, 8),
        Request("poly_x", "verify-approx", "hcper", 8, 8),
    ),
    "homology-graded": (
        Request("poly_xyz", "compute", "hcminus", 6, 6),
        Request("poly_xyz", "compute", "hh", 6, 6),
        Request("cusp_xy", "compute", "hcminus", 7, 7),
    ),
    "ungraded-towers": (
        Request("f8", "compute", "hcminus", 0, 2, 3),
        Request("truncated_x3", "compute", "hcper", 0, 3, 3),
        Request("f4", "verify-approx", "hcminus", 0, 6),
        Request("f4", "verify-approx", "hc", 0, 6),
        Request("dual_numbers", "verify-approx", "hcminus", 0, 4),
        Request("dual_numbers", "compute", "hcper", 0, 8, 4),
    ),
}


def inputs_of(workload: str) -> list[str]:
    """Distinct input names of a workload, in first-use order."""
    seen: list[str] = []
    for req in WORKLOADS[workload]:
        if req.input not in seen:
            seen.append(req.input)
    return seen


def input_paths(workload: str, directory: str) -> dict[str, str]:
    """Input name -> presentation file of the workload in ``directory``."""
    return {name: os.path.join(directory, f"{name}.alg")
            for name in inputs_of(workload)}


def write_presentations(directory: str, names=tuple(PRESENTATIONS)
                        ) -> dict[str, str]:
    """Write the named presentation files; returns name -> path."""
    os.makedirs(directory, exist_ok=True)
    paths = {name: os.path.join(directory, f"{name}.alg") for name in names}
    for name, path in paths.items():
        with open(path, "w") as fh:
            fh.write(PRESENTATIONS[name])
    return paths


def write_inputs(workload: str, directory: str) -> dict[str, str]:
    """Write the workload's presentation files; returns name -> path."""
    return write_presentations(directory, inputs_of(workload))
