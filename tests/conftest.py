"""Shared test plumbing: echo acceptance pass/fail lines past capture, the
default hypothesis profile, and the slow elimination and differential
oracles."""

from hypothesis import settings

from cyclo2.f2linalg import SubspaceBasis, complement_basis
from cyclo2.hochschild import boundary_b, connes_B

# Fixed examples and no deadline: every run draws the same cases in bounded
# time.  Another profile can still be chosen with --hypothesis-profile.
settings.register_profile("cyclo2", derandomize=True, max_examples=100,
                          deadline=None, database=None)
settings.load_profile("cyclo2")

_ACCEPTANCE_LINES: list[str] = []


def acceptance_line(line: str):
    print(line)
    _ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


# ----- the first-to-last elimination path, kept as a slow oracle -----

def eliminate_tracked(vectors):
    """Gaussian elimination with combination tracking, first to last.

    Returns (pivot_rows, zero_trackers) where pivot_rows is a list of
    (pivot_index, reduced_vector, tracker), sorted by pivot, and
    zero_trackers collects the combinations that reduced to zero.  tracker
    bit k means input vector k participated.
    """
    pivots = {}
    zeros = []
    for k, v in enumerate(vectors):
        t = 1 << k
        while v:
            p = (v & -v).bit_length() - 1
            if p in pivots:
                pv, pt = pivots[p]
                v ^= pv
                t ^= pt
            else:
                pivots[p] = (v, t)
                break
        if v == 0:
            zeros.append(t)
    rows = [(p, pivots[p][0], pivots[p][1]) for p in sorted(pivots)]
    return rows, zeros


def oracle_echelonize_in(vectors, ambient_dim):
    """RREF span, reducing the vectors from the first to the last."""
    pivots = {}
    for v in vectors:
        while v:
            p = (v & -v).bit_length() - 1
            if p in pivots:
                v ^= pivots[p]
            else:
                pivots[p] = v
                break
    mask_above = 0
    for p in sorted(pivots, reverse=True):
        v = pivots[p]
        hit = v & mask_above
        while hit:
            low = hit & -hit
            hit ^= low
            v ^= pivots[low.bit_length() - 1]
        pivots[p] = v
        mask_above |= 1 << p
    return SubspaceBasis(ambient_dim, tuple(pivots[p] for p in sorted(pivots)))


def oracle_kernel_image(cols, nrows):
    """Kernel and column space: tracked first-to-last elimination, then a
    full echelonization of the zero trackers and of the pivot rows."""
    pivot_rows, zero_trackers = eliminate_tracked(cols)
    return (oracle_echelonize_in(zero_trackers, len(cols)),
            oracle_echelonize_in([v for _, v, _ in pivot_rows], nrows))


def oracle_homology_bases(out_cols, in_cols):
    """Cycles, boundaries and complement of one degree of a complex."""
    dim = len(out_cols)
    cycles = oracle_echelonize_in(eliminate_tracked(out_cols)[1], dim)
    boundaries = oracle_echelonize_in([v for v in in_cols if v], dim)
    return cycles, boundaries, complement_basis(cycles, boundaries)


# ----- the per-word differential path, kept as a slow oracle -----

def slice_basis(sl):
    """The (column p, word) pairs of a tower slice, in slice order."""
    return tuple((p, w) for p, hb, _ in sl.columns() for w in hb.words)


def oracle_differential_columns(A, src, tgt):
    """Columns of B + b from src to tgt, from one boundary_b and one
    connes_B call per basis word, looked up through (p, w)."""
    idx = {pw: k for k, pw in enumerate(slice_basis(tgt))}
    cols = []
    for p, w in slice_basis(src):
        v = 0
        for w2 in boundary_b(A, frozenset({w})):
            v ^= 1 << idx[(p, w2)]
        if p - 1 >= tgt.p_min:
            for w2 in connes_B(A, frozenset({w})):
                v ^= 1 << idx[(p - 1, w2)]
        cols.append(v)
    return cols
