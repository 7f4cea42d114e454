"""Exact sparse linear algebra over the two-element field.

Vectors are Python ints used as bitmasks: bit j is coordinate j.  Addition
is XOR and all arithmetic is exact; there are no tolerances anywhere.
Elimination always picks the lowest available pivot column, so every basis
produced here is reproducible bit for bit.

Spans and kernels are eliminated from the last vector (or column) to the
first.  A reduced row-echelon basis under the lowest-bit pivot rule is
unique, so the order changes the work, not the bases; last-first leaves a
kernel already in reduced echelon form (see null_space), and every span
goes through the one back-substitution, _reduced_echelon.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional


class F2LinalgError(Exception):
    pass


def vec_from_bits(bits: Iterable[int]) -> int:
    """Pack an iterable of 0/1 coordinates into a bitmask int."""
    v = 0
    for j, b in enumerate(bits):
        if b & 1:
            v |= 1 << j
    return v


def vec_to_bits(v: int, length: int) -> tuple[int, ...]:
    return tuple((v >> j) & 1 for j in range(length))


def _lowest_bit(v: int) -> int:
    # index of the least significant set bit; v must be nonzero
    return (v & -v).bit_length() - 1


@dataclass(frozen=True)
class F2Matrix:
    """A rows x cols matrix over F2, stored as packed row bitmasks."""

    rows: int
    cols: int
    row_data: tuple[int, ...]

    def __post_init__(self):
        if len(self.row_data) != self.rows:
            raise F2LinalgError("row count mismatch")
        mask = (1 << self.cols) - 1
        for r in self.row_data:
            if r & ~mask:
                raise F2LinalgError("entry outside declared columns")

    @classmethod
    def from_dense(cls, dense: Iterable[Iterable[int]], cols: Optional[int] = None) -> "F2Matrix":
        data = [vec_from_bits(row) for row in dense]
        if cols is None:
            cols = max((r.bit_length() for r in data), default=0)
        return cls(len(data), cols, tuple(data))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "F2Matrix":
        return cls(rows, cols, (0,) * rows)

    @classmethod
    def identity(cls, n: int) -> "F2Matrix":
        return cls(n, n, tuple(1 << j for j in range(n)))

    def entry(self, i: int, j: int) -> int:
        return (self.row_data[i] >> j) & 1

    def columns(self) -> list[int]:
        """Column vectors as bitmasks of length ``rows``."""
        cols = [0] * self.cols
        for i, r in enumerate(self.row_data):
            while r:
                j = _lowest_bit(r)
                r &= r - 1
                cols[j] |= 1 << i
        return cols

    def transpose(self) -> "F2Matrix":
        return F2Matrix(self.cols, self.rows, tuple(self.columns()))

    def apply(self, x: int) -> int:
        """Matrix-vector product m @ x with x a col-indexed bitmask."""
        if x >> self.cols:
            raise F2LinalgError("vector longer than column count")
        y = 0
        for i, r in enumerate(self.row_data):
            if bin(r & x).count("1") & 1:
                y |= 1 << i
        return y

    def compose(self, other: "F2Matrix") -> "F2Matrix":
        """self @ other (apply other first)."""
        if self.cols != other.rows:
            raise F2LinalgError("dimension mismatch in compose")
        cols = [self.apply(c) for c in other.columns()]
        return F2Matrix(other.cols, self.rows, tuple(cols)).transpose()

    def add(self, other: "F2Matrix") -> "F2Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise F2LinalgError("dimension mismatch in add")
        return F2Matrix(self.rows, self.cols,
                        tuple(a ^ b for a, b in zip(self.row_data, other.row_data)))

    def is_zero(self) -> bool:
        return not any(self.row_data)


def matrix_from_columns(cols: list[int], nrows: int) -> F2Matrix:
    """The nrows x len(cols) matrix whose column j is the bitmask cols[j]."""
    rows = [0] * nrows
    for j, c in enumerate(cols):
        while c:
            i = _lowest_bit(c)
            c &= c - 1
            rows[i] |= 1 << j
    return F2Matrix(nrows, len(cols), tuple(rows))


@dataclass(frozen=True)
class SubspaceBasis:
    """A subspace of F2^ambient_dim given by its reduced row-echelon basis.

    Vectors are stored sorted by pivot and fully back-substituted: a pivot
    coordinate occurs in no other basis vector.  That invariant lets
    reduce() find all the rows it needs with one mask, touching only rows
    actually hit.
    """

    ambient_dim: int
    vectors: tuple[int, ...] = field(default=())

    def __post_init__(self):
        last = -1
        for v in self.vectors:
            if v == 0:
                raise F2LinalgError("zero vector in basis")
            p = _lowest_bit(v)
            if p <= last:
                raise F2LinalgError("basis not echelonized")
            last = p

    @property
    def dim(self) -> int:
        return len(self.vectors)

    @cached_property
    def _tables(self) -> tuple[int, dict[int, int]]:
        table = {_lowest_bit(w): w for w in self.vectors}
        mask = 0
        for p in table:
            mask |= 1 << p
        return mask, table

    def reduce(self, v: int) -> int:
        """Remainder of v after elimination against the basis."""
        mask, table = self._tables
        hit = v & mask
        while hit:
            low = hit & -hit
            hit ^= low
            v ^= table[low.bit_length() - 1]
        return v

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    def contains_subspace(self, other: "SubspaceBasis") -> bool:
        return all(self.contains(v) for v in other.vectors)


@dataclass(frozen=True)
class QuotientBasis:
    """Coordinates in a quotient of F2^ambient_dim by a relation span.

    The quotient basis is the set of non-pivot coordinates of the relation
    RREF (deterministic lowest-pivot rule), so reducing a vector against the
    relations leaves it supported exactly on the quotient basis.
    """

    ambient_dim: int
    relations: SubspaceBasis
    positions: tuple[int, ...]

    @classmethod
    def from_relations(cls, ambient_dim: int,
                       rel_vectors: Iterable[int]) -> "QuotientBasis":
        rel = echelonize_in([v for v in rel_vectors if v], ambient_dim)
        pivots = {_lowest_bit(v) for v in rel.vectors}
        positions = tuple(j for j in range(ambient_dim) if j not in pivots)
        return cls(ambient_dim, rel, positions)

    @property
    def dim(self) -> int:
        return len(self.positions)

    @cached_property
    def _pos_index(self) -> dict[int, int]:
        return {j: k for k, j in enumerate(self.positions)}

    def coords(self, v: int) -> int:
        """Quotient coordinates of an ambient vector, as a bitmask."""
        r = self.relations.reduce(v)
        idx = self._pos_index
        out = 0
        while r:
            low = r & -r
            r ^= low
            out |= 1 << idx[low.bit_length() - 1]
        return out

    def lift(self, coords: int) -> int:
        """Ambient representative of a coordinate vector."""
        v = 0
        for k, j in enumerate(self.positions):
            if (coords >> k) & 1:
                v |= 1 << j
        return v


def echelonize(vectors: Iterable[int]) -> SubspaceBasis:
    """RREF span of the given vectors (ambient dim = max bit length)."""
    vs = list(vectors)
    dim = max((v.bit_length() for v in vs), default=0)
    return echelonize_in(vs, dim)


def _reduced_echelon(pivots: dict[int, int], ambient_dim: int) -> SubspaceBasis:
    """The RREF basis of echelon rows given as pivot -> row (each row's
    lowest bit is its pivot).

    Back-substitutes from the top pivot down; a finished row has its pivot
    as its only bit in a pivot column.
    """
    order = sorted(pivots)
    mask_above = 0
    for p in reversed(order):
        v = pivots[p]
        hit = v & mask_above
        while hit:
            low = hit & -hit
            hit ^= low
            v ^= pivots[low.bit_length() - 1]
        pivots[p] = v
        mask_above |= 1 << p
    return SubspaceBasis(ambient_dim, tuple(pivots[p] for p in order))


def echelonize_in(vectors: Iterable[int], ambient_dim: int) -> SubspaceBasis:
    """RREF span of the given vectors in F2^ambient_dim.

    The vectors are reduced from the last to the first; the RREF of a span
    is unique, so the order changes the work, not the basis.
    """
    pivots: dict[int, int] = {}
    for v in reversed(list(vectors)):
        while v:
            p = (v & -v).bit_length() - 1
            w = pivots.get(p)
            if w is None:
                pivots[p] = v
                break
            v ^= w
    return _reduced_echelon(pivots, ambient_dim)


def null_space(cols: list[int]) -> tuple[SubspaceBasis, dict[int, int]]:
    """Kernel of the matrix with the given columns, and the echelon rows of
    its column space as pivot -> row.

    The columns are eliminated from the last to the first, tracking which
    columns each reduced vector combines.  A pivot row combines only
    columns that became pivots, so when column k reduces to zero its
    tracker is bit k plus pivot columns of larger index: the kernel comes
    out in reduced echelon form, with one pivot per dependent column and
    no bit at another one, and needs no back-substitution.
    """
    pivots: dict[int, tuple[int, int]] = {}
    kernel: list[int] = []
    for k in range(len(cols) - 1, -1, -1):
        v = cols[k]
        t = 1 << k
        while v:
            p = (v & -v).bit_length() - 1
            row = pivots.get(p)
            if row is None:
                pivots[p] = (v, t)
                break
            v ^= row[0]
            t ^= row[1]
        else:
            kernel.append(t)
    image = {p: v for p, (v, _) in pivots.items()}
    return SubspaceBasis(len(cols), tuple(reversed(kernel))), image


def homology_bases(out_cols: list[int], in_cols: Iterable[int]
                   ) -> tuple[SubspaceBasis, SubspaceBasis, tuple[int, ...]]:
    """Cycles, boundaries and the complement basis of one degree of a chain
    complex.

    out_cols are the columns of the outgoing differential, one per basis
    vector of the degree; in_cols are the columns of the incoming one.
    """
    dim = len(out_cols)
    cycles = null_space(out_cols)[0]
    boundaries = echelonize_in(in_cols, dim)
    return cycles, boundaries, complement_basis(cycles, boundaries)


def eliminate_tracked(vectors: list[int]) -> tuple[list[tuple[int, int, int]], list[int]]:
    """Gaussian elimination with combination tracking, as solve() needs it.

    Returns (pivot_rows, zero_trackers) where pivot_rows is a list of
    (pivot_index, reduced_vector, tracker) and zero_trackers collects the
    combinations that reduced to zero.  tracker bit k means input vector k
    participated.
    """
    pivots: dict[int, tuple[int, int]] = {}
    zeros: list[int] = []
    for k, v in enumerate(vectors):
        t = 1 << k
        while v:
            p = _lowest_bit(v)
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


def rank_of(vectors: Iterable[int]) -> int:
    pivots: dict[int, int] = {}
    for v in vectors:
        while v:
            p = _lowest_bit(v)
            if p in pivots:
                v ^= pivots[p]
            else:
                pivots[p] = v
                break
    return len(pivots)


def rank_kernel_image(m: F2Matrix) -> tuple[int, SubspaceBasis, SubspaceBasis]:
    """Rank, null space and column space of m, all exact.

    The kernel lives in F2^cols, the image in F2^rows.  The kernel basis is
    the standard echelon basis read off the RREF with free variables set to
    unit vectors; rank + dim kernel = cols and dim image = rank always.
    """
    kernel, image = null_space(m.columns())
    return len(image), kernel, _reduced_echelon(image, m.rows)


def solve(m: F2Matrix, target: int) -> Optional[int]:
    """One solution x of m @ x = target, or None if inconsistent.

    Free variables are set to zero, so the result is the echelon particular
    solution and deterministic.
    """
    if target >> m.rows:
        raise F2LinalgError("target longer than row count")
    pivot_rows, _ = eliminate_tracked(m.columns())
    v = target
    x = 0
    for p, pv, pt in pivot_rows:
        if (v >> p) & 1:
            v ^= pv
            x ^= pt
    if v != 0:
        return None
    return x


def quotient_coordinates(cycles: SubspaceBasis, boundaries: SubspaceBasis,
                         v: int) -> int:
    """Coordinates (a bitmask) of the class [v] in a fixed complement of
    boundaries.

    The complement basis is obtained by reducing the cycle basis against the
    boundary basis under the deterministic pivot rule, so coordinates are
    stable across calls.  Raises if v is not a cycle; a broken containment
    (boundaries not inside cycles) is an internal error in the caller's
    complex.
    """
    if not cycles.contains_subspace(boundaries):
        raise F2LinalgError("boundary space not contained in cycle space")
    comp = complement_basis(cycles, boundaries)
    return class_coordinates(comp, boundaries, v)


def complement_basis(cycles: SubspaceBasis, boundaries: SubspaceBasis) -> tuple[int, ...]:
    """Echelon basis of a complement of boundaries inside cycles."""
    pivots: dict[int, int] = {}
    for c in cycles.vectors:
        v = boundaries.reduce(c)
        while v:
            p = _lowest_bit(v)
            if p in pivots:
                v ^= pivots[p]
            else:
                pivots[p] = v
                break
    return tuple(pivots[p] for p in sorted(pivots))


def class_coordinates(comp: tuple[int, ...], boundaries: SubspaceBasis,
                      v: int) -> int:
    """Coordinates of the class [v] in the complement basis comp: bit k is
    the coefficient of comp[k]."""
    r = boundaries.reduce(v)
    coords = 0
    for k, w in enumerate(comp):
        if (r >> _lowest_bit(w)) & 1:
            r ^= w
            coords |= 1 << k
    if r != 0:
        raise F2LinalgError("vector is not a cycle")
    return coords
