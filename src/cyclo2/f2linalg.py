"""Exact sparse linear algebra over the two-element field.

Vectors are Python ints used as bitmasks: bit j is coordinate j.  Addition
is XOR and all arithmetic is exact; there are no tolerances anywhere.
Bases pivot on the lowest available column, so each is reproducible bit
for bit; a rank keeps no basis, so rank_of pivots on the highest bit.

A matrix is stored as its columns, the form every producer of a matrix
builds and every elimination reads.  Bases come from two loops: the span
loop (_span_pivots) behind echelonize_in and complement_basis, and the
tracked loop null_space, which eliminate from the last vector (or column)
to the first.  A reduced row-echelon basis under the lowest-bit pivot
rule is unique, so the order changes the work, not the bases; last-first
leaves a kernel already in reduced echelon form (see null_space), and
every span goes through the one back-substitution, _reduced_echelon.

Every quotient the package takes is one of two records built on these:
PresentedSpace, generators modulo relations (the ell functors and the
Kahler forms), and Homology, cycles modulo boundaries (the towers, de Rham
cohomology and the E^2 page).  A Homology may be split into blocks on
disjoint coordinates, one cycles and boundaries pair each (a tower slice
of a monomial ideal); it keeps only those pairs, reads class coordinates
block by block and places only its class representatives on the whole
degree.  A Homology made without bases takes its dimension from ranks
(rank_of keeps no basis, and stops at a proven bound) and eliminates its
blocks only when a basis is first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence


class F2LinalgError(Exception):
    pass


def _lowest_bit(v: int) -> int:
    # index of the least significant set bit; v must be nonzero
    return (v & -v).bit_length() - 1


@dataclass(frozen=True)
class F2Matrix:
    """A rows x len(columns) matrix over F2, stored as column bitmasks:
    bit i of columns[j] is the entry in row i, column j."""

    rows: int
    columns: tuple[int, ...]

    def __post_init__(self):
        for c in self.columns:
            if c >> self.rows:
                raise F2LinalgError("entry outside declared rows")

    @property
    def cols(self) -> int:
        return len(self.columns)

    def apply(self, x: int) -> int:
        """Matrix-vector product m @ x: the XOR of the columns x selects."""
        if x >> self.cols:
            raise F2LinalgError("vector longer than column count")
        y = 0
        while x:
            low = x & -x
            x ^= low
            y ^= self.columns[low.bit_length() - 1]
        return y

    def compose(self, other: "F2Matrix") -> "F2Matrix":
        """self @ other (apply other first)."""
        if self.cols != other.rows:
            raise F2LinalgError("dimension mismatch in compose")
        return F2Matrix(self.rows, tuple(self.apply(c) for c in other.columns))

    def add(self, other: "F2Matrix") -> "F2Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise F2LinalgError("dimension mismatch in add")
        return F2Matrix(self.rows, tuple(
            a ^ b for a, b in zip(self.columns, other.columns)))

    def is_zero(self) -> bool:
        return not any(self.columns)


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
        # checked here, on first use, rather than at every construction
        table = {_lowest_bit(w): w for w in self.vectors}
        mask = 0
        for p in table:
            mask |= 1 << p
        for p, w in table.items():
            if w >> self.ambient_dim:
                raise F2LinalgError("basis vector outside the ambient space")
            if w & mask != 1 << p:
                raise F2LinalgError("basis not back-substituted")
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


@dataclass(frozen=True)
class PresentedSpace:
    """One degree (n, d) of a space presented by generators and relations:
    the candidates cands modulo quotient.relations, with the candidates at
    the quotient positions as basis.  An element is a frozenset of
    candidates (their sum); kind is an ell flavor or "omega"."""

    kind: str
    n: int
    d: int
    cands: tuple
    quotient: QuotientBasis

    @property
    def dim(self) -> int:
        return self.quotient.dim

    def basis(self) -> tuple:
        return tuple(self.cands[k] for k in self.quotient.positions)

    @cached_property
    def _index(self) -> dict:
        return {g: k for k, g in enumerate(self.cands)}

    def vectorize(self, el: frozenset) -> int:
        """The element as a bitmask over the candidates."""
        index = self._index
        v = 0
        for g in el:
            k = index.get(g)
            if k is None:
                raise F2LinalgError(f"generator {g!r} outside space "
                                    f"({self.kind}, {self.n}, {self.d})")
            v ^= 1 << k
        return v

    def coords(self, el: frozenset) -> int:
        """Basis coordinates of an element, as a bitmask."""
        return self.quotient.coords(self.vectorize(el))

    def element(self, coords: int) -> frozenset:
        """The element with these basis coordinates: the canonical
        representative, supported on the basis."""
        basis = self.basis()
        return frozenset(basis[k] for k in range(self.dim)
                         if (coords >> k) & 1)


def _span_pivots(vectors: Iterable[int]) -> dict[int, int]:
    """Echelon rows of the span of the vectors as pivot -> row (each row's
    lowest bit is its pivot), reducing the vectors in the order given."""
    pivots: dict[int, int] = {}
    for v in vectors:
        while v:
            p = (v & -v).bit_length() - 1
            w = pivots.get(p)
            if w is None:
                pivots[p] = v
                break
            v ^= w
    return pivots


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
    return _reduced_echelon(_span_pivots(reversed(list(vectors))), ambient_dim)


def rank_of(vectors: Sequence[int], bound: Optional[int] = None) -> int:
    """The rank of the span of the vectors, reduced in the order given on
    the highest bit (a rank keeps no basis): each v ^= w clears the top
    bit of v, so v gets shorter.  bound must be a proven upper bound on
    the rank: the reduction stops there, as every vector left is then
    dependent (a smaller bound is returned)."""
    if bound == 0:
        return 0
    pivots: dict[int, int] = {}
    for v in vectors:
        while v:
            p = v.bit_length()
            w = pivots.get(p)
            if w is None:
                pivots[p] = v
                if len(pivots) == bound:
                    return bound
                break
            v ^= w
    return len(pivots)


def null_space(cols: Sequence[int]
               ) -> tuple[SubspaceBasis, dict[int, tuple[int, int]]]:
    """Kernel of the matrix with the given columns, and the echelon rows of
    its column space as pivot -> (row, tracker).

    The columns are eliminated from the last to the first, tracking which
    columns each reduced vector combines (tracker bit k is column k).  A
    pivot row combines only columns that became pivots, so when column k
    reduces to zero its tracker is bit k plus pivot columns of larger
    index: the kernel comes out in reduced echelon form, with one pivot per
    dependent column and no bit at another one, and needs no
    back-substitution.
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
    return SubspaceBasis(len(cols), tuple(reversed(kernel))), pivots


def rank_kernel_image(m: F2Matrix) -> tuple[int, SubspaceBasis, SubspaceBasis]:
    """Rank, null space and column space of m, all exact.

    The kernel lives in F2^cols, the image in F2^rows.  The kernel basis is
    the standard echelon basis read off the RREF with free variables set to
    unit vectors; rank + dim kernel = cols and dim image = rank always.
    """
    kernel, pivots = null_space(m.columns)
    image = {p: v for p, (v, _) in pivots.items()}
    del pivots  # free the trackers before the back-substitution
    return len(image), kernel, _reduced_echelon(image, m.rows)


def complement_basis(cycles: SubspaceBasis, boundaries: SubspaceBasis) -> tuple[int, ...]:
    """Echelon basis of a complement of boundaries inside cycles.

    The cycles are reduced from the first to the last and the result is
    not back-substituted, so this order fixes the basis vectors.
    """
    pivots = _span_pivots(boundaries.reduce(c) for c in cycles.vectors)
    return tuple(pivots[p] for p in sorted(pivots))


def _placed(v: int, runs: tuple[tuple[int, int, int], ...]) -> int:
    """A block vector moved to ambient coordinates along its runs."""
    w = 0
    for ambient, local, length in runs:
        w |= ((v >> local) & ((1 << length) - 1)) << ambient
    return w


def _local(v: int, runs: tuple[tuple[int, int, int], ...]) -> int:
    """The bits of an ambient vector on a block, in the block's own
    coordinates along its runs (_placed undone)."""
    r = 0
    for ambient, local, length in runs:
        r |= ((v >> ambient) & ((1 << length) - 1)) << local
    return r


@dataclass(frozen=True)
class Homology:
    """Cycles modulo boundaries in one degree of a complex, as the direct
    sum of blocks on disjoint coordinates.

    pairs[i] is the (cycles, boundaries) pair of block i in the block's
    own coordinates, and runs[i] places it in F2^ambient_dim as
    (ambient, local, length) runs: block coordinate local + j is ambient
    coordinate ambient + j for j < length.  Runs increase in both
    coordinates and the blocks partition the ambient coordinates.
    Homology.of makes the single block placed as itself.

    The pairs are given as bases, or else (bases None) built on first read
    by _eliminate(), which a subclass made without them defines, with
    _ranked_dim(): dim from ranks alone, so reading it builds no basis.

    dim is a sum over the blocks.  complement is each block's
    complement_basis placed in ambient coordinates and merged by lowest
    bit: blocks sit on disjoint coordinates and the placement is
    monotone, so it is bit for bit the complement of the unsplit degree.
    Class k is represented by complement[k], and coords(v) has bit k
    where the class of v uses complement[k]; it reads v block by block,
    in each block's own coordinates.
    """

    ambient_dim: int
    runs: tuple[tuple[tuple[int, int, int], ...], ...]
    bases: Optional[tuple[tuple[SubspaceBasis, SubspaceBasis], ...]]

    @classmethod
    def of(cls, cycles: SubspaceBasis, boundaries: SubspaceBasis,
           **fields) -> "Homology":
        """The homology of cycles modulo boundaries; fields are those a
        subclass adds."""
        dim = cycles.ambient_dim
        return cls(dim, (((0, 0, dim),),), ((cycles, boundaries),),
                   **fields)

    @classmethod
    def from_columns(cls, out_cols: Sequence[int], in_cols: Iterable[int],
                     **fields) -> "Homology":
        """The homology at one degree of a complex: out_cols are the
        columns of the outgoing differential, one per basis vector of the
        degree, and in_cols those of the incoming one, held at once."""
        return cls.of(null_space(out_cols)[0],
                      echelonize_in(in_cols, len(out_cols)), **fields)

    @cached_property
    def pairs(self) -> tuple[tuple[SubspaceBasis, SubspaceBasis], ...]:
        return self._eliminate() if self.bases is None else self.bases

    @cached_property
    def dim(self) -> int:
        if self.bases is None:
            return self._ranked_dim()
        return sum(c.dim - b.dim for c, b in self.bases)

    @cached_property
    def _classes(self) -> tuple[tuple[int, ...], tuple]:
        """(complement, blocks): a block is (runs, ambient mask, boundaries,
        classes), its classes (local pivot, local vector, bit of the merged
        index) in pivot order."""
        blocks, placed = [], []
        for runs, (cycles, boundaries) in zip(self.runs, self.pairs):
            classes: list = []
            blocks.append((runs, _placed((1 << cycles.ambient_dim) - 1, runs),
                           boundaries, classes))
            placed.extend((_placed(w, runs), w, classes)
                          for w in complement_basis(cycles, boundaries))
        placed.sort(key=lambda entry: _lowest_bit(entry[0]))
        for k, (_, w, classes) in enumerate(placed):
            classes.append((_lowest_bit(w), w, 1 << k))
        return tuple(entry[0] for entry in placed), tuple(blocks)

    @property
    def complement(self) -> tuple[int, ...]:
        return self._classes[0]

    def coords(self, v: int) -> int:
        """Class coordinates (a bitmask) of a cycle."""
        out = 0
        for runs, mask, boundaries, classes in self._classes[1]:
            if not v & mask:
                continue
            r = boundaries.reduce(_local(v, runs))
            for pivot, w, bit in classes:
                if (r >> pivot) & 1:
                    r ^= w
                    out |= bit
            if r:
                raise F2LinalgError("vector is not a cycle")
            v &= ~mask
        if v:  # bits outside every block
            raise F2LinalgError("vector is not a cycle")
        return out

    def rep(self, k: int) -> int:
        return self.complement[k]
