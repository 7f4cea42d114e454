"""Kahler differentials, the de Rham differential and the Cartier map.

A form is an F2-combination of pairs (m, T): a reduced coefficient monomial
and a strictly increasing tuple of generator indices naming dg factors
(alternating convention, dg.dg = 0, kept in characteristic 2).  Spaces are
presented as free modules on such pairs modulo the rows m'.d(g) wedge dg_T'
coming from the Groebner generators g of the relation ideal.

Internal degree here is the plain sum of slot degrees: (m, T) sits in
degree |m| + sum |g_i|, and d preserves it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .f2linalg import QuotientBasis, SubspaceBasis, complement_basis, \
    class_coordinates, echelonize_in, eliminate_tracked
from .gralg import AlgebraPresentation, Monomial, grevlex_key

FormGen = tuple  # (monomial, tuple of generator indices)
OmegaElement = frozenset  # frozenset[FormGen]

ZERO_FORM: OmegaElement = frozenset()


class DeRhamError(Exception):
    pass


def form(m: Monomial, dgs: tuple[int, ...] = ()) -> OmegaElement:
    if list(dgs) != sorted(set(dgs)):
        raise DeRhamError("differential indices must be strictly increasing")
    return frozenset({(m, tuple(dgs))})


def d_monomial(A: AlgebraPresentation, m: Monomial) -> list[tuple[Monomial, int]]:
    """Terms of d(m): (m / x_i, i) for every odd exponent (char 2)."""
    out = []
    for i, e in enumerate(m):
        if e & 1:
            out.append((tuple(x - 1 if j == i else x for j, x in enumerate(m)), i))
    return out


def de_rham_d(A: AlgebraPresentation, el: OmegaElement) -> OmegaElement:
    """d(m dg_T) = sum (m/x_i) dx_i dg_T; satisfies d.d = 0 exactly."""
    out: set = set()
    for m, dgs in el:
        for c, i in d_monomial(A, m):
            if i in dgs:
                continue
            out.symmetric_difference_update({(c, tuple(sorted(dgs + (i,))))})
    return frozenset(out)


def form_mul(A: AlgebraPresentation, e1: OmegaElement,
             e2: OmegaElement) -> OmegaElement:
    out: set = set()
    for m1, t1 in e1:
        for m2, t2 in e2:
            if set(t1) & set(t2):
                continue
            t = tuple(sorted(t1 + t2))
            for m in A.mul(m1, m2):
                out.symmetric_difference_update({(m, t)})
    return frozenset(out)


@dataclass
class OmegaSpace:
    """Basis of Omega^n in one internal degree, as a quotient presentation."""

    n: int
    d: int
    free: tuple[FormGen, ...]
    quotient: QuotientBasis

    @property
    def dim(self) -> int:
        return self.quotient.dim

    def basis(self) -> tuple[FormGen, ...]:
        return tuple(self.free[k] for k in self.quotient.positions)

    @cached_property
    def _index(self) -> dict:
        return {g: k for k, g in enumerate(self.free)}

    def vectorize(self, el: OmegaElement) -> int:
        index = self._index
        v = 0
        for g in el:
            if g not in index:
                raise DeRhamError(f"form generator {g} outside space "
                                  f"(n={self.n}, d={self.d})")
            v ^= 1 << index[g]
        return v

    def coords(self, el: OmegaElement) -> int:
        """Basis coordinates of a form, as a bitmask."""
        return self.quotient.coords(self.vectorize(el))

    def element(self, coords: int) -> OmegaElement:
        v = self.quotient.lift(coords)
        return frozenset(self.free[k] for k in range(len(self.free))
                         if (v >> k) & 1)


def omega_basis(A: AlgebraPresentation, n: int, d: int) -> OmegaSpace:
    """Omega^n in internal degree d: free on (monomial, dg-subset) pairs
    modulo multiples of the relation differentials."""
    cache = A.memo("omega")
    key = (n, d)
    if key in cache:
        return cache[key]
    free: list[FormGen] = []
    if n >= 0 and (A.graded or d == 0):
        for T in itertools.combinations(range(A.ngens), n):
            wdeg = sum(A.degrees[i] for i in T)
            if A.graded:
                if wdeg > d:
                    continue
                monos = A.degree_basis(d - wdeg)
            else:
                monos = A.basis_all()
            free.extend((m, T) for m in monos)
    free.sort(key=lambda g: (g[1], grevlex_key(g[0])))
    index = {g: k for k, g in enumerate(free)}
    rows = []
    for g in A.groebner if n >= 1 else ():
        dg: list[tuple[Monomial, int]] = []
        for mu in g:
            dg.extend(d_monomial(A, mu))
        gdeg = A.degree(g) if A.graded else 0
        for T in itertools.combinations(range(A.ngens), n - 1):
            wdeg = sum(A.degrees[i] for i in T)
            if A.graded:
                rem = d - gdeg - wdeg
                if rem < 0:
                    continue
                mults = A.degree_basis(rem)
            else:
                mults = A.basis_all()
            for mp in mults:
                v = 0
                for c, i in dg:
                    if i in T:
                        continue
                    Tn = tuple(sorted(T + (i,)))
                    for m in A.mul(mp, c):
                        gen = (m, Tn)
                        v ^= 1 << index[gen]
                if v:
                    rows.append(v)
    space = OmegaSpace(n, d, tuple(free),
                       QuotientBasis.from_relations(len(free), rows))
    cache[key] = space
    return space


def d_matrix_columns(A: AlgebraPresentation, n: int, d: int) -> list[int]:
    """Columns of d: Omega^n_d -> Omega^{n+1}_d in quotient coordinates."""
    src = omega_basis(A, n, d)
    tgt = omega_basis(A, n + 1, d)
    cols = []
    for g in src.basis():
        img = de_rham_d(A, frozenset({g}))
        cols.append(tgt.coords(img))
    return cols


@dataclass(frozen=True)
class DeRhamCohomology:
    """H_DR in one (form degree, internal degree) spot, with representatives."""

    n: int
    d: int
    space: OmegaSpace
    cycles: SubspaceBasis
    boundaries: SubspaceBasis
    complement: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.complement)

    def coords(self, el: OmegaElement) -> int:
        """Class coordinates (a bitmask) of a closed form."""
        return class_coordinates(self.complement, self.boundaries,
                                 self.space.coords(el))

    def rep(self, k: int) -> OmegaElement:
        return self.space.element(self.complement[k])


def de_rham_cohomology(A: AlgebraPresentation, n: int, d: int) -> DeRhamCohomology:
    cache = A.memo("omega")
    key = ("hdr", n, d)
    if key in cache:
        return cache[key]
    space = omega_basis(A, n, d)
    out_cols = d_matrix_columns(A, n, d)
    pivot_rows, zero_trackers = eliminate_tracked(out_cols)
    cycles = echelonize_in(zero_trackers, space.dim)
    if n >= 1:
        in_cols = d_matrix_columns(A, n - 1, d)
        boundaries = echelonize_in([v for v in in_cols if v], space.dim)
    else:
        boundaries = SubspaceBasis(space.dim, ())
    comp = complement_basis(cycles, boundaries)
    result = DeRhamCohomology(n, d, space, cycles, boundaries, comp)
    cache[key] = result
    return result


def cartier_form(A: AlgebraPresentation, el: OmegaElement) -> OmegaElement:
    """Representative of the Cartier image: m dg_T -> m^2 (prod g_i) dg_T."""
    out: set = set()
    for m, dgs in el:
        coeff = A.normal_form([tuple(2 * e for e in m)])
        for i in dgs:
            coeff = A.mul_elements(coeff, frozenset({A.gen_monomial(i)}))
        for c in coeff:
            out.symmetric_difference_update({(c, dgs)})
    return frozenset(out)


def cartier(A: AlgebraPresentation, el: OmegaElement, n: int,
            d: int) -> int:
    """Class coordinates (a bitmask) of the Cartier image of a form in
    Omega^n_d.

    The image representative lands in internal degree 2d; it must be closed
    (d(a da) = da da = 0), which is asserted.
    """
    img = cartier_form(A, el)
    if de_rham_d(A, img):
        raise DeRhamError("cartier image is not closed")
    target = de_rham_cohomology(A, n, 2 * d)
    return target.coords(img)


def cartier_matrix(A: AlgebraPresentation, n: int, d: int):
    """Matrix of the Cartier map Omega^n_d -> H_DR^n at internal 2d."""
    from .cyclic import matrix_from_columns
    src = omega_basis(A, n, d)
    target = de_rham_cohomology(A, n, 2 * d)
    cols = [cartier(A, frozenset({g}), n, d) for g in src.basis()]
    return matrix_from_columns(cols, target.dim), src, target


def cartier_bijective(A: AlgebraPresentation, n: int, d: int) -> bool:
    from .f2linalg import rank_kernel_image
    mat, src, target = cartier_matrix(A, n, d)
    rank = rank_kernel_image(mat)[0]
    return rank == src.dim == target.dim


def antisymmetrize(A: AlgebraPresentation, el: OmegaElement) -> frozenset:
    """The HKR map: m dg_1...dg_n -> sum over S(n) of m[g_s(1)|...|g_s(n)]."""
    out: set = set()
    for m, dgs in el:
        gens = tuple(A.gen_monomial(i) for i in dgs)
        for perm in itertools.permutations(gens):
            out.symmetric_difference_update({(m, perm)})
    return frozenset(out)
