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
from functools import partial
from typing import Optional

from .f2linalg import Homology, PresentedSpace, QuotientBasis
from .gralg import AlgebraPresentation, Monomial

FormGen = tuple  # (monomial, tuple of generator indices)
OmegaElement = frozenset  # frozenset[FormGen]


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


def free_forms(A: AlgebraPresentation, n: int, d: int) -> dict:
    """The pairs (m, T) with |T| = n in internal degree d, sorted by T,
    then by the A.mono_key of m, each -> its position: the free basis that
    Omega^n_d is a quotient of; memoised."""
    table = A.memo("free_forms")
    if (n, d) not in table:
        gens = [(m, T) for T in (itertools.combinations(range(A.ngens), n)
                                 if n >= 0 else ())
                for m in A.degree_basis(d - sum(A.degrees[i] for i in T))]
        table[(n, d)] = dict(zip(gens, range(len(gens))))
    return table[(n, d)]


def relation_forms(A: AlgebraPresentation, f) -> tuple:
    """(f, df): a polynomial f as a 0-form and its de Rham d, the two
    multipliers of form_piece that a relation f gives."""
    f0 = frozenset((m, ()) for m in f)
    return f0, de_rham_d(A, f0)


def form_piece(A: AlgebraPresentation, w: Optional[OmegaElement], n: int,
               d: int) -> tuple:
    """d (w None) or the multiplication by the homogeneous form w, such as
    a relation f or its df (relation_forms), on free_forms(A, n, d), one
    bitmask over the free forms of the target per form; memoised.  The
    chain models' b and B, the relation rows of Omega and the de Rham d
    all read these pieces."""
    table = A.memo("form_piece")
    if (w, n, d) not in table:
        if w is None:
            tgt, image = free_forms(A, n + 1, d), partial(de_rham_d, A)
        else:  # a zero w has zero columns, whatever the target
            m, T = next(iter(w), (A.one, ()))
            tgt = free_forms(A, n + len(T), d + A.mono_degree(m)
                             + sum(A.degrees[i] for i in T))
            image = partial(form_mul, A, w)
        table[(w, n, d)] = tuple(
            sum(1 << tgt[g] for g in image(frozenset({form})))
            for form in free_forms(A, n, d))
    return table[(w, n, d)]


def omega_basis(A: AlgebraPresentation, n: int, d: int) -> PresentedSpace:
    """Omega^n in internal degree d: free on (monomial, dg-subset) pairs
    modulo the multiples m dx_T df_j of the Groebner elements f_j, the df_j
    pieces at (n - 1, d - deg f_j)."""
    cache = A.memo("omega")
    if (n, d) not in cache:
        rows = [v for f in A.groebner if n >= 1 for v in form_piece(
            A, relation_forms(A, f)[1], n - 1, d - A.degree(f))]
        index = free_forms(A, n, d)
        cache[(n, d)] = PresentedSpace(
            "omega", n, d, tuple(index),
            QuotientBasis.from_relations(len(index), rows))
    return cache[(n, d)]


def d_matrix_columns(A: AlgebraPresentation, n: int, d: int) -> list[int]:
    """Columns of d: Omega^n_d -> Omega^{n+1}_d in quotient coordinates:
    the d piece at the quotient positions of Omega^n_d."""
    piece = form_piece(A, None, n, d)
    tgt = omega_basis(A, n + 1, d).quotient
    return [tgt.coords(piece[k])
            for k in omega_basis(A, n, d).quotient.positions]


@dataclass(frozen=True)
class DeRhamCohomology(Homology):
    """H_DR in one (form degree, internal degree) spot, on forms."""

    n: int
    d: int
    space: PresentedSpace

    def coords(self, el: OmegaElement) -> int:
        """Class coordinates (a bitmask) of a closed form."""
        return super().coords(self.space.coords(el))

    def rep(self, k: int) -> OmegaElement:
        return self.space.element(super().rep(k))


def de_rham_cohomology(A: AlgebraPresentation, n: int, d: int) -> DeRhamCohomology:
    cache = A.memo("de_rham")
    result = cache.get((n, d))
    if result is None:
        in_cols = d_matrix_columns(A, n - 1, d) if n >= 1 else []
        result = cache[(n, d)] = DeRhamCohomology.from_columns(
            d_matrix_columns(A, n, d), in_cols,
            n=n, d=d, space=omega_basis(A, n, d))
    return result


def cartier_form(A: AlgebraPresentation, el: OmegaElement) -> OmegaElement:
    """Representative of the Cartier image: m dg_T -> m^2 (prod g_i) dg_T."""
    out: set = set()
    for m, dgs in el:
        coeff = A.mul(m, m)
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


def antisymmetrize(A: AlgebraPresentation, el: OmegaElement) -> frozenset:
    """The HKR map: m dg_1...dg_n -> sum over S(n) of m[g_s(1)|...|g_s(n)]."""
    out: set = set()
    for m, dgs in el:
        gens = tuple(A.gen_monomial(i) for i in dgs)
        for perm in itertools.permutations(gens):
            out.symmetric_difference_update({(m, perm)})
    return frozenset(out)
