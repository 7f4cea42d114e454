"""Finitely presented graded commutative F2-algebras with monomial normal forms.

A monomial is an exponent tuple over the declared generators; a polynomial is
a frozenset of monomials (F2 coefficients are presence/absence).  A one-time
Buchberger completion fixes the normal forms; everything downstream queries
the immutable presentation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional

Monomial = tuple[int, ...]
Poly = frozenset  # frozenset[Monomial]

ZERO: Poly = frozenset()


class PresentationError(Exception):
    pass


class NotFiniteTypeError(PresentationError):
    pass


class AugmentationError(PresentationError):
    pass


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def grevlex_key(m: Monomial):
    # degree-reverse-lexicographic: sort key ascending = monomial order
    return (sum(m), tuple(-e for e in reversed(m)))


def leading_monomial(p: Poly) -> Monomial:
    return max(p, key=grevlex_key)


@dataclass
class AlgebraPresentation:
    """A finitely presented graded commutative F2-algebra.

    In graded mode every generator has positive internal degree and every
    relation is homogeneous; in ungraded mode all generators sit in degree 0
    and the algebra must be finite dimensional for basis enumeration.
    """

    generators: tuple[str, ...]
    degrees: tuple[int, ...]
    relations: tuple[Poly, ...]
    graded: bool = True
    augmentation: Optional[tuple[int, ...]] = None  # None: default zeros
    name: str = "A"

    groebner: tuple[Poly, ...] = field(init=False, repr=False)
    lead_terms: tuple[Monomial, ...] = field(init=False, repr=False)
    monomial_ideal: bool = field(init=False, repr=False)
    supplemented: bool = field(init=False, repr=False)
    _aug: tuple[int, ...] = field(init=False, repr=False)
    _memo: dict[str, dict] = field(init=False, repr=False, compare=False,
                                   default_factory=dict)

    def __post_init__(self):
        k = len(self.generators)
        if len(self.degrees) != k:
            raise PresentationError("generator/degree count mismatch")
        if self.graded:
            if any(d <= 0 for d in self.degrees):
                raise PresentationError(
                    "degree-0 generator unsupported in graded mode")
            for rel in self.relations:
                degs = {self.mono_degree(m) for m in rel}
                if len(degs) > 1:
                    raise PresentationError(
                        f"inhomogeneous relation in graded mode: degrees {sorted(degs)}")
        else:
            if any(d != 0 for d in self.degrees):
                raise PresentationError("ungraded mode requires degree-0 generators")
        self.groebner = self._buchberger()
        self.lead_terms = tuple(leading_monomial(g) for g in self.groebner)
        self.monomial_ideal = all(len(g) == 1 for g in self.groebner)
        explicit = self.augmentation is not None
        self._aug = self.augmentation if explicit else (0,) * k
        ok = all(self._eval_aug_poly(rel) == 0 for rel in self.relations)
        if explicit and not ok:
            raise AugmentationError("augmentation inconsistent with a relation")
        self.supplemented = ok

    def memo(self, name: str) -> dict:
        """The per-algebra memo table called ``name``, empty on first use.

        Results that depend only on the presentation are stored here, one
        table per kind of result, and live as long as the algebra.
        """
        table = self._memo.get(name)
        if table is None:
            table = self._memo[name] = {}
        return table

    # ----- basic monomial queries -----

    @property
    def ngens(self) -> int:
        return len(self.generators)

    @property
    def one(self) -> Monomial:
        return (0,) * self.ngens

    def gen_monomial(self, i: int) -> Monomial:
        return tuple(1 if j == i else 0 for j in range(self.ngens))

    def mono_degree(self, m: Monomial) -> int:
        return sum(e * d for e, d in zip(m, self.degrees))

    def mono_key(self, m: Monomial):
        """Sort key of the canonical monomial order: internal degree, then
        grevlex.  Argument pools list degree_basis(1), degree_basis(2), ...
        in this order, so products sorted with it are spelled the way the
        candidate enumeration spells them."""
        return (self.mono_degree(m), grevlex_key(m))

    def degree(self, p: Poly) -> int:
        """Internal degree of a homogeneous element (0 for the zero element)."""
        degs = {self.mono_degree(m) for m in p}
        if len(degs) > 1:
            raise PresentationError("element is not homogeneous")
        return degs.pop() if degs else 0

    def _eval_aug_poly(self, p: Poly) -> int:
        total = 0
        for m in p:
            v = 1
            for e, a in zip(m, self._aug):
                if e and a == 0:
                    v = 0
                    break
            total ^= v
        return total

    # ----- Groebner machinery -----

    def _reduce(self, p: Poly, basis: Iterable[Poly]) -> Poly:
        basis = list(basis)
        leads = [leading_monomial(g) for g in basis]
        changed = True
        while changed and p:
            changed = False
            for m in sorted(p, key=grevlex_key, reverse=True):
                for lt, g in zip(leads, basis):
                    if mono_divides(lt, m):
                        shift = mono_div(m, lt)
                        p = p ^ frozenset(mono_mul(shift, t) for t in g)
                        changed = True
                        break
                if changed:
                    break
        return p

    def _buchberger(self) -> tuple[Poly, ...]:
        basis: list[Poly] = []
        for rel in self.relations:
            r = self._reduce(frozenset(rel), basis)
            if r:
                basis.append(r)
        pairs = list(itertools.combinations(range(len(basis)), 2))
        while pairs:
            i, j = pairs.pop()
            f, g = basis[i], basis[j]
            lf, lg = leading_monomial(f), leading_monomial(g)
            lcm = mono_lcm(lf, lg)
            if lcm == mono_mul(lf, lg):
                continue  # coprime leads never yield new elements
            s = (frozenset(mono_mul(mono_div(lcm, lf), t) for t in f)
                 ^ frozenset(mono_mul(mono_div(lcm, lg), t) for t in g))
            s = self._reduce(s, basis)
            if s:
                basis.append(s)
                pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
        # inter-reduce for unique normal forms
        reduced: list[Poly] = []
        for i, g in enumerate(basis):
            others = basis[:i] + basis[i + 1:]
            r = self._reduce(g, [h for h in others if h])
            basis[i] = r
        for g in basis:
            if g:
                reduced.append(g)
        return tuple(sorted(reduced, key=lambda g: grevlex_key(leading_monomial(g))))

    # ----- public operations -----

    def normal_form(self, p: Iterable[Monomial]) -> Poly:
        """Unique reduced representative of p modulo the relation ideal."""
        q: Poly = frozenset()
        for m in p:
            q = q ^ {m}
        return self._reduce(q, self.groebner)

    def is_reduced_monomial(self, m: Monomial) -> bool:
        return not any(mono_divides(lt, m) for lt in self.lead_terms)

    def mul(self, a: Monomial, b: Monomial) -> Poly:
        """Normal form of a product of two reduced monomials (cached)."""
        if grevlex_key(b) < grevlex_key(a):
            a, b = b, a
        products = self.memo("mul")
        key = (a, b)
        r = products.get(key)
        if r is None:
            r = self.normal_form([mono_mul(a, b)])
            products[key] = r
        return r

    def mul_elements(self, p: Iterable[Monomial], q: Iterable[Monomial]) -> Poly:
        out: Poly = frozenset()
        for a in p:
            for b in q:
                out = out ^ self.mul(a, b)
        return out

    def degree_basis(self, d: int) -> tuple[Monomial, ...]:
        """Reduced monomials of internal degree d, in canonical order."""
        bases = self.memo("degree_basis")
        if d in bases:
            return bases[d]
        if self.graded:
            out = [m for m in self._enumerate_graded(d)
                   if self.is_reduced_monomial(m)]
        else:
            out = self._all_reduced() if d == 0 else []
        result = tuple(sorted(out, key=grevlex_key))
        bases[d] = result
        return result

    def _enumerate_graded(self, d: int) -> list[Monomial]:
        """Exponent tuples of internal degree d, reduced or not."""
        partial: list[tuple[Monomial, int]] = [((), d)]  # (exponents, rest)
        for step in self.degrees:
            partial = [(acc + (e,), rem - e * step) for acc, rem in partial
                       for e in range(rem // step + 1)]
        return [acc for acc, rem in partial if rem == 0]

    def basis_all(self) -> tuple[Monomial, ...]:
        """All reduced monomials of an ungraded finite-dimensional algebra,
        which all sit in degree 0."""
        if self.graded:
            raise PresentationError("basis_all is for ungraded algebras")
        return self.degree_basis(0)

    def _all_reduced(self) -> set[Monomial]:
        """The reduced monomials, grown from 1 one generator at a time."""
        for i in range(self.ngens):
            if not any(all(e == 0 or j == i for j, e in enumerate(lt)) and lt[i] > 0
                       for lt in self.lead_terms):
                raise NotFiniteTypeError(
                    f"not finite type: no pure power of {self.generators[i]} "
                    "among leading terms")
        seen = {self.one}
        frontier = [self.one]
        while frontier:
            nxt = []
            for m in frontier:
                for i in range(self.ngens):
                    m2 = mono_mul(m, self.gen_monomial(i))
                    if m2 not in seen and self.is_reduced_monomial(m2):
                        seen.add(m2)
                        nxt.append(m2)
            frontier = nxt
        return seen

    def augment(self, p: Iterable[Monomial]) -> int:
        """Evaluate the augmentation homomorphism on a reduced element."""
        if not self.supplemented:
            raise AugmentationError(
                "algebra is not supplemented (default augmentation "
                "inconsistent with the relations)")
        return self._eval_aug_poly(frozenset(p))

    # ----- display -----

    def mono_str(self, m: Monomial) -> str:
        parts = []
        for name, e in zip(self.generators, m):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    def poly_str(self, p: Iterable[Monomial]) -> str:
        ms = sorted(p, key=grevlex_key, reverse=True)
        return " + ".join(self.mono_str(m) for m in ms) if ms else "0"


# ----- stock presentations used across tests and the CLI -----

def polynomial_algebra(names: Iterable[str], degrees: Iterable[int] | None = None,
                       name: str | None = None) -> AlgebraPresentation:
    names = tuple(names)
    degs = tuple(degrees) if degrees is not None else (1,) * len(names)
    return AlgebraPresentation(names, degs, (), graded=True,
                               name=name or f"F2[{','.join(names)}]")


def trivial_algebra() -> AlgebraPresentation:
    return AlgebraPresentation((), (), (), graded=True, name="F2")


def field_f4() -> AlgebraPresentation:
    x = (1,)
    one = (0,)
    x2 = (2,)
    return AlgebraPresentation(("x",), (0,), (frozenset({x2, x, one}),),
                               graded=False, name="F4")


def dual_numbers() -> AlgebraPresentation:
    return AlgebraPresentation(("x",), (0,), (frozenset({(2,)}),),
                               graded=False, name="F2[x]/(x^2)")
