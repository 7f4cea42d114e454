"""The approximation functors built from generators and relations.

Monomials are tuples over reduced basis monomials of the input algebra:

  ell       ("e", j, phi, q, dl)   u^j . prod phi(m) . prod q(m) . prod dl(m)
  per       ("p", j, phi, q)       j may be negative (u u^{-1} = 1 rewritten)
  plus      ("g", phi, q, dl, m)   an ell part times gamma(m)
            ("v", j, i, phi, q)    an ell part times v^i (j.i = 0 after rewrite)

All three part tuples are kept squarefree: delta(a)^2 = 0 and q(a)^2 = 0 are
relations, and a repeated phi factor is rewritten on the spot through
phi(a)^2 = phi(a^2) + u q(a)^2 = phi(a^2).  Additivity moves every generator
argument to basis monomials, with q picking up the delta(ab) correction term.
A space in one bidegree is the span of these candidate monomials modulo all
relation instances with basis-monomial arguments times all complementary
monomials; the basis is the complement of the relation span under the
deterministic pivot rule.

Bidegrees here are (homological, upper): |delta(a)| = |a|-1, |phi(a)| = 2|a|,
|q(a)| = 2|a|-1, |u| = 2, |gamma(a)| = |a|, |v^i| = -2i, and homological
degrees 1, 0, 1, -2, 0, 2i respectively.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .derham import OmegaElement, d_monomial, form_mul, omega_basis
from .f2linalg import QuotientBasis, matrix_from_columns
from .gralg import AlgebraPresentation, Monomial, Poly

EllMonomial = tuple
EllElement = frozenset

ZERO_ELL: EllElement = frozenset()

FLAVORS = ("ell", "ell_tilde", "script_L", "omega_tilde", "ell_plus", "ell_per")


class EllError(Exception):
    pass


def _sorted(A: AlgebraPresentation, ms) -> tuple[Monomial, ...]:
    return tuple(sorted(ms, key=A.mono_key))


# ----- monomial constructors and multiplication -----

def unit_mon() -> EllMonomial:
    return ("e", 0, (), (), ())


UNIT: EllElement = frozenset({unit_mon()})


def _phi_insert(A: AlgebraPresentation, phi: tuple, m: Monomial) -> frozenset:
    """Insert a phi factor, rewriting phi(m)^2 = phi(m^2) on collision."""
    if m == A.one:
        return frozenset({phi})
    if m not in phi:
        return frozenset({_sorted(A, phi + (m,))})
    base = tuple(x for x in phi if x != m)
    out: set = set()
    for m2 in A.mul(m, m):
        out.symmetric_difference_update(_phi_insert(A, base, m2))
    return frozenset(out)


def _phi_fold(A: AlgebraPresentation, phi: tuple, args) -> frozenset:
    """The phi parts of the product of prod_{m in phi} phi(m) with phi(a)
    for every a in args, each part squarefree."""
    phis = frozenset({phi})
    for m in args:
        nxt: set = set()
        for t in phis:
            nxt.symmetric_difference_update(_phi_insert(A, t, m))
        phis = frozenset(nxt)
    return phis


def ell_mon_mul(A: AlgebraPresentation, a: EllMonomial,
                b: EllMonomial) -> EllElement:
    """Product of two ell monomials, reduced to canonical monomials."""
    _, ja, pa, qa, da = a
    _, jb, pb, qb, db = b
    if set(qa) & set(qb) or set(da) & set(db):
        return ZERO_ELL
    j = ja + jb
    q = _sorted(A, qa + qb)
    dl = _sorted(A, da + db)
    if j > 0 and dl:
        return ZERO_ELL  # u delta(a) = 0
    return frozenset(("e", j, t, q, dl) for t in _phi_fold(A, pa, pb))


def per_mon_mul(A: AlgebraPresentation, a: EllMonomial,
                b: EllMonomial) -> EllElement:
    _, ja, pa, qa = a
    _, jb, pb, qb = b
    if set(qa) & set(qb):
        return ZERO_ELL
    q = _sorted(A, qa + qb)
    return frozenset(("p", ja + jb, t, q) for t in _phi_fold(A, pa, pb))


def plus_mon_mul(A: AlgebraPresentation, e: EllMonomial,
                 x: EllMonomial) -> EllElement:
    """Action of an ell monomial on an ell_plus module monomial."""
    _, j, phi, q, dl = e
    if x[0] == "g":
        _, px, qx, dx, m = x
        if j > 0:
            return ZERO_ELL  # u gamma(a) = 0, and u kills the whole orbit
        if set(q) & set(qx) or set(dl) & set(dx):
            return ZERO_ELL
        qm = _sorted(A, q + qx)
        dm = _sorted(A, dl + dx)
        return frozenset(("g", t, qm, dm, m) for t in _phi_fold(A, px, phi))
    if x[0] == "v":
        _, jx, i, px, qx = x
        if dl:
            return ZERO_ELL  # delta(a) v^i = 0
        if set(q) & set(qx):
            return ZERO_ELL
        qm = _sorted(A, q + qx)
        jt = j + jx
        k = min(jt, i)
        jt, it = jt - k, i - k  # u v^i = v^{i-1}
        return frozenset(("v", jt, it, t, qm) for t in _phi_fold(A, px, phi))
    raise EllError(f"unknown plus monomial {x!r}")


def el_mul(A: AlgebraPresentation, e1: EllElement, e2: EllElement,
           mul=ell_mon_mul) -> EllElement:
    out: set = set()
    for a in e1:
        for b in e2:
            out.symmetric_difference_update(mul(A, a, b))
    return frozenset(out)


# ----- generator evaluation on arbitrary algebra elements -----

def phi_el(A: AlgebraPresentation, p: Poly, kind: str = "e") -> EllElement:
    out: set = set()
    for m in p:
        if m == A.one:
            mon = (kind, 0, (), (), ()) if kind == "e" else ("p", 0, (), ())
        else:
            mon = (kind, 0, (m,), (), ()) if kind == "e" else ("p", 0, (m,), ())
        out.symmetric_difference_update({mon})
    return frozenset(out)


def del_el(A: AlgebraPresentation, p: Poly) -> EllElement:
    out: set = set()
    for m in p:
        if m == A.one:
            continue  # delta(1) = 0
        out.symmetric_difference_update({("e", 0, (), (), (m,))})
    return frozenset(out)


def q_el(A: AlgebraPresentation, p: Poly, additive: bool = False,
         kind: str = "e") -> EllElement:
    """q on a sum of monomials; the ell flavor picks up delta(m m') terms."""
    out: set = set()
    for m in p:
        if m == A.one:
            continue  # q(1) = 0
        mon = ("e", 0, (), (m,), ()) if kind == "e" else ("p", 0, (), (m,))
        out.symmetric_difference_update({mon})
    if not additive:
        ms = _sorted(A, p)
        for i in range(len(ms)):
            for k in range(i + 1, len(ms)):
                out.symmetric_difference_update(del_el(A, A.mul(ms[i], ms[k])))
    return frozenset(out)


def gamma_el(A: AlgebraPresentation, p: Poly) -> EllElement:
    out: set = set()
    for m in p:
        out.symmetric_difference_update({("g", (), (), (), m)})
    return frozenset(out)


def v_mon(i: int) -> EllMonomial:
    return ("v", 0, i, (), ())


# ----- gradings -----

def ell_bidegree(A: AlgebraPresentation, mon: EllMonomial) -> tuple[int, int]:
    """(homological, upper) bidegree of a monomial of any flavor."""
    kind = mon[0]
    if kind == "e":
        _, j, phi, q, dl = mon
        hom = -2 * j + len(q) + len(dl)
        up = 2 * j + sum(2 * A.mono_degree(m) for m in phi) \
            + sum(2 * A.mono_degree(m) - 1 for m in q) \
            + sum(A.mono_degree(m) - 1 for m in dl)
        return hom, up
    if kind == "p":
        _, j, phi, q = mon
        hom = -2 * j + len(q)
        up = 2 * j + sum(2 * A.mono_degree(m) for m in phi) \
            + sum(2 * A.mono_degree(m) - 1 for m in q)
        return hom, up
    if kind == "g":
        _, phi, q, dl, m = mon
        hom = len(q) + len(dl)
        up = A.mono_degree(m) + sum(2 * A.mono_degree(x) for x in phi) \
            + sum(2 * A.mono_degree(x) - 1 for x in q) \
            + sum(A.mono_degree(x) - 1 for x in dl)
        return hom, up
    if kind == "v":
        _, j, i, phi, q = mon
        hom = -2 * j + 2 * i + len(q)
        up = 2 * j - 2 * i + sum(2 * A.mono_degree(x) for x in phi) \
            + sum(2 * A.mono_degree(x) - 1 for x in q)
        return hom, up
    raise EllError(f"unknown monomial kind {kind!r}")


# ----- candidate enumeration -----

def _arg_pool(A: AlgebraPresentation,
              max_deg: int) -> list[tuple[Monomial, int]]:
    """Basis monomials usable as generator arguments (unit excluded), each
    with its degree, in mono_key order: a pool is a prefix of every pool
    with a larger max_deg."""
    if A.graded:
        return [(m, g) for g in range(1, max_deg + 1)
                for m in A.degree_basis(g)]
    return [(m, 0) for m in A.basis_all() if m != A.one]


# The ways one argument joins (phi, q, dl); the first four are delta-free.
_ROLES = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0),
          (0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1))


def _part_choices(A: AlgebraPresentation, slots: int, up: int,
                  delta: bool = True) -> list[tuple[tuple, tuple, tuple]]:
    """Every (phi, q, dl) with #q + #dl = slots and upper degree up.

    Each part is squarefree and in mono_key order, but the parts are
    independent: the same argument may serve phi, q and dl at once.  An
    argument of degree g costs 2g in phi, 2g - 1 in q and g - 1 in dl.
    Without delta the dl part stays empty.  All flavors share this table.
    """
    pool = _arg_pool(A, up + 1 if A.graded else 0)
    return _parts_from(A.memo("ell_parts"), pool, A.graded, 0, slots, up,
                       delta)


def _parts_from(memo: dict, pool, graded: bool, k: int, slots: int, up: int,
                delta: bool) -> list[tuple[tuple, tuple, tuple]]:
    """The part choices over pool[k:], memoised on (k, slots, up, delta).

    The key holds across calls because every pool is a prefix of one
    mono_key order, long enough for its budget: graded costs are
    non-negative, so an argument of degree above up + 1 fits no part and
    ends the scan.  Ungraded arguments have degree 0, and up = -slots.
    """
    key = (k, slots, up, delta)
    out = memo.get(key)
    if out is not None:
        return out
    out = []
    if slots < 0 or (graded and up < 0):
        pass
    elif k == len(pool) or (graded and pool[k][1] > up + 1):
        if slots == 0 and up == 0:
            out.append(((), (), ()))
    else:
        m, g = pool[k]
        one = (m,)
        for p, q, dl in _ROLES if delta else _ROLES[:4]:
            rest = _parts_from(memo, pool, graded, k + 1, slots - q - dl,
                               up - 2 * g * p - (2 * g - 1) * q - (g - 1) * dl,
                               delta)
            if p or q or dl:
                out.extend((one + a if p else a, one + b if q else b,
                            one + c if dl else c) for a, b, c in rest)
            else:
                out.extend(rest)
    memo[key] = out
    return out


def _u_parts(A: AlgebraPresentation, n: int, d: int, per: bool):
    """(j, (phi, q, dl)) for u^j times a part choice in bidegree (n, d).

    j >= 0 for ell, and j of either sign for ell_per, where u is
    invertible.  Delta parts come only at j = 0 (u delta(a) = 0) and never
    for ell_per.
    """
    if A.graded:
        jmax = d // 2
    else:  # q and dl fill at most two slots per argument
        jmax = (2 * len(_arg_pool(A, 0)) - n) // 2
    jmin = -(n // 2)  # the slot count n + 2j is non-negative
    for j in range(jmin if per else max(jmin, 0), jmax + 1):
        for part in _part_choices(A, n + 2 * j, d - 2 * j,
                                  j == 0 and not per):
            yield j, part


def _candidates(A: AlgebraPresentation, kind: str, n: int, d: int,
                build) -> list[EllMonomial]:
    """The candidates build() of one flavor in bidegree (n, d), memoised
    and canonically sorted."""
    if not A.graded and d != -n:
        return []
    cache = A.memo("ell_mono")
    key = (kind, n, d)
    out = cache.get(key)
    if out is None:
        out = cache[key] = sorted(build(),
                                  key=lambda mon: _mon_sort_key(A, mon))
    return out


def ell_monomials(A: AlgebraPresentation, n: int, d: int) -> list[EllMonomial]:
    """Candidate ell monomials of bidegree (n, d), canonically sorted."""
    return _candidates(A, "e", n, d, lambda: [
        ("e", j, phi, q, dl) for j, (phi, q, dl) in _u_parts(A, n, d, False)])


def per_monomials(A: AlgebraPresentation, n: int, d: int) -> list[EllMonomial]:
    """Candidate ell_per monomials: u^j, j of either sign, times the
    delta-free parts."""
    return _candidates(A, "p", n, d, lambda: [
        ("p", j, phi, q) for j, (phi, q, _) in _u_parts(A, n, d, True)])


def plus_monomials(A: AlgebraPresentation, n: int, d: int) -> list[EllMonomial]:
    """gamma(m) times the u-free ell parts at (n, d - |m|), and the per
    candidates with u^{-i} read as v^i."""
    return _candidates(A, "g", n, d, lambda: [
        ("g", phi, q, dl, m)
        for m, g in [(A.one, 0)] + _arg_pool(A, d if A.graded else 0)
        for phi, q, dl in _part_choices(A, n, d - g)] + [
        ("v", max(j, 0), max(-j, 0), phi, q)
        for _, j, phi, q in per_monomials(A, n, d)])


def _mon_sort_key(A: AlgebraPresentation, mon: EllMonomial):
    key = A.mono_key
    kind = mon[0]
    if kind == "e":
        _, j, phi, q, dl = mon
        return (0, j, tuple(map(key, phi)), tuple(map(key, q)),
                tuple(map(key, dl)), 0, ())
    if kind == "p":
        _, j, phi, q = mon
        return (0, j, tuple(map(key, phi)), tuple(map(key, q)), (), 0, ())
    if kind == "g":
        _, phi, q, dl, m = mon
        return (1, 0, tuple(map(key, phi)), tuple(map(key, q)),
                tuple(map(key, dl)), 0, key(m))
    _, j, i, phi, q = mon
    return (2, j, tuple(map(key, phi)), tuple(map(key, q)), (), i, ())


# ----- relation instances -----

def _window(A: AlgebraPresentation, lo, hi: int):
    """Whether an instance of upper degree (or bound) up is new in a list
    grown from lo to hi.  Ungraded lists are built once, in full."""
    if not A.graded:
        return lambda up: True
    return lambda up: lo < up <= hi


def _ell_relation_instances(A: AlgebraPresentation, lo,
                            hi: int) -> list[tuple[EllElement, int, int]]:
    """The defining multiplicative relations over basis-monomial arguments
    (the unit included) with instance upper degree in (lo, hi]."""
    pool1 = [(A.one, 0)] + _arg_pool(A, hi + 2 if A.graded else 0)
    new = _window(A, lo, hi)
    out: list[tuple[EllElement, int, int]] = []

    def push(el: EllElement):
        if not el:
            return
        n0, d0 = _element_bidegree(A, el)
        out.append((el, n0, d0))

    for (a, ga), (b, gb) in itertools.combinations_with_replacement(pool1, 2):
        # phi(ab) + phi(a)phi(b) + u q(a) q(b)
        if new(2 * (ga + gb)):
            push(phi_el(A, A.mul(a, b))
                 ^ el_mul(A, phi_el(A, frozenset({a})),
                          phi_el(A, frozenset({b})))
                 ^ el_mul(A, frozenset({("e", 1, (), (), ())}),
                          el_mul(A, q_el(A, frozenset({a})),
                                 q_el(A, frozenset({b})))))
        # q(ab) + q(a)phi(b) + phi(a)q(b)
        if new(2 * (ga + gb) - 1):
            push(q_el(A, A.mul(a, b))
                 ^ el_mul(A, q_el(A, frozenset({a})),
                          phi_el(A, frozenset({b})))
                 ^ el_mul(A, phi_el(A, frozenset({a})),
                          q_el(A, frozenset({b}))))
    # delta(ab)delta(c) + delta(bc)delta(a) + delta(ca)delta(b)
    for (a, ga), (b, gb), (c, gc) in \
            itertools.combinations_with_replacement(pool1, 3):
        if new(ga + gb + gc - 2):
            push(el_mul(A, del_el(A, A.mul(a, b)), del_el(A, frozenset({c})))
                 ^ el_mul(A, del_el(A, A.mul(b, c)), del_el(A, frozenset({a})))
                 ^ el_mul(A, del_el(A, A.mul(c, a)),
                          del_el(A, frozenset({b}))))
    for a, ga in pool1:
        for b, gb in pool1:
            # delta(a)phi(b) + delta(a b^2)
            if new(ga - 1 + 2 * gb):
                absq = A.mul_elements(frozenset({a}), A.mul(b, b))
                push(el_mul(A, del_el(A, frozenset({a})),
                            phi_el(A, frozenset({b}))) ^ del_el(A, absq))
            # delta(a)q(b) + delta(ab)delta(b)
            if new(ga + 2 * gb - 2):
                push(el_mul(A, del_el(A, frozenset({a})),
                            q_el(A, frozenset({b})))
                     ^ el_mul(A, del_el(A, A.mul(a, b)),
                              del_el(A, frozenset({b}))))
    return out


def _per_relation_instances(A: AlgebraPresentation, lo,
                            hi: int) -> list[tuple[EllElement, int, int]]:
    """Instances of the per relations (q is purely additive here) with
    bound in (lo, hi].

    Since u is invertible, instances are bounded by n0 + d0: that sum is
    what u-shifts cannot change.
    """
    pool1 = [(A.one, 0)] + _arg_pool(A, hi // 2 + 1 if A.graded else 0)
    new = _window(A, lo, hi)
    out = []

    def push(el):
        if el:
            n0, d0 = _element_bidegree(A, el)
            out.append((el, n0, d0))

    u1 = frozenset({("p", 1, (), ())})
    for (a, ga), (b, gb) in itertools.combinations_with_replacement(pool1, 2):
        if not new(2 * (ga + gb)):
            continue
        el = phi_el(A, A.mul(a, b), kind="p") \
            ^ per_el_mul(A, phi_el(A, frozenset({a}), kind="p"),
                         phi_el(A, frozenset({b}), kind="p")) \
            ^ per_el_mul(A, u1,
                         per_el_mul(A, q_el(A, frozenset({a}), True, "p"),
                                    q_el(A, frozenset({b}), True, "p")))
        push(el)
        el = q_el(A, A.mul(a, b), True, "p") \
            ^ per_el_mul(A, q_el(A, frozenset({a}), True, "p"),
                         phi_el(A, frozenset({b}), kind="p")) \
            ^ per_el_mul(A, phi_el(A, frozenset({a}), kind="p"),
                         q_el(A, frozenset({b}), True, "p"))
        push(el)
    return out


def per_el_mul(A, e1, e2):
    return el_mul(A, e1, e2, mul=per_mon_mul)


def _plus_relation_instances(A: AlgebraPresentation, lo,
                             hi: int) -> list[tuple[EllElement, int, int]]:
    """The defining module relations over basis-monomial arguments with
    instance upper degree in (lo, hi]."""
    pool1 = [(A.one, 0)] + _arg_pool(A, hi + 2 if A.graded else 0)
    new = _window(A, lo, hi)
    out = []

    def push(el):
        if el:
            n0, d0 = _element_bidegree(A, el)
            out.append((el, n0, d0))

    def dmon(m):
        return del_el(A, frozenset({m}))

    def act(e, x):
        return el_mul(A, e, x, mul=plus_mon_mul)

    for a, ga in pool1:
        for b, gb in pool1:
            # phi(a) gamma(b) + gamma(a^2 b)
            if new(2 * ga + gb):
                a2b = A.mul_elements(A.mul(a, a), frozenset({b}))
                push(act(phi_el(A, frozenset({a})),
                         gamma_el(A, frozenset({b})))
                     ^ gamma_el(A, a2b))
            # q(a) gamma(b) + delta(a) gamma(ab)
            if new(2 * ga - 1 + gb):
                push(act(q_el(A, frozenset({a})), gamma_el(A, frozenset({b})))
                     ^ act(dmon(a), gamma_el(A, A.mul(a, b))))
    for (a, ga), (b, gb) in itertools.combinations(pool1, 2):
        # delta(a) gamma(b) + gamma(a) delta(b)
        if new(ga + gb - 1):
            push(act(dmon(a), gamma_el(A, frozenset({b})))
                 ^ act(dmon(b), gamma_el(A, frozenset({a}))))
    for a, ga in pool1:
        for (b, gb), (c, gc) in \
                itertools.combinations_with_replacement(pool1, 2):
            # gamma(a) delta(bc) + gamma(ab) delta(c) + gamma(ac) delta(b)
            if new(ga + gb + gc - 1):
                push(act(del_el(A, A.mul(b, c)), gamma_el(A, frozenset({a})))
                     ^ act(dmon(c), gamma_el(A, A.mul(a, b)))
                     ^ act(dmon(b), gamma_el(A, A.mul(a, c))))
    # gamma(1) = v^0, of upper degree 0
    if new(0):
        push(gamma_el(A, frozenset({A.one})) ^ frozenset({v_mon(0)}))
    return out


def _element_bidegree(A: AlgebraPresentation, el: EllElement) -> tuple[int, int]:
    bds = {ell_bidegree(A, m) for m in el}
    if len(bds) != 1:
        raise EllError(f"inhomogeneous element: bidegrees {sorted(bds)}")
    return bds.pop()


# ----- spaces -----

@dataclass
class EllSpace:
    """Reduced basis of one bidegree of an approximation functor."""

    flavor: str
    n: int
    d: int
    cands: tuple[EllMonomial, ...]
    quotient: QuotientBasis

    @property
    def dim(self) -> int:
        return self.quotient.dim

    def basis(self) -> tuple[EllMonomial, ...]:
        return tuple(self.cands[k] for k in self.quotient.positions)

    @cached_property
    def _index(self) -> dict:
        return {m: k for k, m in enumerate(self.cands)}

    def vectorize(self, el: EllElement) -> int:
        index = self._index
        v = 0
        for m in el:
            k = index.get(m)
            if k is None:
                raise EllError(f"monomial {m!r} outside space "
                               f"({self.flavor}, {self.n}, {self.d})")
            v ^= 1 << k
        return v

    def coords(self, el: EllElement) -> int:
        """Basis coordinates of an element, as a bitmask."""
        return self.quotient.coords(self.vectorize(el))

    def reduce(self, el: EllElement) -> EllElement:
        """Canonical representative supported on the basis monomials."""
        mask = self.coords(el)
        basis = self.basis()
        return frozenset(basis[k] for k in range(self.dim) if (mask >> k) & 1)


def _instances(A: AlgebraPresentation, family: str, bound: int):
    """The family's relation instances up to bound, memoised as one list
    that each larger bound extends by the instances above the last one."""
    cache = A.memo("ell")
    key = ("instances", family)
    lo, out = cache.get(key, (float("-inf"), []))
    if bound > lo:
        gen = {"ell": _ell_relation_instances,
               "per": _per_relation_instances,
               "plus": _plus_relation_instances}[family]
        out.extend(gen(A, lo, bound))
        cache[key] = (bound, out)
    return out


def _coefficient_mul(A: AlgebraPresentation, x: EllMonomial,
                     e: EllMonomial) -> EllElement:
    """An ell relation monomial e acting on an ell_plus monomial x."""
    return plus_mon_mul(A, e, x)


def _relation_rows(A: AlgebraPresentation, family: str, cands, n: int,
                   d: int) -> tuple[list[int], list[EllElement]]:
    """Spanning rows: every instance times every complementary multiplier.

    The families "ell", "per" and "plus" are the defining relations of
    those functors times coefficient monomials.  "coefficient" is the ell
    relations acting on ell_plus monomials: the plus functor is a module
    over ell(A), so every relation among the coefficients kills its
    multiples too, and the plus relations alone do not imply these in the
    v sector.  Multipliers of ell and plus rows have non-negative upper
    degree, so instances above d cannot contribute; per and coefficient
    rows bound only n + d (u is invertible, and v^i trades homological for
    upper degree two at a time).

    Returns the distinct nonzero rows as candidate bitmasks, and the row
    elements in the same order.
    """
    instances, bound, multipliers, product = {
        "ell": ("ell", d, ell_monomials, ell_mon_mul),
        "per": ("per", n + d, per_monomials, per_mon_mul),
        "plus": ("plus", d, ell_monomials, plus_mon_mul),
        "coefficient": ("ell", max(d, n + d, 0), plus_monomials,
                        _coefficient_mul),
    }[family]
    total = family in ("per", "coefficient")
    index = {m: k for k, m in enumerate(cands)}
    rows: list[int] = []
    row_els: list[EllElement] = []
    seen = set()
    for el, n0, d0 in _instances(A, instances, bound if A.graded else 0):
        if A.graded and (n0 + d0 > n + d if total else d0 > d):
            continue
        for mult in multipliers(A, n - n0, d - d0):
            row = el_mul(A, frozenset({mult}), el, mul=product)
            if not row:
                continue
            v = 0
            for m in row:
                k = index.get(m)
                if k is None:
                    raise EllError(
                        f"{family} relation row leaves the candidates: {m}")
                v ^= 1 << k
            if v and v not in seen:
                seen.add(v)
                rows.append(v)
                row_els.append(row)
    return rows, row_els


def ell_degree_basis(A: AlgebraPresentation, flavor: str, n: int,
                     d: int) -> EllSpace:
    """Basis of the chosen functor in bidegree (homological n, upper d)."""
    if flavor not in FLAVORS:
        raise EllError(f"unknown flavor {flavor!r}")
    cache = A.memo("ell")
    key = (flavor, n, d)
    if key in cache:
        return cache[key]
    if flavor in ("ell", "ell_tilde", "script_L", "omega_tilde"):
        base = _ell_space_raw(A, n, d)
        if flavor == "ell":
            space = base
        else:
            keep = {
                "ell_tilde": lambda m: not m[4],
                "script_L": lambda m: m[1] == 0,
                "omega_tilde": lambda m: not m[4] and m[1] == 0,
            }[flavor]
            cands = tuple(m for m in base.cands if keep(m))
            pos = {m: k for k, m in enumerate(cands)}
            rows = []
            for r in cache[("rows", n, d)]:
                v = 0
                for m in r:
                    if keep(m):
                        v ^= 1 << pos[m]
                if v:
                    rows.append(v)
            space = EllSpace(flavor, n, d, cands,
                             QuotientBasis.from_relations(len(cands), rows))
    else:
        if flavor == "ell_per":
            cands = tuple(per_monomials(A, n, d))
            rows, _ = _relation_rows(A, "per", cands, n, d)
        else:  # ell_plus
            cands = tuple(plus_monomials(A, n, d))
            rows = (_relation_rows(A, "plus", cands, n, d)[0]
                    + _relation_rows(A, "coefficient", cands, n, d)[0])
        space = EllSpace(flavor, n, d, cands,
                         QuotientBasis.from_relations(len(cands), rows))
    cache[key] = space
    return space


def _ell_space_raw(A: AlgebraPresentation, n: int, d: int) -> EllSpace:
    cache = A.memo("ell")
    key = ("ell", n, d)
    if key in cache:
        return cache[key]
    cands = tuple(ell_monomials(A, n, d))
    rows, cache[("rows", n, d)] = _relation_rows(A, "ell", cands, n, d)
    space = EllSpace("ell", n, d, cands,
                     QuotientBasis.from_relations(len(cands), rows))
    cache[key] = space
    return space


# ----- structural maps -----

def map_r(A: AlgebraPresentation, mon: EllMonomial) -> OmegaElement:
    """r: delta(a) -> da, q(a) -> a da, phi(a) -> a^2, u -> 0."""
    if mon[0] != "e":
        raise EllError("map_r expects an ell monomial")
    _, j, phi, q, dl = mon
    if j > 0:
        return frozenset()
    out: OmegaElement = frozenset({(A.one, ())})
    for m in phi:
        sq = A.normal_form([tuple(2 * e for e in m)])
        out = form_mul(A, out, frozenset((c, ()) for c in sq))
    for m in q:
        dm = frozenset((c, (i,)) for c, i in d_monomial(A, m))
        mdm = form_mul(A, frozenset({(m, ())}), dm)
        out = form_mul(A, out, mdm)
    for m in dl:
        dm = frozenset((c, (i,)) for c, i in d_monomial(A, m))
        out = form_mul(A, out, dm)
    return out


def map_tau(A: AlgebraPresentation, g) -> EllElement:
    """tau: a0 da1 ... dan -> delta(a0) delta(a1) ... delta(an)."""
    m, dgs = g
    out = del_el(A, frozenset({m}))
    for i in dgs:
        out = el_mul(A, out, del_el(A, frozenset({A.gen_monomial(i)})))
    return out


def r_matrix(A: AlgebraPresentation, n: int, d: int):
    """Matrix of r from ell bidegree (n, d) to Omega^n at internal n + d."""
    src = ell_degree_basis(A, "ell", n, d)
    tgt = omega_basis(A, n, n + d)
    cols = [tgt.coords(map_r(A, m)) for m in src.basis()]
    return matrix_from_columns(cols, tgt.dim), src, tgt


def tau_matrix(A: AlgebraPresentation, nform: int, D: int):
    """Matrix of tau from Omega^nform at internal D to ell bidegree
    (nform + 1, D - nform - 1)."""
    src = omega_basis(A, nform, D)
    tgt = ell_degree_basis(A, "ell", nform + 1, D - nform - 1)
    cols = [tgt.coords(map_tau(A, g)) for g in src.basis()]
    return matrix_from_columns(cols, tgt.dim), src, tgt


def mul_u_matrix(A: AlgebraPresentation, flavor: str, n: int, d: int):
    """Multiplication by u from (n, d) to (n - 2, d + 2)."""
    src = ell_degree_basis(A, flavor, n, d)
    tgt = ell_degree_basis(A, flavor, n - 2, d + 2)
    u = ("e", 1, (), (), ())
    mul = {"ell": ell_mon_mul, "ell_per": None,
           "ell_plus": plus_mon_mul}.get(flavor, ell_mon_mul)
    cols = []
    for m in src.basis():
        if flavor == "ell_per":
            img = per_mon_mul(A, ("p", 1, (), ()), m)
        else:
            img = mul(A, u, m)
        cols.append(tgt.coords(img))
    return matrix_from_columns(cols, tgt.dim), src, tgt


def gr_ell(A: AlgebraPresentation, n: int, d: int, imax: int) -> list[int]:
    """Dimensions of u^i ell / u^{i+1} ell arriving in bidegree (n, d)."""
    from .f2linalg import rank_of
    tgt = ell_degree_basis(A, "ell", n, d)
    ranks = []
    for i in range(0, imax + 2):
        src = ell_degree_basis(A, "ell", n + 2 * i, d - 2 * i)
        ui = ("e", i, (), (), ())
        vs = [tgt.coords(ell_mon_mul(A, ui, m)) for m in src.basis()]
        ranks.append(rank_of(vs))
    return [ranks[i] - ranks[i + 1] for i in range(imax + 1)]


def I_matrix(A: AlgebraPresentation, nform: int, D: int):
    """I: Omega^nform at internal D -> ell_plus (nform, D - nform),
    a0 da1 ... dan -> gamma(a0) delta(a1) ... delta(an)."""
    src = omega_basis(A, nform, D)
    tgt = ell_degree_basis(A, "ell_plus", nform, D - nform)
    cols = []
    for m, dgs in src.basis():
        el = gamma_el(A, frozenset({m}))
        for i in dgs:
            el = el_mul(A, del_el(A, frozenset({A.gen_monomial(i)})), el,
                        mul=plus_mon_mul)
        cols.append(tgt.coords(el))
    return matrix_from_columns(cols, tgt.dim), src, tgt


def D_matrix(A: AlgebraPresentation, n: int, d: int):
    """D: ell_plus (n, d) -> Omega^{n+1} at internal n + d,
    gamma(a) -> da and v^i -> 0, extended ell-linearly."""
    src = ell_degree_basis(A, "ell_plus", n, d)
    tgt = omega_basis(A, n + 1, n + d)
    cols = []
    for mon in src.basis():
        if mon[0] == "v":
            cols.append(0)
            continue
        _, phi, q, dl, m = mon
        coeff = map_r(A, ("e", 0, phi, q, dl))
        dm = frozenset((c, (i,)) for c, i in d_monomial(A, m))
        cols.append(tgt.coords(form_mul(A, coeff, dm)))
    return matrix_from_columns(cols, tgt.dim), src, tgt


def iota_matrix(A: AlgebraPresentation, n: int, d: int):
    """iota: ell -> ell_per, killing delta and keeping phi, q, u."""
    src = ell_degree_basis(A, "ell", n, d)
    tgt = ell_degree_basis(A, "ell_per", n, d)
    cols = []
    for mon in src.basis():
        _, j, phi, q, dl = mon
        if dl:
            cols.append(0)
        else:
            cols.append(tgt.coords(frozenset({("p", j, phi, q)})))
    return matrix_from_columns(cols, tgt.dim), src, tgt


def S_matrix(A: AlgebraPresentation, n: int, d: int):
    """S: ell_per (n, d) -> ell_plus (n - 2, d + 2), u^{-i} -> v^{i-1}."""
    src = ell_degree_basis(A, "ell_per", n, d)
    tgt = ell_degree_basis(A, "ell_plus", n - 2, d + 2)
    cols = []
    for mon in src.basis():
        _, j, phi, q = mon
        if j < 0:
            x = ("v", 0, -j - 1, phi, q)
        else:
            # u^j = u^{j+1} u^{-1}: lands on u^{j+1} v^0
            x = ("v", j + 1, 0, phi, q)
        cols.append(tgt.coords(frozenset({x})))
    return matrix_from_columns(cols, tgt.dim), src, tgt


def bd_plus_matrix(A: AlgebraPresentation, n: int, d: int):
    """The connecting model ell_plus (n, d) -> ell (n + 1, d - 1):
    gamma(a) -> delta(a), v^i -> 0, extended ell-linearly."""
    src = ell_degree_basis(A, "ell_plus", n, d)
    tgt = ell_degree_basis(A, "ell", n + 1, d - 1)
    cols = []
    for mon in src.basis():
        if mon[0] == "v":
            cols.append(0)
            continue
        _, phi, q, dl, m = mon
        el = el_mul(A, frozenset({("e", 0, phi, q, dl)}),
                    del_el(A, frozenset({m})))
        cols.append(tgt.coords(el))
    return matrix_from_columns(cols, tgt.dim), src, tgt


def ell_chain_maps(A: AlgebraPresentation, theory: str, n: int, d: int) -> dict:
    """The maps of the modelled exact sequence around bidegree (n, d).

    theory "minus": ... -> ell -(.u)-> ell -(r)-> Omega -(tau)-> ell -> ...
    theory "plus":  ... -> Omega -(I)-> ell+ -(.u)-> ell+ -(D)-> Omega -> ...
    theory "per":   ... -> ell -(iota)-> ell_per -(S)-> ell+ -(bd)-> ell -> ...
    """
    if theory == "minus":
        mu, s_u, _ = mul_u_matrix(A, "ell", n + 2, d - 2)
        mr, s_r, t_r = r_matrix(A, n, d)
        mt, s_t, t_t = tau_matrix(A, n, n + d)
        mu2, _, _ = mul_u_matrix(A, "ell", n + 1, d - 1)
        return {"u": mu, "r": mr, "tau": mt, "u_next": mu2,
                "spaces": {"ell_n2": s_u, "ell_n": s_r, "omega": s_r,
                           "omega_space": t_r, "ell_n1": t_t}}
    if theory == "plus":
        mI, sI, tI = I_matrix(A, n, n + d)
        mu, _, _ = mul_u_matrix(A, "ell_plus", n, d)
        mD, sD, tD = D_matrix(A, n - 2, d + 2)
        mI2, _, _ = I_matrix(A, n - 1, n + d)
        return {"I": mI, "u": mu, "D": mD, "I_next": mI2,
                "spaces": {"omega": sI, "plus_n": tI, "plus_n2": sD,
                           "omega_next": tD}}
    if theory == "per":
        mi, si, ti = iota_matrix(A, n, d)
        mS, _, tS = S_matrix(A, n, d)
        mbd, _, tbd = bd_plus_matrix(A, n - 2, d + 2)
        mi2, _, _ = iota_matrix(A, n - 1, d + 1)
        return {"iota": mi, "S": mS, "bd": mbd, "iota_next": mi2,
                "spaces": {"ell_n": si, "per_n": ti, "plus_n2": tS,
                           "ell_n1": tbd}}
    raise EllError(f"unknown chain theory {theory!r}")


# ----- the deformation model (Omega[u], *) -----

OmegaUElement = frozenset  # frozenset[(j, monomial, dgs)]


def star_product(A: AlgebraPresentation, e1: OmegaUElement,
                 e2: OmegaUElement) -> OmegaUElement:
    """a * b = ab + u da db, extended by (x0 dX)(y0 dY) -> (x0 * y0) dX dY."""
    out: set = set()
    for j1, m1, t1 in e1:
        for j2, m2, t2 in e2:
            if set(t1) & set(t2):
                continue
            t = tuple(sorted(t1 + t2))
            for m in A.mul(m1, m2):
                out.symmetric_difference_update({(j1 + j2, m, t)})
            for c1, i1 in d_monomial(A, m1):
                for c2, i2 in d_monomial(A, m2):
                    if i1 == i2 or i1 in t or i2 in t:
                        continue
                    tt = tuple(sorted(t + (i1, i2)))
                    for m in A.mul(c1, c2):
                        out.symmetric_difference_update({(j1 + j2 + 1, m, tt)})
    return frozenset(out)


def omega_u_gens(A: AlgebraPresentation, n: int, d: int):
    """Basis of Omega[u] in twisted bidegree (n, d): u^j x (quotient basis
    of Omega^{n+2j} at plain internal degree (n+d)/2)."""
    if (n + d) % 2:
        return []
    D = (n + d) // 2
    if D < 0:
        return []
    out = []
    j = max(0, (-n + 1) // 2)  # smallest j with n + 2j >= 0
    while n + 2 * j <= A.ngens:  # Omega^k = 0 above the generator count
        sp = omega_basis(A, n + 2 * j, D)
        out.extend((j, g[0], g[1]) for g in sp.basis())
        j += 1
    return out


def f_bar(A: AlgebraPresentation, mon: EllMonomial) -> OmegaUElement:
    """f: phi(x) -> x, q(x) -> dx, u -> u, landing in (Omega[u], *)."""
    if mon[0] == "e":
        _, j, phi, q, dl = mon
        if dl:
            raise EllError("f_bar is defined on the delta-free quotient")
    elif mon[0] == "p":
        _, j, phi, q = mon
    else:
        raise EllError("f_bar expects an ell_tilde or per monomial")
    out: OmegaUElement = frozenset({(j, A.one, ())})
    for m in phi:
        out = star_product(A, out, frozenset({(0, m, ())}))
    for m in q:
        dm = frozenset((0, c, (i,)) for c, i in d_monomial(A, m))
        out = star_product(A, out, dm)
    return out


def s_bar(A: AlgebraPresentation, g) -> EllMonomial:
    """The section s(x0 dx_1...dx_n) = phi(x0) q(x_1)...q(x_n), times u^j."""
    j, m, dgs = g
    phi = () if m == A.one else (m,)
    q = _sorted(A, (A.gen_monomial(i) for i in dgs))
    return ("e", j, phi, q, ())


def omega_u_reduce(A: AlgebraPresentation, el: OmegaUElement) -> dict:
    """Coordinates of an Omega[u] element: per u-power, reduced in Omega."""
    by_j: dict[int, set] = {}
    for j, m, t in el:
        by_j.setdefault(j, set()).symmetric_difference_update({(m, t)})
    out = {}
    for j, forms in by_j.items():
        degs = {len(t) for _, t in forms}
        if len(degs) != 1:
            raise EllError("inhomogeneous form part")
        nf = degs.pop()
        D = {A.mono_degree(m) + sum(A.degrees[i] for i in t)
             for m, t in forms}
        sp = omega_basis(A, nf, D.pop())
        mask = sp.coords(frozenset(forms))
        if mask:
            out[j] = (sp, mask)
    return out
