"""The approximation functors built from generators and relations.

Monomials are tuples over reduced basis monomials of the input algebra:

  ell   ("e", j, phi, q, dl)     u^j . prod phi(m) . prod q(m) . prod dl(m)
  per   ("e", j, phi, q, ())     the delta-free ell monomials, j of either sign
  plus  ("g", 0, phi, q, dl, m)  an ell part times gamma(m)
        ("v", j, phi, q, ())     a per monomial relabelled: u^j v^0 for j > 0
                                 and v^{-j} for j <= 0 (u v^i = v^{i-1})

so mon[1:5] is always the ell part, and mon[5:] the gamma argument.  One
product, mon_mul, multiplies within ell and ell_per and lets ell act on
ell_plus from either side.

All three part tuples are kept squarefree: delta(a)^2 = 0 and q(a)^2 = 0 are
relations, and a repeated phi factor is rewritten on the spot through
phi(a)^2 = phi(a^2) + u q(a)^2 = phi(a^2).  Additivity moves every generator
argument to basis monomials, with q picking up the delta(ab) correction term.
A space in one bidegree is the span of these candidate monomials modulo all
relation instances with basis-monomial arguments times all complementary
monomials; the basis is the complement of the relation span under the
deterministic pivot rule.  The instances come from one table of the
defining relations of ell and ell_plus; each relation's instances of one
key degree (their upper degree) are built on the first read of a space
that they can reach, and the ell_per instances are the iota images of the
ell ones.  The flavors that keep only some ell candidates project the ell
relation span onto them.

The structural maps of the three modelled exact sequences (u, r, tau; I, u,
D; iota, S, bd) form one table, MODELS; a map is its source and target space
plus an element-level map, and model_matrix turns it into a matrix.  Each
commuting square of approx.SQUARES names its model map here.

Bidegrees here are (homological, upper): |delta(a)| = |a|-1, |phi(a)| = 2|a|,
|q(a)| = 2|a|-1, |u| = 2, |gamma(a)| = |a|, |v^i| = -2i, and homological
degrees 1, 0, 1, -2, 0, 2i respectively.
"""

from __future__ import annotations

import itertools

from .derham import (
    OmegaElement,
    d_monomial,
    de_rham_d,
    form_mul,
    omega_basis,
)
from .f2linalg import F2Matrix, PresentedSpace, QuotientBasis, rank_of
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


def _merge(A: AlgebraPresentation, x: tuple, y: tuple) -> tuple:
    """Two parts, each in mono_key order, as one."""
    return _sorted(A, x + y) if x and y else x or y


def mon_mul(A: AlgebraPresentation, a: EllMonomial,
            b: EllMonomial) -> EllElement:
    """Product of two ell or two ell_per monomials, or of an ell monomial
    and an ell_plus one in either order, in canonical form.  The product
    takes the kind and the gamma argument of the factor that is not "e".

    b's phi parts fold into a's; the rewriting phi(m)^2 -> phi(m^2) has
    only square leading terms, so it is confluent and the side does not
    matter."""
    kind, ja, pa, qa, da = a[:5]
    kb, jb, pb, qb, db = b[:5]
    tail = a[5:]
    if kind == "e":
        kind, tail = kb, b[5:]
    j = ja + jb
    if (da or db) and (j > 0 or kind == "v") or j > 0 and kind == "g":
        return ZERO_ELL  # u delta(a) = 0 = delta(a) v^i, u gamma(a) = 0
    if qa and qb and set(qa) & set(qb) or da and db and set(da) & set(db):
        return ZERO_ELL
    q, dl = _merge(A, qa, qb), _merge(A, da, db)
    return frozenset((kind, j, t, q, dl) + tail for t in _phi_fold(A, pa, pb))


def el_mul(A: AlgebraPresentation, e1: EllElement,
           e2: EllElement) -> EllElement:
    out: set = set()
    for a in e1:
        for b in e2:
            out.symmetric_difference_update(mon_mul(A, a, b))
    return frozenset(out)


# ----- generator evaluation on arbitrary algebra elements -----

def phi_el(A: AlgebraPresentation, p: Poly) -> EllElement:
    out: set = set()
    for m in p:
        out.symmetric_difference_update(
            {("e", 0, () if m == A.one else (m,), (), ())})
    return frozenset(out)


def del_el(A: AlgebraPresentation, p: Poly) -> EllElement:
    out: set = set()
    for m in p:
        if m == A.one:
            continue  # delta(1) = 0
        out.symmetric_difference_update({("e", 0, (), (), (m,))})
    return frozenset(out)


def q_el(A: AlgebraPresentation, p: Poly) -> EllElement:
    """q on a sum of monomials, with the delta(m m') cross terms."""
    out: set = set()
    for m in p:
        if m == A.one:
            continue  # q(1) = 0
        out.symmetric_difference_update({("e", 0, (), (m,), ())})
    ms = _sorted(A, p)
    for i in range(len(ms)):
        for k in range(i + 1, len(ms)):
            out.symmetric_difference_update(del_el(A, A.mul(ms[i], ms[k])))
    return frozenset(out)


def gamma_el(A: AlgebraPresentation, p: Poly) -> EllElement:
    out: set = set()
    for m in p:
        out.symmetric_difference_update({("g", 0, (), (), (), m)})
    return frozenset(out)


def v_mon(i: int) -> EllMonomial:
    return ("v", -i, (), (), ())


# ----- gradings -----

def ell_bidegree(A: AlgebraPresentation, mon: EllMonomial) -> tuple[int, int]:
    """(homological, upper) bidegree of a monomial of any flavor."""
    _, j, phi, q, dl = mon[:5]
    deg = A.mono_degree
    return (-2 * j + len(q) + len(dl),
            2 * j + sum(2 * deg(m) for m in phi)
            + sum(2 * deg(m) - 1 for m in q) + sum(deg(m) - 1 for m in dl)
            + sum(deg(m) for m in mon[5:]))


# ----- candidate enumeration -----

def _arg_pool(A: AlgebraPresentation,
              max_deg: int) -> list[tuple[Monomial, int]]:
    """Basis monomials usable as generator arguments (unit excluded), each
    with its degree, in mono_key order: a pool is a prefix of every pool
    with a larger max_deg.  Memoised per max_deg."""
    pools = A.memo("ell_pool")
    if max_deg not in pools:
        pools[max_deg] = (
            [(m, g) for g in range(1, max_deg + 1) for m in A.degree_basis(g)]
            if A.graded else [(m, 0) for m in A.basis_all() if m != A.one])
    return pools[max_deg]


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


def _candidates(A: AlgebraPresentation, flavor: str, n: int, d: int,
                build) -> list[EllMonomial]:
    """The candidates build() of one flavor in bidegree (n, d), memoised
    and canonically sorted."""
    if not A.graded and d != -n:
        return []
    cache = A.memo("ell_mono")
    key = (flavor, n, d)
    out = cache.get(key)
    if out is None:
        out = cache[key] = sorted(build(),
                                  key=lambda mon: _mon_sort_key(A, mon))
    return out


def ell_monomials(A: AlgebraPresentation, n: int, d: int) -> list[EllMonomial]:
    """Candidate ell monomials of bidegree (n, d), canonically sorted."""
    return _candidates(A, "ell", n, d, lambda: [
        ("e", j) + part for j, part in _u_parts(A, n, d, False)])


def per_monomials(A: AlgebraPresentation, n: int, d: int) -> list[EllMonomial]:
    """Candidate ell_per monomials, memoised apart from the ell ones: u^j,
    j of either sign, times the delta-free parts."""
    return _candidates(A, "ell_per", n, d, lambda: [
        ("e", j) + part for j, part in _u_parts(A, n, d, True)])


def plus_monomials(A: AlgebraPresentation, n: int, d: int) -> list[EllMonomial]:
    """gamma(m) times the u-free ell parts at (n, d - |m|), and the per
    candidates with u^{-i} read as v^i."""
    return _candidates(A, "ell_plus", n, d, lambda: [
        ("g", 0, phi, q, dl, m)
        for m, g in [(A.one, 0)] + _arg_pool(A, d if A.graded else 0)
        for phi, q, dl in _part_choices(A, n, d - g)] + [
        ("v",) + m[1:] for m in per_monomials(A, n, d)])


def _mon_sort_key(A: AlgebraPresentation, mon: EllMonomial):
    key = A.mono_key
    kind, j, phi, q, dl = mon[:5]
    if kind == "v":
        return (2, max(j, 0), tuple(map(key, phi)), tuple(map(key, q)), (),
                max(-j, 0), ())
    return (1 if kind == "g" else 0, j, tuple(map(key, phi)),
            tuple(map(key, q)), tuple(map(key, dl)), 0,
            key(mon[5]) if kind == "g" else ())


# ----- relation instances -----
#
# Each defining relation once: its argument groups, the constant of its key
# degree, its homological degree n0, and a builder.  A group (count, weight)
# is a multiset of count basis-monomial arguments (the unit included), so a
# symmetric relation is built once per multiset.  The key degree, weight *
# |arg| summed over the arguments plus the constant, is the instance's upper
# degree d0.

_RELATIONS = {
    "ell": (
        # phi(ab) + phi(a)phi(b) + u q(a)q(b)
        (((2, 2),), 0, 0, lambda A, a, b: phi_el(A, A.mul(a, b))
         ^ el_mul(A, phi_el(A, (a,)), phi_el(A, (b,)))
         ^ el_mul(A, frozenset({("e", 1, (), (), ())}),
                  el_mul(A, q_el(A, (a,)), q_el(A, (b,))))),
        # q(ab) + q(a)phi(b) + phi(a)q(b)
        (((2, 2),), -1, 1, lambda A, a, b: q_el(A, A.mul(a, b))
         ^ el_mul(A, q_el(A, (a,)), phi_el(A, (b,)))
         ^ el_mul(A, phi_el(A, (a,)), q_el(A, (b,)))),
        # delta(ab)delta(c) + delta(bc)delta(a) + delta(ca)delta(b)
        (((3, 1),), -2, 2, lambda A, a, b, c:
         el_mul(A, del_el(A, A.mul(a, b)), del_el(A, (c,)))
         ^ el_mul(A, del_el(A, A.mul(b, c)), del_el(A, (a,)))
         ^ el_mul(A, del_el(A, A.mul(c, a)), del_el(A, (b,)))),
        # delta(a)phi(b) + delta(a b^2)
        (((1, 1), (1, 2)), -1, 1, lambda A, a, b:
         el_mul(A, del_el(A, (a,)), phi_el(A, (b,)))
         ^ del_el(A, A.mul_elements((a,), A.mul(b, b)))),
        # delta(a)q(b) + delta(ab)delta(b)
        (((1, 1), (1, 2)), -2, 2, lambda A, a, b:
         el_mul(A, del_el(A, (a,)), q_el(A, (b,)))
         ^ el_mul(A, del_el(A, A.mul(a, b)), del_el(A, (b,)))),
    ),
    "plus": (
        # phi(a)gamma(b) + gamma(a^2 b)
        (((1, 2), (1, 1)), 0, 0, lambda A, a, b:
         el_mul(A, phi_el(A, (a,)), gamma_el(A, (b,)))
         ^ gamma_el(A, A.mul_elements(A.mul(a, a), (b,)))),
        # q(a)gamma(b) + delta(a)gamma(ab)
        (((1, 2), (1, 1)), -1, 1, lambda A, a, b:
         el_mul(A, q_el(A, (a,)), gamma_el(A, (b,)))
         ^ el_mul(A, del_el(A, (a,)), gamma_el(A, A.mul(a, b)))),
        # delta(a)gamma(b) + gamma(a)delta(b)
        (((2, 1),), -1, 1, lambda A, a, b:
         el_mul(A, del_el(A, (a,)), gamma_el(A, (b,)))
         ^ el_mul(A, del_el(A, (b,)), gamma_el(A, (a,)))),
        # gamma(a)delta(bc) + gamma(ab)delta(c) + gamma(ac)delta(b)
        (((1, 1), (2, 1)), -1, 1, lambda A, a, b, c:
         el_mul(A, del_el(A, A.mul(b, c)), gamma_el(A, (a,)))
         ^ el_mul(A, del_el(A, (c,)), gamma_el(A, A.mul(a, b)))
         ^ el_mul(A, del_el(A, (b,)), gamma_el(A, A.mul(a, c)))),
        # gamma(1) + v^0
        ((), 0, 0, lambda A: gamma_el(A, (A.one,)) ^ frozenset({v_mon(0)})),
    ),
}
# The per relations are the iota images of the first two ell ones; iota
# kills the delta relations after them.
_RELATIONS["per"] = _RELATIONS["ell"][:2]


def _multisets(A: AlgebraPresentation, count: int, s: int, lo: int = 0):
    """Multisets of count basis monomials of total degree s, none of degree
    below lo, each once and in mono_key order."""
    if count == 0:
        if s == 0:
            yield ()
        return
    for g in range(lo, s // count + 1):
        for k in range(1, count + 1):  # k arguments of the lowest degree g
            for rest in _multisets(A, count - k, s - k * g, g + 1):
                for head in itertools.combinations_with_replacement(
                        A.degree_basis(g), k):
                    yield head + rest


def _arguments(A: AlgebraPresentation, groups, t: int):
    """The argument tuples of the groups whose weighted degree is t.

    Ungraded algebras have all their basis in degree_basis(0), so only
    t = 0 yields there."""
    if not groups:
        if t == 0:
            yield ()
        return
    (count, weight), rest = groups[0], groups[1:]
    for s in range(t // weight + 1):
        for tail in _arguments(A, rest, t - weight * s):
            for head in _multisets(A, count, s):
                yield head + tail


def _iota(el: EllElement) -> EllElement:
    """iota: ell -> ell_per, deleting the monomials with a delta part."""
    return frozenset(m for m in el if not m[4])


def _instances(A: AlgebraPresentation, family: str, t: int,
               top: float) -> list[tuple[EllElement, int, int]]:
    """The nonzero instances (element, n0, d0) with key degree t of the
    family's relations with n0 <= top, in table order.  The instances of
    one relation are built on first read, memoised per (family, r, t)."""
    cache = A.memo("ell_instances")
    out: list = []
    for r, (_, _, n0, _) in enumerate(_RELATIONS[family]):
        if n0 <= top:
            key = (family, r, t)
            out += cache[key] if key in cache else _build(A, family, r, t)
    return out


def _build(A: AlgebraPresentation, family: str, r: int,
           t: int) -> list[tuple[EllElement, int, int]]:
    """Build and memoise the instances of relation r with key degree t;
    the per ones are the iota images of the ell ones (q is additive once
    delta is gone)."""
    cache = A.memo("ell_instances")
    if family == "per":
        key = ("ell", r, t)
        ells = cache[key] if key in cache else _build(A, "ell", r, t)
        els = (_iota(el) for el, _, _ in ells)
    else:
        groups, const, _, build = _RELATIONS[family][r]
        els = (build(A, *args) for args in _arguments(A, groups, t - const))
    out = cache[(family, r, t)] = [(el, *_element_bidegree(A, el))
                                   for el in els if el]
    return out


def _element_bidegree(A: AlgebraPresentation, el: EllElement) -> tuple[int, int]:
    bds = {ell_bidegree(A, m) for m in el}
    if len(bds) != 1:
        raise EllError(f"inhomogeneous element: bidegrees {sorted(bds)}")
    return bds.pop()


# ----- spaces -----

def _relation_rows(A: AlgebraPresentation, family: str, cands, n: int,
                   d: int) -> list[int]:
    """Spanning rows: every instance times every complementary multiplier.

    The families "ell", "per" and "plus" are the defining relations of
    those functors times coefficient monomials.  "coefficient" is the ell
    relations acting on ell_plus monomials: the plus functor is a module
    over ell(A), so every relation among the coefficients kills its
    multiples too, and the plus relations alone do not imply these in the
    v sector.  Only instances that some multiplier reaches are built and
    read, and an empty space reads none.  In graded mode every monomial of
    every flavor has internal degree n + d = 2 sum |phi| + 2 sum |q| +
    sum |dl| (+ |m| for gamma(m)) >= 0, and products add bidegrees, so an
    instance (n0, d0) with n0 + d0 > n + d has no multiplier: a relation
    whose n0 exceeds n + d - t is skipped at key degree t, and as n0 >= 0,
    the key degree d0 read is at most n + d.  Multipliers of ell and plus
    rows also have upper degree >= 0, which bounds d0 by d; per and
    coefficient ones do not (u is invertible, and v^i trades homological
    for upper degree).  Ungraded keys all lie in [-2, 0], and every
    ungraded instance is read.

    Returns the distinct nonzero rows as candidate bitmasks.
    """
    if not cands:
        return []
    instances, total, multipliers = {
        "ell": ("ell", False, ell_monomials),
        "per": ("per", True, per_monomials),
        "plus": ("plus", False, ell_monomials),
        "coefficient": ("ell", True, plus_monomials),
    }[family]
    bound = (n + d if total else min(d, n + d)) if A.graded else 0
    room = n + d if A.graded else float("inf")
    index = {m: k for k, m in enumerate(cands)}
    mults: dict[tuple[int, int], list[EllMonomial]] = {}
    rows: list[int] = []
    seen = set()
    for t in range(-2, bound + 1):
        for el, n0, d0 in _instances(A, instances, t, room - t):
            ms = mults.get((n0, d0))
            if ms is None:
                ms = mults[(n0, d0)] = multipliers(A, n - n0, d - d0)
            for mult in ms:
                v = 0
                for m in el_mul(A, frozenset({mult}), el):
                    k = index.get(m)
                    if k is None:
                        raise EllError(f"{family} relation row leaves "
                                       f"the candidates: {m}")
                    v ^= 1 << k
                if v and v not in seen:
                    seen.add(v)
                    rows.append(v)
    return rows


# The flavors that keep only some ell candidates; their relations are the
# ell relation span projected onto the kept candidates.
_RESTRICTED = {
    "ell_tilde": lambda m: not m[4],
    "script_L": lambda m: m[1] == 0,
    "omega_tilde": lambda m: not m[4] and m[1] == 0,
}


def _project(v: int, keep: list[int]) -> int:
    """The bits of v at the positions keep, moved to positions 0, 1, ..."""
    return sum(((v >> k) & 1) << i for i, k in enumerate(keep))


def ell_degree_basis(A: AlgebraPresentation, flavor: str, n: int,
                     d: int) -> PresentedSpace:
    """Basis of the chosen functor in bidegree (homological n, upper d)."""
    if flavor not in FLAVORS:
        raise EllError(f"unknown flavor {flavor!r}")
    cache = A.memo("ell")
    key = (flavor, n, d)
    if key in cache:
        return cache[key]
    if flavor in _RESTRICTED:
        base = ell_degree_basis(A, "ell", n, d)
        keep = [k for k, m in enumerate(base.cands) if _RESTRICTED[flavor](m)]
        cands = tuple(base.cands[k] for k in keep)
        rows = [_project(v, keep) for v in base.quotient.relations.vectors]
    elif flavor == "ell":
        cands = tuple(ell_monomials(A, n, d))
        rows = _relation_rows(A, "ell", cands, n, d)
    elif flavor == "ell_per":
        cands = tuple(per_monomials(A, n, d))
        rows = _relation_rows(A, "per", cands, n, d)
    else:  # ell_plus
        cands = tuple(plus_monomials(A, n, d))
        rows = (_relation_rows(A, "plus", cands, n, d)
                + _relation_rows(A, "coefficient", cands, n, d))
    space = PresentedSpace(flavor, n, d, cands,
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
        sq = A.mul(m, m)
        out = form_mul(A, out, frozenset((c, ()) for c in sq))
    for m in q + dl:  # the da of q(a) and of delta(a)
        out = form_mul(A, out, de_rham_d(A, frozenset({(m, ())})))
    for m in q:
        out = form_mul(A, out, frozenset({(m, ())}))
    return out


def map_tau(A: AlgebraPresentation, g) -> EllElement:
    """tau: a0 da1 ... dan -> delta(a0) delta(a1) ... delta(an)."""
    m, dgs = g
    out = del_el(A, frozenset({m}))
    for i in dgs:
        out = el_mul(A, out, del_el(A, frozenset({A.gen_monomial(i)})))
    return out


_U: EllMonomial = ("e", 1, (), (), ())


def map_u(A: AlgebraPresentation, mon: EllMonomial) -> EllElement:
    """Multiplication by u, on ell and on the ell_plus module."""
    return mon_mul(A, _U, mon)


def map_I(A: AlgebraPresentation, g) -> EllElement:
    """I: a0 da1 ... dan -> gamma(a0) delta(a1) ... delta(an)."""
    m, dgs = g
    el = gamma_el(A, frozenset({m}))
    for i in dgs:
        el = el_mul(A, del_el(A, frozenset({A.gen_monomial(i)})), el)
    return el


def map_D(A: AlgebraPresentation, mon: EllMonomial) -> OmegaElement:
    """D: gamma(a) -> da and v^i -> 0, extended ell-linearly."""
    if mon[0] == "v":
        return frozenset()
    return form_mul(A, map_r(A, ("e",) + mon[1:5]),
                    de_rham_d(A, frozenset({(mon[5], ())})))


def map_iota(A: AlgebraPresentation, mon: EllMonomial) -> EllElement:
    """iota: ell -> ell_per, killing delta and keeping phi, q, u."""
    return _iota(frozenset({mon}))


def map_S(A: AlgebraPresentation, mon: EllMonomial) -> EllElement:
    """S: ell_per -> ell_plus, u^{-i} -> v^{i-1} and u^j = u^{j+1} u^{-1}
    -> u^{j+1} v^0: the exponent goes up by one."""
    return frozenset({("v", mon[1] + 1) + mon[2:]})


def map_bd(A: AlgebraPresentation, mon: EllMonomial) -> EllElement:
    """The connecting model ell_plus -> ell: gamma(a) -> delta(a) and
    v^i -> 0, extended ell-linearly."""
    if mon[0] == "v":
        return ZERO_ELL
    return el_mul(A, frozenset({("e",) + mon[1:5]}),
                  del_el(A, frozenset({mon[5]})))


# The modelled exact sequences, one row for each of the minus, Connes and
# periodic sequences, its three maps in their order there:
#   minus: ... -> ell -(.u)-> ell -(r)-> Omega -(tau)-> ell -> ...
#   plus:  ... -> Omega -(I)-> ell+ -(.u)-> ell+ -(D)-> Omega -> ...
#   per:   ... -> ell -(iota)-> ell_per -(S)-> ell+ -(bd)-> ell -> ...
# Each map is (source, target, element map); a space (flavor, k) around
# bidegree (n, d) sits in homological degree n + k at internal degree n + d,
# where the flavor "omega" is Omega^{n+k}.  The first map again around
# (n - 1, d + 1) follows the third.
MODELS = {
    "minus": {"u": (("ell", 2), ("ell", 0), map_u),
              "r": (("ell", 0), ("omega", 0), map_r),
              "tau": (("omega", 0), ("ell", 1), map_tau)},
    "plus": {"I": (("omega", 0), ("ell_plus", 0), map_I),
             "u": (("ell_plus", 0), ("ell_plus", -2), map_u),
             "D": (("ell_plus", -2), ("omega", -1), map_D)},
    "per": {"iota": (("ell", 0), ("ell_per", 0), map_iota),
            "S": (("ell_per", 0), ("ell_plus", -2), map_S),
            "bd": (("ell_plus", -2), ("ell", -1), map_bd)},
}


def model_space(A: AlgebraPresentation, space: tuple, n: int, d: int):
    """The space (flavor, k) of a model map around bidegree (n, d)."""
    flavor, k = space
    if flavor == "omega":
        return omega_basis(A, n + k, n + d)
    return ell_degree_basis(A, flavor, n + k, d - k)


def model_matrix(A: AlgebraPresentation, entry: tuple, n: int, d: int):
    """(matrix, source, target) of a model map (source, target, element
    map) around bidegree (n, d)."""
    src_space, tgt_space, f = entry
    src = model_space(A, src_space, n, d)
    tgt = model_space(A, tgt_space, n, d)
    cols = [tgt.coords(f(A, g)) for g in src.basis()]
    return F2Matrix(tgt.dim, tuple(cols)), src, tgt


def gr_ell(A: AlgebraPresentation, n: int, d: int, imax: int) -> list[int]:
    """Dimensions of u^i ell / u^{i+1} ell arriving in bidegree (n, d)."""
    tgt = ell_degree_basis(A, "ell", n, d)
    ranks = []
    for i in range(0, imax + 2):
        src = ell_degree_basis(A, "ell", n + 2 * i, d - 2 * i)
        ui = ("e", i, (), (), ())
        vs = [tgt.coords(mon_mul(A, ui, m)) for m in src.basis()]
        ranks.append(rank_of(vs))
    return [ranks[i] - ranks[i + 1] for i in range(imax + 1)]


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
    if mon[0] != "e":
        raise EllError("f_bar expects an ell_tilde or per monomial")
    _, j, phi, q, dl = mon
    if dl:
        raise EllError("f_bar is defined on the delta-free quotient")
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
