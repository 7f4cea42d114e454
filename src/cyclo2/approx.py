"""The natural maps from the approximation functors to cyclic homology.

psi sends delta(a) to 1 (x) 1[a], q(a) to 1 (x) a[a], phi(a) to
1 (x) a^2[] + u (x) 1[a|a] and u to u (x) 1[]; an ell monomial is evaluated
by multiplying these chains with the chain-level product and projecting to
homology-class coordinates, so multiplicativity stays a theorem to check,
never an assumption.  The plus and per variants add gamma(a) -> a[],
v^i -> u^{-i} (x) 1[] and u^{-1} -> u^{-1} (x) 1[].

Isomorphism verdicts are per bidegree: source and target dimensions plus
the rank of the class matrix.  Non-smooth ungraded inputs whose towers do
not stabilize are still reported: a bidegree is called non-iso when the
classes that persist one truncation window deeper already outrun the image
of psi, and inconclusive otherwise.

The commuting squares come from one table, SQUARES: each row names its map
of a long exact sequence (cyclic.les_map) and its model map (an entry of
ell.MODELS), and the vertical maps at both corners are read at the depth of
the LES space there.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from .cyclic import (
    HomologyPresentation,
    Truncation,
    _shape_key,
    bidegree_window,
    build_tower,
    homology,
    les_map,
    slice_differential,
    theory_key,
    truncation,
    vectorize,
)
from .derham import antisymmetrize, omega_basis
from .ell import (
    MODELS,
    EllElement,
    ell_bidegree,
    ell_degree_basis,
    model_matrix,
    model_space,
    mon_mul,
    u_orbit_shift,
)
from .f2linalg import F2Matrix, rank_of
from .gralg import AlgebraPresentation
from .hochschild import UChain, mu_chain

# the approximation functor of each tower, keyed by cyclic.theory_key
THEORY_FLAVOR = {"minus": "ell", "plus": "ell_plus", "per": "ell_per"}
# the candidate count up to which psi is certified on every relation row
CERTIFY_LIMIT = 40


class ApproxError(Exception):
    pass


def _word(A, head, bars=()) -> frozenset:
    return frozenset({(head, tuple(bars))})


def _is_cycle(A: AlgebraPresentation, x: UChain) -> bool:
    """Whether the nonzero homogeneous u-chain x is a cycle, read in the
    slice of its theory at its own (n, d), at depth (largest u-exponent)
    + 1, and at least 1: one column deeper than x reaches, so B of its
    deepest column is not cut."""
    i, c = x.entries[-1]
    head, bars = next(iter(c))
    n, d = len(bars) - 2 * i, sum(map(A.mono_degree, (head,) + bars))
    src, tgt = (build_tower(A, x.theory, m, d, max(i + 1, 1))
                for m in (n, n - 1))
    return not slice_differential(A, src, tgt, vectorize(A, src, x))


def psi_generator_image(A: AlgebraPresentation, gen: tuple) -> UChain:
    """The chain representing a single generator, checked to be a cycle;
    memoised."""
    table = A.memo("psi_generator")
    if gen in table:
        return table[gen]
    kind = gen[0]
    one = A.one
    if kind == "delta":
        x = UChain.make("minus", {0: _word(A, one, (gen[1],))})
    elif kind == "q":
        x = UChain.make("minus", {0: _word(A, gen[1], (gen[1],))})
    elif kind == "phi":
        m = gen[1]
        sq = A.mul(m, m)
        entries = {0: frozenset((h, ()) for h in sq),
                   1: _word(A, one, (m, m))}
        x = UChain.make("minus", entries)
    elif kind == "gamma":
        x = UChain.make("plus", {0: _word(A, gen[1])})
    elif kind == "v":
        x = UChain.make("plus", {-gen[1]: _word(A, one)})
    else:
        raise ApproxError(f"unknown generator {gen!r}")
    if not _is_cycle(A, x):
        raise ApproxError(f"generator image of {gen!r} is not a cycle")
    table[gen] = x
    return x


def chain_of_monomial(A: AlgebraPresentation, mon: tuple) -> UChain:
    """Evaluate psi on one reduced monomial by folding chain products."""
    cache = A.memo("psi_chain")
    if mon in cache:
        return cache[mon]
    kind, j = mon[:2]
    if kind == "e" and j:
        # the u^0 chain moved by j; only ell_per has u^{-1}
        x = chain_of_monomial(A, ("e", 0) + mon[2:])
        x = UChain.make("minus" if j > 0 else "per",
                        {i + j: c for i, c in x.entries})
    elif kind == "e":
        # peel the last factor off: phi first, then q, then delta
        for k, gen in ((2, "phi"), (3, "q"), (4, "delta")):
            if mon[k]:
                sub = mon[:k] + (mon[k][:-1],) + mon[k + 1:]
                x = mu_chain(A, chain_of_monomial(A, sub),
                             psi_generator_image(A, (gen, mon[k][-1])))
                break
        else:
            x = UChain.make("minus", {0: _word(A, A.one)})
    elif kind == "g":
        coeff = chain_of_monomial(A, ("e",) + mon[1:5])
        x = mu_chain(A, coeff, psi_generator_image(A, ("gamma", mon[5])))
    elif kind == "v":
        # u^j v^0 for j > 0, else v^{-j}
        coeff = chain_of_monomial(A, ("e", max(j, 0)) + mon[2:])
        x = mu_chain(A, coeff, psi_generator_image(A, ("v", max(-j, 0))))
    else:
        raise ApproxError(f"unknown monomial kind {kind!r}")
    cache[mon] = x
    return x


def psi_class(A: AlgebraPresentation, el: EllElement,
              H: HomologyPresentation) -> int:
    """Homology-class coordinates (a bitmask) of psi on a reduced element."""
    v = 0
    for mon in el:
        x = chain_of_monomial(A, mon)
        v ^= vectorize(A, H.slice, x)
    return H.coords(v)


def psi_matrix(A: AlgebraPresentation, theory: str, n: int, D: int,
               S: int = 3, certify: bool = False):
    """Class matrix of the approximation map at chain bidegree (n, D).

    With certify=True every relation-spanning row of the source is pushed
    through psi and asserted to vanish in homology, certifying that the map
    is well defined on the quotient.  H is the homology at depth S only.

    A source u^k times its representative (u_orbit_shift) takes that
    one's matrix where the records' d_n and d_{n+1} have equal shapes:
    psi(u^k m) is psi(m) moved by k, on the same slice coordinates.
    """
    t = theory_key(theory)
    cache = A.memo("psi_matrix")
    key = (t, n, D, 0 if A.graded else S)
    cached = cache.get(key)
    if cached is not None and (cached[3] or not certify):
        return cached[0], cached[1], cached[2]
    sp = ell_degree_basis(A, THEORY_FLAVOR[t], n, D - n)
    H = homology(A, t, n, D, S)
    k = u_orbit_shift(sp.kind, n)
    if k and all(_shape_key(A, t, n + i, D, S)
                 == _shape_key(A, t, n + 2 * k + i, D, S) for i in (0, 1)):
        mat = psi_matrix(A, t, n + 2 * k, D, S, certify)[0]
    else:
        cols = [psi_class(A, frozenset({mon}), H) for mon in sp.basis()]
        mat = F2Matrix(H.dim, tuple(cols))
        if certify:
            for rel in sp.quotient.relations.vectors:
                el = frozenset(sp.cands[i] for i in range(len(sp.cands))
                               if (rel >> i) & 1)
                if psi_class(A, el, H):
                    raise ApproxError(
                        f"psi not well defined at ({n}, {D}): relation row "
                        "has a nonzero class")
    cache[key] = (mat, sp, H, certify)
    return mat, sp, H


@dataclass
class BidegreeVerdict:
    n: int
    D: int
    d_upper: int
    dim_source: int
    dim_target: int
    rank: int
    verdict: str  # "iso" | "not_iso" | "inconclusive"
    flag: str
    note: str = ""

    def to_dict(self) -> dict:
        return {"n": self.n, "internal": self.D, "upper": self.d_upper,
                "dim_source": self.dim_source, "dim_target": self.dim_target,
                "rank": self.rank, "verdict": self.verdict, "flag": self.flag,
                "note": self.note}


@dataclass
class ApproxReport:
    algebra: str
    theory: str
    max_homological: int
    max_internal: int
    S: int
    entries: list[BidegreeVerdict] = field(default_factory=list)
    squares: list[dict] = field(default_factory=list)
    product_checks: int = 0
    product_failures: int = 0
    certified: list[tuple[int, int]] = field(default_factory=list)
    elapsed: float = 0.0

    def all_iso(self) -> bool:
        return all(e.verdict == "iso" for e in self.entries)

    def to_dict(self) -> dict:
        return {
            "algebra": self.algebra,
            "theory": self.theory,
            "max_homological": self.max_homological,
            "max_internal": self.max_internal,
            "S": self.S,
            "entries": [e.to_dict() for e in self.entries],
            "squares": self.squares,
            "product_checks": self.product_checks,
            "product_failures": self.product_failures,
            "certified": [list(c) for c in self.certified],
            "elapsed_sec": round(self.elapsed, 3),
        }


def _verdict(sp_dim: int, H: HomologyPresentation, trunc: Truncation,
             rank: int) -> tuple[str, str]:
    if trunc.flag == "stable":
        if sp_dim == H.dim == rank:
            return "iso", ""
        return "not_iso", "stable dimensions differ or rank deficient"
    # truncation-limited: only persistent evidence is trusted
    p = trunc.persistent
    if sp_dim < p:
        return "not_iso", ("source dimension below persistent class rank "
                           f"({sp_dim} < {p})")
    return "inconclusive", "truncation-limited window"


def verify_approximation(A: AlgebraPresentation, theory: str,
                         max_homological: int, max_internal: int,
                         S: int = 3, seed: int = 0,
                         product_samples: int = 25) -> ApproxReport:
    """Per-bidegree isomorphism verdicts plus multiplicativity samples."""
    if theory not in ("hcminus", "hc", "hcper"):
        raise ApproxError(f"unknown theory {theory!r} for approximation")
    t = theory_key(theory)
    t0 = time.time()
    report = ApproxReport(A.name, theory, max_homological, max_internal, S)
    bidegrees = bidegree_window(A, max_homological, max_internal)
    for n, D in bidegrees:
        sp = ell_degree_basis(A, THEORY_FLAVOR[t], n, D - n)
        H = homology(A, t, n, D, S)
        # H's classes before the check reads its dim and d_{n+1}: psi, the
        # product checks and the squares read most bases of the window, so
        # a rank pass first is wasted; the eliminations record those ranks
        classes = H.complement
        trunc = truncation(A, H)
        if sp.dim == 0 and not classes and trunc.flag == "stable":
            report.entries.append(BidegreeVerdict(
                n, D, D - n, 0, 0, 0, "iso", "stable", "both sides zero"))
            continue
        certify = len(sp.cands) <= CERTIFY_LIMIT
        mat, sp, _ = psi_matrix(A, t, n, D, S, certify=certify)
        if certify:
            report.certified.append((n, D))
        rank = rank_of(mat.columns)
        verdict, note = _verdict(sp.dim, H, trunc, rank)
        report.entries.append(BidegreeVerdict(
            n, D, D - n, sp.dim, H.dim, rank, verdict, trunc.flag, note))
    # multiplicativity / linearity spot checks on sampled pairs
    checks, failures = _sample_product_checks(
        A, t, bidegrees, S, random.Random(seed), product_samples)
    report.product_checks = checks
    report.product_failures = failures
    report.elapsed = time.time() - t0
    return report


def _sample_product_checks(A, t, bidegrees, S, rng, samples):
    """For the minus and per towers: psi(xy) = psi(x)psi(y) as classes;
    for plus the module structure: psi+(M x) = psi(M) psi+(x)."""
    flavor = THEORY_FLAVOR[t]
    left_flavor = "ell" if t != "per" else "ell_per"
    window = set(bidegrees)
    pool_l, pool_r = [], []
    for n, D in bidegrees:
        pool_l.extend(ell_degree_basis(A, left_flavor, n, D - n).basis())
        pool_r.extend(ell_degree_basis(A, flavor, n, D - n).basis())
    checks = failures = attempts = 0
    while checks < samples and attempts < samples * 30 and pool_l and pool_r:
        attempts += 1
        m1, m2 = rng.choice(pool_l), rng.choice(pool_r)
        n1, d1 = ell_bidegree(A, m1)
        n2, d2 = ell_bidegree(A, m2)
        n, d = n1 + n2, d1 + d2
        if (n, n + d) not in window:
            continue
        H = homology(A, t, n, n + d, S)
        prod = mon_mul(A, m1, m2)
        lhs = psi_class(A, prod, H)
        chain = mu_chain(A, chain_of_monomial(A, m1), chain_of_monomial(A, m2))
        rhs = H.coords(vectorize(A, H.slice, chain))
        if lhs != rhs:
            failures += 1
        checks += 1
    return checks, failures


# ----- commuting-diagram checks -----

def _eps_matrix(A: AlgebraPresentation, nf: int, D: int,
                H: HomologyPresentation) -> F2Matrix:
    """Antisymmetrization Omega^nf_D -> HH_nf(D) in class coordinates."""
    src = omega_basis(A, nf, D)
    cols = []
    for g in src.basis():
        x = UChain.make("minus", {0: antisymmetrize(A, frozenset({g}))})
        cols.append(H.coords(vectorize(A, H.slice, x)))
    return F2Matrix(H.dim, tuple(cols))


# The squares of the three approximation diagrams, in report order: (name,
# sequence, LES map, degree offset, model map).  Around (n, D) a row
# compares les_map(A, sequence, LES map, n + offset, D, S) with the model
# map around (n + offset, D - n - offset).
SQUARES = (
    ("psi.u=u.psi", "minus_les", "i", 0, MODELS["minus"]["u"]),
    ("h.psi=eps.r", "minus_les", "p", 0, MODELS["minus"]["r"]),
    ("psi.tau=bd.eps", "minus_les", "bd", 0, MODELS["minus"]["tau"]),
    ("psi+.I=I.eps", "connes", "i", 0, MODELS["plus"]["I"]),
    ("eps.D=bd.psi+", "connes", "bd", 2, MODELS["plus"]["D"]),
    ("psiper.iota=iota.psi", "per_les", "i", 0, MODELS["per"]["iota"]),
    ("psi+.S=S.psiper", "per_les", "p", 0, MODELS["per"]["S"]),
    ("psi.bd=bd.psi+", "per_les", "bd", 2, MODELS["per"]["bd"]),
)


def _vertical(A: AlgebraPresentation, H: HomologyPresentation) -> F2Matrix:
    """The comparison map into the LES space H, read at H's own depth:
    antisymmetrization into HH, psi into the other theories."""
    if H.theory == "hh":
        return _eps_matrix(A, H.n, H.d, H)
    return psi_matrix(A, H.theory, H.n, H.d, H.S)[0]


def verify_squares(A: AlgebraPresentation, max_homological: int,
                   max_internal: int, S: int = 3) -> list[dict]:
    """Residuals of the commuting squares of the three approximation
    diagrams, per bidegree.  A residual is the number of nonzero entries in
    the difference of the two composite matrices (zero when the square
    commutes)."""
    out = []
    for n, D in bidegree_window(A, max_homological, max_internal):
        for name, which, les_name, offset, entry in SQUARES:
            m, d = n + offset, D - n - offset
            if not model_space(A, entry[0], m, d).dim:
                continue
            model = model_matrix(A, entry, m, d)[0]
            les, src, tgt = les_map(A, which, les_name, m, D, S)
            diff = _vertical(A, tgt).compose(model).add(
                les.compose(_vertical(A, src)))
            out.append({"square": name, "n": n, "internal": D,
                        "residual": sum(bin(c).count("1")
                                        for c in diff.columns)})
    return out
