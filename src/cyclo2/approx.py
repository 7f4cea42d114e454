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
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from .cyclic import (
    HomologyPresentation,
    class_map,
    homology,
    les_maps,
    matrix_from_columns,
    slice_shift_map,
    vectorize,
)
from .derham import antisymmetrize, omega_basis
from .ell import (
    EllElement,
    bd_plus_matrix,
    ell_degree_basis,
    ell_mon_mul,
    iota_matrix,
    mul_u_matrix,
    plus_mon_mul,
    r_matrix,
    tau_matrix,
    I_matrix,
    D_matrix,
    S_matrix,
)
from .f2linalg import F2Matrix, rank_kernel_image
from .gralg import AlgebraPresentation
from .hochschild import UChain, mu_chain, uchain_boundary

THEORY_FLAVOR = {"hcminus": "ell", "hc": "ell_plus", "hcper": "ell_per"}
THEORY_TOWER = {"hcminus": "minus", "hc": "plus", "hcper": "per"}


class ApproxError(Exception):
    pass


def _word(A, head, bars=()) -> frozenset:
    return frozenset({(head, tuple(bars))})


def psi_generator_image(A: AlgebraPresentation, gen: tuple) -> UChain:
    """The chain representing a single generator; asserted to be a cycle."""
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
    elif kind == "u":
        x = UChain.make("minus", {gen[1] if len(gen) > 1 else 1:
                                  _word(A, one)})
    elif kind == "gamma":
        x = UChain.make("plus", {0: _word(A, gen[1])})
    elif kind == "v":
        x = UChain.make("plus", {-gen[1]: _word(A, one)})
    elif kind == "uinv":
        x = UChain.make("per", {-1: _word(A, one)})
    else:
        raise ApproxError(f"unknown generator {gen!r}")
    if not uchain_boundary(A, x).is_zero():
        raise ApproxError(f"generator image of {gen!r} is not a cycle")
    return x


def _as_per(x: UChain) -> UChain:
    return UChain.make("per", dict(x.entries), x.clipped)


def chain_of_monomial(A: AlgebraPresentation, mon: tuple) -> UChain:
    """Evaluate psi on one reduced monomial by folding chain products."""
    cache = A.memo("psi_chain")
    if mon in cache:
        return cache[mon]
    kind = mon[0]
    if kind == "e":
        _, j, phi, q, dl = mon
        if phi:
            sub = ("e", j, phi[:-1], q, dl)
            x = mu_chain(A, chain_of_monomial(A, sub),
                         psi_generator_image(A, ("phi", phi[-1])))
        elif q:
            sub = ("e", j, phi, q[:-1], dl)
            x = mu_chain(A, chain_of_monomial(A, sub),
                         psi_generator_image(A, ("q", q[-1])))
        elif dl:
            sub = ("e", j, phi, q, dl[:-1])
            x = mu_chain(A, chain_of_monomial(A, sub),
                         psi_generator_image(A, ("delta", dl[-1])))
        else:
            x = UChain.make("minus", {j: _word(A, A.one)})
    elif kind == "p":
        _, j, phi, q = mon
        x = _as_per(chain_of_monomial(A, ("e", max(j, 0), phi, q, ())))
        if j < 0:
            x = UChain.make("per", {i + j: c for i, c in x.entries})
    elif kind == "g":
        _, phi, q, dl, m = mon
        coeff = chain_of_monomial(A, ("e", 0, phi, q, dl))
        x = mu_chain(A, coeff, psi_generator_image(A, ("gamma", m)))
    elif kind == "v":
        _, j, i, phi, q = mon
        coeff = chain_of_monomial(A, ("e", j, phi, q, ()))
        x = mu_chain(A, coeff, psi_generator_image(A, ("v", i)))
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
        v ^= vectorize(A, H.slice, x, allow_projection=True)
    return H.coords(v)


def psi_matrix(A: AlgebraPresentation, theory: str, n: int, D: int,
               S: int = 3, certify: bool = False):
    """Class matrix of the approximation map at chain bidegree (n, D).

    With certify=True every relation-spanning row of the source is pushed
    through psi and asserted to vanish in homology, certifying that the map
    is well defined on the quotient.
    """
    cache = A.memo("psi_matrix")
    key = (theory, n, D, 0 if A.graded else S)
    cached = cache.get(key)
    if cached is not None and (cached[3] or not certify):
        return cached[0], cached[1], cached[2]
    flavor = THEORY_FLAVOR[theory]
    sp = ell_degree_basis(A, flavor, n, D - n)
    H = homology(A, THEORY_TOWER[theory], n, D, S)
    cols = [psi_class(A, frozenset({mon}), H) for mon in sp.basis()]
    mat = matrix_from_columns(cols, H.dim)
    if certify:
        for rel in sp.quotient.relations.vectors:
            el = frozenset(sp.cands[k] for k in range(len(sp.cands))
                           if (rel >> k) & 1)
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

    def non_iso_entries(self) -> list[BidegreeVerdict]:
        return [e for e in self.entries if e.verdict == "not_iso"]

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


def _verdict(sp_dim: int, H: HomologyPresentation, rank: int) -> tuple[str, str]:
    if H.flag == "stable":
        if sp_dim == H.dim == rank:
            return "iso", ""
        return "not_iso", "stable dimensions differ or rank deficient"
    # truncation-limited: only persistent evidence is trusted
    if H.persistent_image is not None:
        p = H.persistent_image.dim
        if sp_dim < p:
            return "not_iso", (
                "source dimension below persistent class rank "
                f"({sp_dim} < {p})")
    return "inconclusive", "truncation-limited window"


def verify_approximation(A: AlgebraPresentation, theory: str,
                         max_homological: int, max_internal: int,
                         S: int = 3, seed: int = 0,
                         certify_limit: int = 40,
                         product_samples: int = 25) -> ApproxReport:
    """Per-bidegree isomorphism verdicts plus multiplicativity samples."""
    if theory not in THEORY_FLAVOR:
        raise ApproxError(f"unknown theory {theory!r} for approximation")
    t0 = time.time()
    report = ApproxReport(A.name, theory, max_homological, max_internal, S)
    bidegrees = []
    for n in range(-max_homological, max_homological + 1):
        if A.graded:
            for D in range(0, max_internal + 1):
                bidegrees.append((n, D))
        else:
            bidegrees.append((n, 0))
    for n, D in bidegrees:
        flavor = THEORY_FLAVOR[theory]
        sp = ell_degree_basis(A, flavor, n, D - n)
        H = homology(A, THEORY_TOWER[theory], n, D, S)
        if sp.dim == 0 and H.dim == 0 and H.flag == "stable":
            report.entries.append(BidegreeVerdict(
                n, D, D - n, 0, 0, 0, "iso", "stable", "both sides zero"))
            continue
        certify = len(sp.cands) <= certify_limit
        mat, sp, H = psi_matrix(A, theory, n, D, S, certify=certify)
        if certify:
            report.certified.append((n, D))
        rank = rank_kernel_image(mat)[0]
        verdict, note = _verdict(sp.dim, H, rank)
        report.entries.append(BidegreeVerdict(
            n, D, D - n, sp.dim, H.dim, rank, verdict, H.flag, note))
    # multiplicativity / linearity spot checks on sampled pairs
    checks, failures = _sample_product_checks(
        A, theory, bidegrees, S, random.Random(seed), product_samples)
    report.product_checks = checks
    report.product_failures = failures
    report.elapsed = time.time() - t0
    return report


def _sample_product_checks(A, theory, bidegrees, S, rng, samples):
    """For hcminus/hcper: psi(xy) = psi(x)psi(y) as classes; for hc the
    module structure: psi+(M x) = psi(M) psi+(x)."""
    flavor = THEORY_FLAVOR[theory]
    left_flavor = "ell" if theory != "hcper" else "ell_per"
    window = set(bidegrees)
    pool_l, pool_r = [], []
    for n, D in bidegrees:
        pool_l.extend(ell_degree_basis(A, left_flavor, n, D - n).basis())
        pool_r.extend(ell_degree_basis(A, flavor, n, D - n).basis())
    from .ell import ell_bidegree, per_mon_mul
    checks = failures = attempts = 0
    while checks < samples and attempts < samples * 30 and pool_l and pool_r:
        attempts += 1
        m1, m2 = rng.choice(pool_l), rng.choice(pool_r)
        n1, d1 = ell_bidegree(A, m1)
        n2, d2 = ell_bidegree(A, m2)
        n, d = n1 + n2, d1 + d2
        if (n, n + d) not in window:
            continue
        H = homology(A, THEORY_TOWER[theory], n, n + d, S)
        mul = {"hcminus": ell_mon_mul, "hcper": per_mon_mul,
               "hc": plus_mon_mul}[theory]
        prod = mul(A, m1, m2)
        lhs = psi_class(A, prod, H)
        chain = mu_chain(A, chain_of_monomial(A, m1), chain_of_monomial(A, m2))
        rhs = H.coords(vectorize(A, H.slice, chain, allow_projection=True))
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
    return matrix_from_columns(cols, H.dim)


def verify_squares(A: AlgebraPresentation, max_homological: int,
                   max_internal: int, S: int = 3) -> list[dict]:
    """Residuals of the commuting squares of the three approximation
    diagrams, per bidegree.  A residual is the number of nonzero entries in
    the difference of the two composite matrices (zero when the square
    commutes)."""
    out = []
    bidegrees = []
    for n in range(-max_homological, max_homological + 1):
        if A.graded:
            bidegrees.extend((n, D) for D in range(0, max_internal + 1))
        else:
            bidegrees.append((n, 0))

    def residual(name, n, D, mat1, mat2):
        diff = mat1.add(mat2)
        res = sum(bin(r).count("1") for r in diff.row_data)
        out.append({"square": name, "n": n, "internal": D, "residual": res})

    for n, D in bidegrees:
        d = D - n
        # psi . u = u . psi  (ell (n+2, d-2) -> HC^-_n)
        sp2 = ell_degree_basis(A, "ell", n + 2, d - 2)
        if sp2.dim:
            mu, _, _ = mul_u_matrix(A, "ell", n + 2, d - 2)
            psi_n, _, H_n = psi_matrix(A, "hcminus", n, D, S)
            psi_n2, _, H_n2 = psi_matrix(A, "hcminus", n + 2, D, S)
            u_star = class_map(A, H_n2, H_n,
                               slice_shift_map(A, H_n2.slice, H_n.slice, -1))
            residual("psi.u=u.psi", n, D, psi_n.compose(mu),
                     u_star.compose(psi_n2))
        # h . psi = eps . r  (ell (n,d) -> HH_n)
        sp = ell_degree_basis(A, "ell", n, d)
        if sp.dim:
            psi_n, _, H_n = psi_matrix(A, "hcminus", n, D, S)
            Hh = homology(A, "hh", n, D, S)
            from .cyclic import _column_zero_projection
            h_star = class_map(A, H_n, Hh,
                               _column_zero_projection(H_n.slice, Hh.slice))
            mr, _, omv = r_matrix(A, n, d)
            eps = _eps_matrix(A, n, D, Hh)
            residual("h.psi=eps.r", n, D, h_star.compose(psi_n),
                     eps.compose(mr))
        # psi . tau = bd . eps  (Omega^n_D -> HC^-_{n+1})
        som = omega_basis(A, n, D)
        if som.dim:
            mt, _, tgt = tau_matrix(A, n, D)
            psi_n1, _, H_n1 = psi_matrix(A, "hcminus", n + 1, D, S)
            les = les_maps(A, "minus_les", n, D, S)
            Hh = les.spaces["HH_n"]
            eps = _eps_matrix(A, n, D, Hh)
            residual("psi.tau=bd.eps", n, D, psi_n1.compose(mt),
                     les.maps["bd"].compose(eps))
        # plus diagram: psi+ . I = I* . eps   (Omega^n_D -> HC_n)
        if som.dim and n >= 0:
            mI, _, _ = I_matrix(A, n, D)
            psip, _, Hc = psi_matrix(A, "hc", n, D, S)
            Hh = homology(A, "hh", n, D, S)
            I_star = class_map(A, Hh, Hc,
                               slice_shift_map(A, Hh.slice, Hc.slice, 0))
            eps = _eps_matrix(A, n, D, Hh)
            residual("psi+.I=I.eps", n, D, psip.compose(mI),
                     I_star.compose(eps))
        # plus diagram: eps . D = bd . psi+  (ell+ (n,d) -> HH_{n+1})
        spp = ell_degree_basis(A, "ell_plus", n, d)
        if spp.dim and n >= 0:
            mD, _, _ = D_matrix(A, n, d)
            Hh1 = homology(A, "hh", n + 1, D, S)
            eps1 = _eps_matrix(A, n + 1, D, Hh1)
            psip, _, Hc = psi_matrix(A, "hc", n, D, S)
            les = les_maps(A, "connes", n + 2, D, S)
            residual("eps.D=bd.psi+", n, D, eps1.compose(mD),
                     les.maps["bd"].compose(psip))
        # per diagram: psi_per . iota = iota* . psi  (ell (n,d) -> HCper_n)
        if sp.dim:
            mi, _, _ = iota_matrix(A, n, d)
            psim, _, Hm = psi_matrix(A, "hcminus", n, D, S)
            psiper, _, Hp = psi_matrix(A, "hcper", n, D, S)
            iota_star = class_map(A, Hm, Hp,
                                  slice_shift_map(A, Hm.slice, Hp.slice, 0))
            residual("psiper.iota=iota.psi", n, D, psiper.compose(mi),
                     iota_star.compose(psim))
        # per diagram: psi+ . S = S* . psi_per  (ell_per (n,d) -> HC_{n-2})
        spper = ell_degree_basis(A, "ell_per", n, d)
        if spper.dim:
            mS, _, _ = S_matrix(A, n, d)
            psiper, _, Hp = psi_matrix(A, "hcper", n, D, S)
            psip2, _, _ = psi_matrix(A, "hc", n - 2, D, S)
            les = les_maps(A, "per_les", n, D, S)
            residual("psi+.S=S.psiper", n, D, psip2.compose(mS),
                     les.maps["S"].compose(psiper))
        # per diagram: psi . bd_ell = bd . psi+  (ell+ (n,d) -> HC^-_{n+1})
        if spp.dim:
            mbd, _, _ = bd_plus_matrix(A, n, d)
            psim1, _, _ = psi_matrix(A, "hcminus", n + 1, D, S)
            psip, _, Hc = psi_matrix(A, "hc", n, D, S)
            les = les_maps(A, "per_les", n + 2, D, S)
            residual("psi.bd=bd.psi+", n, D, psim1.compose(mbd),
                     les.maps["bd"].compose(psip))
    return out
