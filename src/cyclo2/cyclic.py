"""Truncated towers, the four homology theories and their exact sequences.

A tower slice T_n collects the columns p of the mixed (B, b)-bicomplex that
the chosen theory allows, in one total degree n and one internal degree d
(the plain sum of slot degrees, which B + b preserves).  Bar length in
column p is n - 2p, so the right bound is always finite; for graded
algebras the left bound is finite too because every bar entry has positive
degree.  Only ungraded minus/per towers need the truncation column -S, and
those results carry a stable / truncation-limited flag decided by
recomputing at S + 1.

The u-exponent i of the chain notation corresponds to column p = -i.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

from .f2linalg import (
    F2Matrix,
    SubspaceBasis,
    class_coordinates,
    complement_basis,
    echelonize_in,
    eliminate_tracked,
    matrix_from_columns,
    rank_kernel_image,
    solve,
)
from .gralg import AlgebraPresentation, grevlex_key, mono_mul
from .hochschild import BarWord, UChain, boundary_b, connes_B

THEORY_BOUNDS = {
    "hh": (0, 0),
    "plus": (0, None),
    "minus": (None, 0),
    "per": (None, None),
}

THEORY_ALIASES = {
    "hh": "hh", "hc": "plus", "plus": "plus", "hcminus": "minus",
    "minus": "minus", "hcper": "per", "per": "per",
}


class TowerError(Exception):
    pass


def theory_key(theory: str) -> str:
    try:
        return THEORY_ALIASES[theory]
    except KeyError:
        raise TowerError(f"unknown theory {theory!r}") from None


def bidegree_window(A: AlgebraPresentation, max_homological: int,
                    max_internal: int) -> list[tuple[int, int]]:
    """The bidegrees (n, D) with |n| <= max_homological and
    0 <= D <= max_internal, by n then D; ungraded algebras have D = 0."""
    internal = range(max_internal + 1) if A.graded else (0,)
    return [(n, D) for n in range(-max_homological, max_homological + 1)
            for D in internal]


def enumerate_words(A: AlgebraPresentation, nbars: int, d: int) -> list[BarWord]:
    """All normalized bar words with nbars bars and internal degree d."""
    if nbars < 0:
        return []
    if A.graded:
        # build bars left to right (degree >= 1 each), head soaks up the rest
        partial: list[tuple[tuple, int]] = [((), d)]  # (bars, rest)
        for slots_left in range(nbars, 0, -1):
            partial = [(acc + (m,), rem - e) for acc, rem in partial
                       for e in range(1, rem - slots_left + 2)
                       for m in A.degree_basis(e)]
        return [(head, acc) for acc, rem in partial
                for head in A.degree_basis(rem)]
    if d != 0:
        return []
    basis = A.basis_all()
    bars_pool = [m for m in basis if m != A.one]
    out = []
    for head in basis:
        for bars in itertools.product(bars_pool, repeat=nbars):
            out.append((head, bars))
    return out


def _word_key(A: AlgebraPresentation, w: BarWord):
    return (grevlex_key(w[0]), tuple(grevlex_key(b) for b in w[1]))


def _block_key(w: BarWord):
    # multidegree of the whole word; valid block split for monomial ideals
    total = w[0]
    for b in w[1]:
        total = mono_mul(total, b)
    return total


@dataclass(frozen=True)
class TowerSlice:
    """One total degree of a truncated tower, with a fixed ordered basis."""

    theory: str
    n: int
    d: int
    S: int
    p_min: int
    p_max: int
    truncated: bool
    basis: tuple[tuple[int, BarWord], ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def index(self) -> dict[tuple[int, BarWord], int]:
        return {pw: k for k, pw in enumerate(self.basis)}


def build_tower(A: AlgebraPresentation, theory: str, n: int, d: int,
                S: int = 1) -> TowerSlice:
    """Assemble the degree-n slice of T^{alpha,beta} at internal degree d."""
    t = theory_key(theory)
    alpha, beta = THEORY_BOUNDS[t]
    if not A.graded and d != 0:
        return TowerSlice(t, n, d, S, 0, -1, False, ())
    p_max = n // 2  # bar length n - 2p must be >= 0
    p_max = min(p_max, beta) if beta is not None else p_max
    truncated = False
    if alpha is not None:
        p_min = alpha
    elif A.graded:
        p_min = -((d - n) // 2)  # ceil((n - d) / 2): bar length <= d
    else:
        if S < 1:
            raise TowerError("S >= 1 required for an infinite left bound")
        p_min = -S
        truncated = True
    key = (t, n, d, S if truncated else 0)
    cache = A.memo("tower")
    if key in cache:
        return cache[key]
    basis: list[tuple[int, BarWord]] = []
    for p in range(p_min, p_max + 1):
        words = enumerate_words(A, n - 2 * p, d)
        if A.monomial_ideal:
            words.sort(key=lambda w: (_block_key(w), _word_key(A, w)))
        else:
            words.sort(key=lambda w: _word_key(A, w))
        basis.extend((p, w) for w in words)
    sl = TowerSlice(t, n, d, S if truncated else 0, p_min, p_max, truncated,
                    tuple(basis))
    cache[key] = sl
    return sl


def vectorize(A: AlgebraPresentation, sl: TowerSlice, x: UChain,
              allow_projection: bool = False) -> int:
    """Coordinates of a u-chain in a slice basis (bitmask).

    With allow_projection, components below the truncation window are
    dropped (the quotient-complex projection); otherwise any missing word is
    an error.
    """
    idx = sl.index
    v = 0
    for i, c in x.entries:
        p = -i
        for w in c:
            key = (p, w)
            j = idx.get(key)
            if j is None:
                if p < sl.p_min and (allow_projection or sl.truncated):
                    continue
                raise TowerError(f"chain component {key} outside slice")
            v ^= 1 << j
    return v


def unvectorize(sl: TowerSlice, v: int) -> UChain:
    entries: dict[int, set] = {}
    for j, (p, w) in enumerate(sl.basis):
        if (v >> j) & 1:
            entries.setdefault(-p, set()).add(w)
    theory = sl.theory if sl.theory != "hh" else "minus"
    return UChain.make(theory, {i: frozenset(s) for i, s in entries.items()})


def differential_columns(A: AlgebraPresentation, src: TowerSlice,
                         tgt: TowerSlice) -> list[int]:
    """Columns of B + b from src (degree n) to tgt (degree n - 1)."""
    if tgt.n != src.n - 1 or tgt.d != src.d:
        raise TowerError("differential endpoints mismatch")
    key = ("diff", src.theory, src.n, src.d, src.S if src.truncated else 0)
    cache = A.memo("tower_matrix")
    if key in cache:
        return cache[key]
    idx = tgt.index
    cols: list[int] = []
    for p, w in src.basis:
        v = 0
        for w2 in boundary_b(A, frozenset({w})):
            v ^= 1 << idx[(p, w2)]
        if p - 1 >= tgt.p_min:
            for w2 in connes_B(A, frozenset({w})):
                v ^= 1 << idx[(p - 1, w2)]
        # p - 1 < p_min: the B-component is cut by the truncation / bound
        cols.append(v)
    cache[key] = cols
    return cols


@dataclass(frozen=True)
class HomologyPresentation:
    """Cycle/boundary bases and class coordinates in one bidegree."""

    theory: str
    n: int
    d: int
    S: int
    slice: TowerSlice
    cycles: SubspaceBasis
    boundaries: SubspaceBasis
    complement: tuple[int, ...]
    flag: str  # "stable" | "truncation-limited"
    persistent_rank: Optional[int] = None
    # classes (in this presentation's coordinates) that lift one window up;
    # only populated when the stabilization protocol ran
    persistent_image: Optional[SubspaceBasis] = None

    @property
    def dim(self) -> int:
        return len(self.complement)

    def coords(self, v: int) -> int:
        """Class coordinates (a bitmask) of a cycle given as a slice vector."""
        return class_coordinates(self.complement, self.boundaries, v)

    def coords_of_uchain(self, A: AlgebraPresentation, x: UChain,
                         allow_projection: bool = False) -> int:
        return self.coords(vectorize(A, self.slice, x, allow_projection))

    def rep(self, k: int) -> int:
        return self.complement[k]

    def rep_uchain(self, k: int) -> UChain:
        return unvectorize(self.slice, self.complement[k])


def _homology_at(A: AlgebraPresentation, theory: str, n: int, d: int,
                 S: int) -> HomologyPresentation:
    sl_n = build_tower(A, theory, n, d, S)
    sl_dn = build_tower(A, theory, n - 1, d, S)
    sl_up = build_tower(A, theory, n + 1, d, S)
    dn_cols = differential_columns(A, sl_n, sl_dn)
    up_cols = differential_columns(A, sl_up, sl_n)
    pivot_rows, zero_trackers = eliminate_tracked(dn_cols)
    cycles = echelonize_in(zero_trackers, sl_n.dim)
    boundaries = echelonize_in(
        [v for v in up_cols if v], sl_n.dim)
    # boundaries must be cycles; reduce them into the cycle space
    comp = complement_basis(cycles, boundaries)
    return HomologyPresentation(
        theory=sl_n.theory, n=n, d=d, S=S, slice=sl_n, cycles=cycles,
        boundaries=boundaries, complement=comp,
        flag="stable", persistent_rank=None)


def homology(A: AlgebraPresentation, theory: str, n: int, d: int,
             S: int = 3) -> HomologyPresentation:
    """Homology of the chosen tower in bidegree (n, d).

    For graded algebras all towers are finite and the result is exact.  For
    ungraded minus/per towers the computation runs at S and S + 1; the flag
    is stable only if the dimensions agree and the projection induces an
    isomorphism between the two answers.
    """
    t = theory_key(theory)
    alpha, _ = THEORY_BOUNDS[t]
    needs_protocol = (alpha is None) and not A.graded
    cache = A.memo("homology")
    key = (t, n, d, S if needs_protocol else 0)
    if key in cache:
        return cache[key]
    if not needs_protocol:
        pres = _homology_at(A, t, n, d, S)
        cache[key] = pres
        return pres
    small = _homology_at(A, t, n, d, S)
    big = _homology_at(A, t, n, d, S + 1)
    # project the S+1 class representatives into the S window
    image = echelonize_in(
        [small.coords_of_uchain(A, big.rep_uchain(k), allow_projection=True)
         for k in range(big.dim)],
        small.dim)
    rank = image.dim
    stable = small.dim == big.dim and rank == small.dim
    pres = HomologyPresentation(
        theory=small.theory, n=n, d=d, S=S, slice=small.slice,
        cycles=small.cycles, boundaries=small.boundaries,
        complement=small.complement,
        flag="stable" if stable else "truncation-limited",
        persistent_rank=rank, persistent_image=image)
    cache[key] = pres
    return pres


# ----- maps of the three long exact sequences -----

def class_map(A: AlgebraPresentation, src: HomologyPresentation,
              tgt: HomologyPresentation, chain_map) -> F2Matrix:
    """Matrix of a chain-level map on homology classes.

    chain_map takes a slice vector of src and returns a slice vector of tgt;
    it must send cycles to cycles and boundaries to boundaries.
    """
    cols = [tgt.coords(chain_map(src.rep(k))) for k in range(src.dim)]
    return matrix_from_columns(cols, tgt.dim)


def slice_shift_map(A: AlgebraPresentation, src: TowerSlice, tgt: TowerSlice,
                    shift: int):
    """Vector map moving column p to p + shift, dropping cut components."""
    idx = tgt.index

    def f(v: int) -> int:
        out = 0
        while v:
            j = (v & -v).bit_length() - 1
            v &= v - 1
            p, w = src.basis[j]
            key = (p + shift, w)
            k = idx.get(key)
            if k is None:
                if p + shift < tgt.p_min:
                    continue
                raise TowerError(f"shifted component {key} outside slice")
            out ^= 1 << k
        return out

    return f


def connecting_map(A: AlgebraPresentation,
                   HN: HomologyPresentation, HL: HomologyPresentation,
                   M_n: TowerSlice, M_n1: TowerSlice,
                   p_map, i_map) -> F2Matrix:
    """Snake-lemma connecting homomorphism via explicit lifting.

    p_map : M_n slice vector -> N_n slice vector (surjection of the SES)
    i_map : L slice vector -> M_{n-1} slice vector (injection of the SES)
    The lift and the preimage are found with f2linalg.solve, not by a
    closed formula.
    """
    p_cols = [p_map(1 << j) for j in range(M_n.dim)]
    p_mat = matrix_from_columns(p_cols, HN.slice.dim)
    i_cols = [i_map(1 << j) for j in range(HL.slice.dim)]
    i_mat = matrix_from_columns(i_cols, M_n1.dim)
    d_cols = differential_columns(A, M_n, M_n1)
    cols = []
    for k in range(HN.dim):
        z = HN.rep(k)
        x = solve(p_mat, z)
        if x is None:
            raise TowerError("connecting map: lift failed")
        dx = 0
        xx = x
        while xx:
            j = (xx & -xx).bit_length() - 1
            xx &= xx - 1
            dx ^= d_cols[j]
        w = solve(i_mat, dx)
        if w is None:
            raise TowerError("connecting map: boundary not in subcomplex")
        cols.append(HL.coords(w))
    return matrix_from_columns(cols, HL.dim)


class SES(NamedTuple):
    """A short exact sequence of towers 0 -> L -> M -> N -> 0.

    towers: (theory, degree offset) of L, M and N, so that L_n is the
    degree n + offset slice of its theory; shifts: the column shifts of
    the inclusion i: L -> M and of the projection p: M -> N; spaces: names
    of L_n, M_n, N_n, L_{n-1}, M_{n-1}; maps: names of i, p, the
    connecting map bd: N_n -> L_{n-1} and i_next: L_{n-1} -> M_{n-1}.
    """

    towers: tuple[tuple[str, int], tuple[str, int], tuple[str, int]]
    shifts: tuple[int, int]
    spaces: tuple[str, str, str, str, str]
    maps: tuple[str, str, str, str]


# The minus sequence (L = columns <= -1 of T^minus, N = column 0), Connes'
# SBI sequence and the periodic sequence (L = columns <= 0 of T^per);
# Loday, Cyclic Homology, 1992, section 5.1.
SEQUENCES = {
    "minus_les": SES((("minus", 2), ("minus", 0), ("hh", 0)), (-1, 0),
                     ("Hminus_n2", "Hminus_n", "HH_n", "Hminus_n1",
                      "Hminus_nm1"),
                     ("u", "h", "bd", "u_next")),
    "connes": SES((("hh", 0), ("plus", 0), ("plus", -2)), (0, -1),
                  ("HH_n", "HC_n", "HC_n2", "HH_nm1", "HC_nm1"),
                  ("I", "u", "bd", "I_next")),
    "per_les": SES((("minus", 0), ("per", 0), ("plus", -2)), (0, -1),
                   ("HCminus_n", "HCper_n", "HC_n2", "HCminus_nm1",
                    "HCper_nm1"),
                   ("iota", "S", "bd", "iota_next")),
}


@dataclass
class LESData:
    """Maps and spaces of one window of a long exact sequence."""

    which: str
    n: int
    d: int
    spaces: dict
    maps: dict

    @property
    def joints(self) -> dict[str, tuple[str, str, str]]:
        """The joints M_n, N_n and L_{n-1} as (incoming, space, outgoing)."""
        _, m, nn, l1, _ = SEQUENCES[self.which].spaces
        i, p, bd, i_next = SEQUENCES[self.which].maps
        return {f"at_{m}": (i, m, p), f"at_{nn}": (p, nn, bd),
                f"at_{l1}": (bd, l1, i_next)}

    def exactness_defects(self) -> dict[str, int]:
        """rank f + rank g - dim(middle) at each joint (0 iff exact)."""
        out = {}
        for joint, (fname, mid, gname) in self.joints.items():
            f = self.maps[fname]
            g = self.maps[gname]
            rf = rank_kernel_image(f)[0]
            rg = rank_kernel_image(g)[0]
            comp = g.compose(f)
            out[joint] = abs(rf + rg - self.spaces[mid].dim) + \
                (0 if comp.is_zero() else 1)
        return out


def les_maps(A: AlgebraPresentation, which: str, n: int, d: int,
             S: int = 3) -> LESData:
    """Class-level maps of one of the three long exact sequences at degree n,
    L_n -> M_n -> N_n -> L_{n-1} -> M_{n-1}, from its row of SEQUENCES.

    L sits in M moved by the column shift of i, so for ungraded algebras
    its towers are truncated at S + shift: the columns of M at depth S.
    """
    try:
        ses = SEQUENCES[which]
    except KeyError:
        raise TowerError(f"unknown sequence {which!r}") from None
    (tl, ol), (tm, om), (tn, on) = ses.towers
    i_shift, p_shift = ses.shifts
    S_L = S if A.graded else S + i_shift
    L_n = homology(A, tl, n + ol, d, S_L)
    M_n = homology(A, tm, n + om, d, S)
    N_n = homology(A, tn, n + on, d, S)
    L_n1 = homology(A, tl, n - 1 + ol, d, S_L)
    M_n1 = homology(A, tm, n - 1 + om, d, S)

    i_map = slice_shift_map(A, L_n.slice, M_n.slice, i_shift)
    p_map = slice_shift_map(A, M_n.slice, N_n.slice, p_shift)
    i_next_map = slice_shift_map(A, L_n1.slice, M_n1.slice, i_shift)
    mats = (class_map(A, L_n, M_n, i_map),
            class_map(A, M_n, N_n, p_map),
            connecting_map(A, N_n, L_n1, M_n.slice, M_n1.slice, p_map,
                           i_next_map),
            class_map(A, L_n1, M_n1, i_next_map))
    return LESData(which, n, d,
                   spaces=dict(zip(ses.spaces, (L_n, M_n, N_n, L_n1, M_n1))),
                   maps=dict(zip(ses.maps, mats)))


# ----- the column-filtration spectral sequence -----

def e1_page(A: AlgebraPresentation, alpha: Optional[int], beta: Optional[int],
            s: int, t: int, d: int, S: int = 3):
    """E^1_{s,t} = HH_{t-s} at internal degree d, zero outside [alpha, beta]."""
    if (alpha is not None and s < alpha) or (beta is not None and s > beta):
        return None
    return homology(A, "hh", t - s, d, S)


def d1_matrix(A: AlgebraPresentation, alpha, beta, s: int, t: int, d: int,
              S: int = 3) -> Optional[F2Matrix]:
    """d^1 = B_*, from (s, t) to (s - 1, t)."""
    src = e1_page(A, alpha, beta, s, t, d, S)
    tgt = e1_page(A, alpha, beta, s - 1, t, d, S)
    if src is None or tgt is None:
        return None
    sl_src = src.slice
    sl_tgt = tgt.slice
    idx = sl_tgt.index
    cols = []
    for k in range(src.dim):
        x = src.rep(k)
        img: set = set()
        while x:
            j = (x & -x).bit_length() - 1
            x &= x - 1
            img.symmetric_difference_update(
                connes_B(A, frozenset({sl_src.basis[j][1]})))
        v = 0
        for w in img:
            v ^= 1 << idx[(0, w)]
        cols.append(tgt.coords(v))
    return matrix_from_columns(cols, tgt.dim)


def e2_page(A: AlgebraPresentation, alpha, beta, s: int, t: int, d: int,
            S: int = 3) -> tuple[int, list[int]]:
    """Dimension and basis (E^1 class coordinates, as bitmasks) of
    E^2_{s,t}."""
    e1 = e1_page(A, alpha, beta, s, t, d, S)
    if e1 is None:
        return 0, []
    out_mat = d1_matrix(A, alpha, beta, s, t, d, S)
    in_mat = d1_matrix(A, alpha, beta, s + 1, t, d, S)
    dim_e1 = e1.dim
    if out_mat is not None:
        _, ker, _ = rank_kernel_image(out_mat)
        cycle_vs = list(ker.vectors)
    else:
        cycle_vs = [1 << j for j in range(dim_e1)]
    cycles = echelonize_in(cycle_vs, dim_e1)
    if in_mat is not None:
        bdry_vs = [c for c in in_mat.columns()]
        boundaries = echelonize_in([v for v in bdry_vs if v], dim_e1)
    else:
        boundaries = SubspaceBasis(dim_e1, ())
    comp = complement_basis(cycles, boundaries)
    return len(comp), list(comp)
