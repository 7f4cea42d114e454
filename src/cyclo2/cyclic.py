"""Truncated towers, the four homology theories and their exact sequences.

A tower slice T_n collects the columns p of the mixed (B, b)-bicomplex that
the chosen theory allows, in one total degree n and one internal degree d
(the plain sum of slot degrees, which B + b preserves).  Bar length in
column p is n - 2p, so the right bound is always finite; for graded
algebras the left bound is finite too because every bar entry has positive
degree.  Only ungraded minus/per towers need the truncation column -S.
homology() is the homology at that depth, memoised once per bidegree and
depth; truncation() checks it against depth S + 1 from memoised ranks
alone, and flags it stable or truncation-limited.

Column p of T_n is the Hochschild chain group C_{n-2p,d}.  Its ordered
basis and its b and B matrices are computed once per algebra and shared by
every slice that holds it (the total complex of the mixed complex
(C, b, B); Loday, Cyclic Homology, 2.5), so a slice differential is those
matrices moved to the slice's offsets.  The basis is a product: in each
multidegree block, the sorted heads, each followed by the sorted bar
tuples of its multidegree (or degree), which every C_{k,d} shares.  A
word's position is its block's start + its head's run + its bar tuple's
rank; b and B columns are set from positions, and the words are built
only when read.

For a monomial ideal, b and B preserve the multidegree of a word (the
weight decomposition; Loday, Cyclic Homology, 1992), so every slice
differential is block diagonal; a slice's blocks are the segments of
its columns with one multidegree, in column order.  Other presentations
have one block per slice, placed as the slice itself.  Each block of a
slice differential d_n is built straight from the per-degree matrices, in
block-local coordinates; it depends only on the shape of d_n, which the
periodic towers repeat (_shape_key).  Ranks come first, bases on demand:
the homology of a slice is a Homology split into these blocks, and its
dimension, a sum over blocks, reads one memoised rank of each block of
the shapes of d_n and d_{n+1} (differential_ranks), which keeps no basis
and stops where the ranks of its neighbours, once memoised, bound it.
Its block bases are built only when something reads classes, from one
shared elimination of each block per shape (differential_bases): its
kernel is the cycles of that block of T_n and its image the boundaries
of that block of T_{n-1}.  Class coordinates are read block by block,
and only the class representatives are placed on slice vectors.  That
elimination records its ranks too, so bases read first leave no rank
pass to run.

The chain groups come from one of three mixed complexes, the model of a
slice, each a row of CHAIN_MODELS read through chain_group and
chain_columns; the towers, ranks, records and the truncation check run the
same code on every row, and the model is part of every memo key.  "bar" is
the normalized bar complex above, and the oracle of the other two.  "tate"
is Omega_R = P (x) Lambda(y) (x) Lambda(dx) (x) Gamma(dy) of the Tate
resolution R = P<y>, dy_j = f_j, of a graded A = P/(f_1..f_r), f a regular
sequence (Tate, Illinois J. Math. 1, 1957), with b = the derivation that
extends y_j -> f_j and B the de Rham d (_tate_resolution, _form_group,
_form_columns): polynomially many basis vectors per (k, d) where C_{k,d}
has exponentially many; on a polynomial ring it is (Omega, 0, d).  That
(Omega_R, b) computes HH is classical (Wolffhardt, Trans. AMS 171, 1972;
Guccione and Guccione, J. Pure Appl. Algebra 74, 1991; in characteristic
zero, with B, Burghelea and Vigue-Poirrier, LNM 1318, 1988); that its
towers compute HC, HC^- and HC^per over F2 is only checked here, by tests
that hold its dims, flags and E^2 pages to the bar model's.  "koszul" is
Omega_R (x)_R A on an ungraded F2[x]/(f), its small mixed complex
(_koszul_resolution).  compute and spectral read chain_model's row.
verify-approx reads class coordinates of bar chains, so it reads the bar
model.

The u-exponent i of the chain notation corresponds to column p = -i.
"""

from __future__ import annotations

import functools
import itertools
import weakref
from dataclasses import dataclass, field
from functools import cached_property, partial
from operator import add, itemgetter
from typing import NamedTuple, Optional

from .derham import form_piece, free_forms, relation_forms
from .f2linalg import (
    F2Matrix,
    Homology,
    SubspaceBasis,
    _local,
    _placed,
    rank_kernel_image,
    rank_of,
)
from .gralg import AlgebraPresentation, mono_lcm, polynomial_algebra
from .hochschild import BarWord, UChain

THEORY_BOUNDS = {
    "hh": (0, 0),
    "plus": (0, None),
    "minus": (None, 0),
    "per": (None, None),
    "pair": (-1, 0),  # two columns, whose d ranks B on HH (e2_page)
}

THEORY_ALIASES = {t: t for t in THEORY_BOUNDS} | {
    "hc": "plus", "hcminus": "minus", "hcper": "per"}


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


def _block_key(w: BarWord):
    """The multidegree of the whole word, which b and B preserve when the
    relations are monomial."""
    return tuple(map(sum, zip(w[0], *w[1])))


def _bar_tuples(A: AlgebraPresentation, k: int, e: int) -> dict:
    """group -> the tuples of k bars (reduced monomials other than 1) of
    internal degree e, sorted by the A.mono_key of each bar in turn: each
    first bar, then the sorted shorter tuples after it; group is the
    multidegree of the tuple for a monomial ideal, else None.  Memoised; the
    rank of each tuple in its group goes to A.memo("bar_rank"), so the
    tail and the init of every tuple, built on the way, have ranks too."""
    table = A.memo("bar_tuples")
    groups = table.get((k, e))
    if groups is None:
        groups = table[(k, e)] = {}
        if k == 0 and e == 0:
            groups[A.one if A.monomial_ideal else None] = [()]
        elif k > 0:
            # in mono_key order, 1 first; bars have degree 1 to e - k + 1
            # (graded) or 0
            pool = [m for e1 in range(e - k + 2 if A.graded else 1)
                    for m in A.degree_basis(e1)]
            for a in pool[1:]:
                rest = _bar_tuples(A, k - 1, e - A.mono_degree(a))
                for group, tails in rest.items():
                    if group is not None:
                        group = tuple(map(add, a, group))
                    groups.setdefault(group, []).extend((a,) + t
                                                        for t in tails)
        for tuples in groups.values():
            A.memo("bar_rank").update(zip(tuples, range(len(tuples))))
    return groups


@dataclass(frozen=True, eq=False)
class HochschildBasis:
    """The ordered basis of one C_{k,d}: its dimension, the (start, stop)
    range of each multidegree block, the runs of each block (head ->
    block-local position of its first word), the rank of every bar tuple in
    its group (A.memo("bar_rank"), shared by every k and d) and the (block
    key, head, bar tuples) of every run in basis order.  The word (h, bars)
    of block key sits at blocks[key][0] + runs[key][h] + ranks[bars]."""

    dim: int
    blocks: dict
    runs: dict
    ranks: dict
    heads: tuple

    @cached_property
    def words(self) -> tuple[BarWord, ...]:
        """Every word, in basis order; built on first read."""
        return tuple((h, t) for _, h, tuples in self.heads for t in tuples)

    def position(self, w: BarWord, key) -> Optional[int]:
        """The position of w, a word of block key; None if w is not here."""
        run = self.runs.get(key, {}).get(w[0])
        rank = self.ranks.get(w[1])
        if run is None or rank is None:
            return None
        j = self.blocks[key][0] + run + rank
        return j if j < self.dim and self.words[j] == w else None


def _hochschild_basis(A: AlgebraPresentation, k: int,
                      d: int) -> HochschildBasis:
    """The bar row's C_{k,d}: the normalized bar words with k bars and
    internal degree d, in an order of the word alone, so every slice that
    holds C_{k,d} shares this basis.  For a monomial ideal the words are
    grouped by _block_key, blocks in key order; otherwise they are one
    block, keyed None.  In a block the heads run in A.mono_key order, each
    followed by its bar tuples (_bar_tuples): words sorted by the mono_key
    of the head, then of each bar."""
    parts: dict = {}  # block key -> [(mono_key(h), h, bar tuples)]
    for e in range(d + 1) if k >= 0 and (A.graded or d == 0) else ():
        heads = A.degree_basis(d - e)  # e is the degree of the bars
        for group, tuples in _bar_tuples(A, k, e).items() if heads else ():
            for h in heads:
                key = None if group is None else tuple(map(add, h, group))
                parts.setdefault(key, []).append((A.mono_key(h), h, tuples))
    dim, blocks, runs, heads = 0, {}, {}, []
    for key in sorted(parts):
        start = dim
        run = runs[key] = {}
        for _, h, tuples in sorted(parts[key], key=itemgetter(0)):
            run[h] = dim - start
            heads.append((key, h, tuples))
            dim += len(tuples)
        blocks[key] = (start, dim)
    return HochschildBasis(dim, blocks, runs, A.memo("bar_rank"), tuple(heads))


def _mixed_columns(A: AlgebraPresentation, op: str, k: int,
                   src: HochschildBasis,
                   tgt: HochschildBasis) -> tuple[int, ...]:
    """The bar row's b: C_{k,d} -> C_{k-1,d} (op "b") or B: C_{k,d} ->
    C_{k+1,d} (op "B") from src into tgt.  An image word outside the
    target block of its word raises TowerError.  Bits are set at the
    target's positions (runs and bar ranks), and XOR is the sum in F2: b of
    h[a1|...|ak] is h a1[a2|...|ak] + ak h[a1|...|a(k-1)] + h b''[a1|...|ak],
    and B of h[bars], h not 1, the sum of the rotations of h, bars as bars
    of 1."""
    terms: dict = {}  # id of memoised bar tuples -> their _b_terms
    out: list[int] = []
    for key, h, tuples in src.heads:
        run = tgt.runs.get(key, {})
        try:
            if k == 0 if op == "b" else h == A.one:
                out.extend([0] * len(tuples))
            elif op == "B":
                out.extend(_B_run(A, h, tuples, run))
            else:
                if id(tuples) not in terms:
                    terms[id(tuples)] = _b_terms(A, k, tuples)
                out.extend(_b_run(A, h, tuples, terms[id(tuples)], run))
        except KeyError:
            raise TowerError(f"{op} leaves the multidegree block of "
                             f"a word with head {h}") from None
    return tuple(out)


def _b_terms(A: AlgebraPresentation, k: int, tuples: tuple) -> list:
    """(rank of a2...ak, rank of a1...a(k-1), b'' as a bitmask over bar
    ranks) of each tuple a1...ak of k >= 1 bars, where b'' sums the merges
    a1...(ai ai+1)...ak that are not scalars; the merged tuples must be
    ranked first, as the bars of C_{k-1,d} are."""
    rank = A.memo("bar_rank")
    one = A.one
    out = []
    for t in tuples:
        mid = 0
        for i in range(k - 1):
            for m in A.mul(t[i], t[i + 1]):
                if m != one:
                    mid ^= 1 << rank[t[:i] + (m,) + t[i + 2:]]
        out.append((rank[t[1:]], rank[t[:-1]], mid))
    return out


def _b_run(A: AlgebraPresentation, h, tuples: tuple, terms: list,
           run: dict) -> list[int]:
    """The b columns of the words h[t], t in tuples, on the target block
    whose runs are run; KeyError for a term outside it."""
    # bar a -> the target runs of the monomials of h a
    starts = {a: [run[m] for m in A.mul(h, a)]
              for a in {t[0] for t in tuples} | {t[-1] for t in tuples}}
    out = []
    for t, (tail, init, mid) in zip(tuples, terms):
        v = mid << run[h] if mid else 0  # h has a run wherever a merge does
        for s in starts[t[0]]:
            v ^= 1 << (s + tail)
        for s in starts[t[-1]]:
            v ^= 1 << (s + init)
        out.append(v)
    return out


def _B_run(A: AlgebraPresentation, h, tuples: tuple,
           run: dict) -> list[int]:
    """The B columns of the words h[t], t in tuples, h not 1, on the target
    block whose runs are run; KeyError for a term outside it."""
    rank = A.memo("bar_rank")
    at = run[A.one]
    out = []
    for t in tuples:
        cycle = (h,) + t
        v = 0
        for i in range(len(cycle)):
            v ^= 1 << rank[cycle[i:] + cycle[:i]]
        out.append(v << at)
    return out


@dataclass(frozen=True, eq=False)
class KoszulGroup:
    """K_{k,d} or (Omega_R)_{k,d}: its dimension, its one block (keyed
    None) and its pieces, (Y, G) -> (q, e, forms, offset): the words
    m y_Y dx_T dy^[G] for the forms m dx_T of free_forms(ring, q, e), at
    offset, offset + 1, ...  Its vectors are not bar chains, so vectorize
    and the maps of the exact sequences read bar slices only."""

    dim: int
    blocks: dict
    pieces: dict


def _koszul_resolution(A: AlgebraPresentation) -> tuple:
    """The Koszul row's (ring, relations, odd) for _form_group: K = A (x)
    Lambda(dx) (x) Gamma(t) = Omega_R (x)_R A, t_j = dy_j for the j-th
    element f_j of A.groebner, no y: b is the Koszul map t_j^[i] ->
    df_j t_j^[i-1] and B the de Rham d of the form.  chain_model selects it
    on an ungraded F2[x]/(f) only, where K is the small mixed complex, A t^[i]
    in degree 2i and A dx t^[i] in 2i + 1 (Buenos Aires Cyclic Homology
    Group, K-Theory 5, 1991): b is g -> f'g and B is g -> g' on even k.
    This B leaves out the homotopy-transfer term i ((g f') div f) on degree
    2i (from the Tate-de Rham model F2[x]<y>, dy = f), which changes no
    dimension and no truncation flag on any f of degree <= 6 at |n| <= 8,
    S <= 6, under the four theories, nor an E^2 page of theirs on any f of
    degree <= 3 at |s|, t <= 6 or of degree 4 at |s|, t <= 3."""
    return A, tuple((A.degree(f), *relation_forms(A, f))
                    for f in A.groebner), False


def _tate_resolution(A: AlgebraPresentation) -> Optional[tuple]:
    """The Tate row's (ring, relations, odd) for _form_group, or None:
    Omega_R of R = P<y_1..y_r>, dy_j = f_j, P = F2[x_1..x_g], for a graded
    A whose presented relations, less each one that those before it (by
    degree) generate, are a regular sequence f_1..f_r of degrees >= 2 (so
    that C_{k,d} = 0 for k > d, as _p_range needs).  They are one exactly
    when the Hilbert function of A equals the series of prod_j (1 -
    t^deg f_j) / prod_i (1 - t^w_i) up to the degree of both numerators
    (Bayer and Stillman, J. Symbolic Comput. 14, 1992); that of A, the
    numerator of P/LT(I), is at most the degree of lcm(A.lead_terms).
    Memoised."""
    table = A.memo("tate_resolution")
    if () not in table and A.graded:
        kept: list = []
        for f in sorted(A.relations, key=A.degree):
            if AlgebraPresentation(A.generators, A.degrees,
                                   tuple(kept)).normal_form(f):
                kept.append(f)
        degs = [A.degree(f) for f in kept]
        top = max(sum(degs), A.mono_degree(
            functools.reduce(mono_lcm, A.lead_terms, A.one)))
        series = [1] + [0] * top
        for w in A.degrees:  # 1 / (1 - t^w)
            for e in range(w, top + 1):
                series[e] += series[e - w]
        for w in degs:  # 1 - t^deg f_j
            for e in range(top, w - 1, -1):
                series[e] -= series[e - w]
        P = A if not A.groebner else polynomial_algebra(A.generators,
                                                        A.degrees)
        table[()] = (P, tuple((w, *relation_forms(P, f)) for w, f in zip(
            degs, kept)), True) if min(degs, default=2) >= 2 and series == [
                len(A.degree_basis(e)) for e in range(top + 1)] else None
    return table.get(())


def _form_group(resolution, A: AlgebraPresentation, k: int,
                d: int) -> KoszulGroup:
    """The group at (k, d) of the form row whose (ring, relations, odd)
    resolution(A) gives, relations holding (deg f_j, f_j, df_j): the words
    m y_Y dx_T dy^[G], m a monomial of ring, Y empty unless odd, with
    k = |Y| + |T| + 2|G| and d = deg m + sum_T w_i + sum_Y deg f_j +
    sum_j G_j deg f_j, one piece per (Y, G), in one block: one block ranks
    faster than multidegree blocks here, as the groups are small."""
    ring, rels, odd = resolution(A)
    r = len(rels)
    pieces, dim = {}, 0
    for Y in (Y for y in range(r + 1 if odd else 1)
              for Y in itertools.combinations(range(r), y)):
        for s in range(max(0, k - len(Y) - A.ngens + 1) // 2,
                       (k - len(Y)) // 2 + 1):
            for c in itertools.combinations_with_replacement(range(r), s):
                e = d - sum(rels[j][0] for j in Y + c)
                if e >= 0:
                    forms = free_forms(ring, k - len(Y) - 2 * s, e)
                    G = tuple(map(c.count, range(r)))
                    pieces[Y, G] = (k - len(Y) - 2 * s, e, forms, dim)
                    dim += len(forms)
    return KoszulGroup(dim, {None: (0, dim)}, pieces)


def _form_columns(resolution, A: AlgebraPresentation, op: str, k: int,
                  src: KoszulGroup, tgt: KoszulGroup) -> tuple[int, ...]:
    """b: C_{k,d} -> C_{k-1,d} (op "b") or B: C_{k,d} -> C_{k+1,d} (op "B")
    of the form row of resolution, from src into tgt, piece by piece
    (derham.form_piece on its ring); no signs over F2.  b is the derivation
    y_j -> f_j, dy_j^[a] -> df_j dy_j^[a-1]; B is the de Rham d of m dx_T
    at the same (Y, G) plus y_j -> dy_j, which takes G_j to G_j + 1 with
    the coefficient G_j + 1.  On Omega_R both act on polynomials, with no
    normal form, so b b = B B = b B + B b = 0 exactly.  The target lacks a
    piece only where the term is zero (|T| = g)."""
    ring, rels, _ = resolution(A)
    cols = []
    for (Y, G), (q, e, forms, _) in src.pieces.items():
        terms = [((Y, G), form_piece(ring, None, q, e))] if op == "B" else []
        for j in range(len(rels)):
            Yj = tuple(i for i in Y if i != j)
            Gj = G[:j] + (G[j] + (1 if op == "B" else -1),) + G[j + 1:]
            if op == "b":
                if j in Y:
                    terms.append(((Yj, G), form_piece(ring, rels[j][1], q, e)))
                if G[j]:
                    terms.append(((Y, Gj), form_piece(ring, rels[j][2], q, e)))
            elif j in Y and G[j] % 2 == 0:
                terms.append(((Yj, Gj), [1 << i for i in range(len(forms))]))
        part = [0] * len(forms)
        for key, piece in terms:
            if key in tgt.pieces:
                off = tgt.pieces[key][3]
                part = [v ^ (w << off) for v, w in zip(part, piece)]
        cols.extend(part)
    return tuple(cols)


def chain_model(A: AlgebraPresentation) -> str:
    """The model whose chain groups compute and spectral read: "tate" on
    every graded input whose presented relations form a regular sequence
    (_tate_resolution), polynomial rings among them; "koszul" on ungraded
    input on one generator; else "bar"."""
    if _tate_resolution(A) is not None:
        return "tate"
    return "koszul" if not A.graded and A.ngens == 1 else "bar"


# name -> (builder of C_{k,d}, builder of its b or B columns), read only by
# chain_group and chain_columns; the column of a word of C_{k,d} has bit i
# for position start + i of C_{k-1,d} or C_{k+1,d}, where its block starts.
CHAIN_MODELS = {"bar": (_hochschild_basis, _mixed_columns)} | {
    name: (partial(_form_group, res), partial(_form_columns, res))
    for name, res in (("koszul", _koszul_resolution),
                      ("tate", _tate_resolution))}


def chain_group(A: AlgebraPresentation, model: str, k: int, d: int):
    """C_{k,d} of the chain model; memoised, so every slice shares it."""
    table = A.memo("chain_group")
    group = table.get((model, k, d))
    if group is None:
        group = table[(model, k, d)] = CHAIN_MODELS[model][0](A, k, d)
    return group


def chain_columns(A: AlgebraPresentation, model: str, op: str, k: int,
                  d: int) -> tuple[int, ...]:
    """b: C_{k,d} -> C_{k-1,d} (op "b") or B: C_{k,d} -> C_{k+1,d} (op
    "B") of the chain model, placed as in CHAIN_MODELS; memoised."""
    table = A.memo("chain_columns")
    cols = table.get((model, op, k, d))
    if cols is None:
        tgt = chain_group(A, model, k - 1 if op == "b" else k + 1, d)
        cols = table[(model, op, k, d)] = CHAIN_MODELS[model][1](
            A, op, k, chain_group(A, model, k, d), tgt)
    return cols


@dataclass(frozen=True)
class TowerSlice:
    """One total degree of a truncated tower, with a fixed ordered basis:
    column p = p_min + c is the shared basis parts[c] of C_{n-2p,d},
    starting at position offsets[c]; offsets ends with the dimension.  model
    names the mixed complex of the chain groups, a key of CHAIN_MODELS."""

    theory: str
    n: int
    d: int
    S: int
    model: str
    p_min: int
    p_max: int
    truncated: bool
    parts: tuple[HochschildBasis | KoszulGroup, ...]
    offsets: tuple[int, ...]

    @property
    def dim(self) -> int:
        return self.offsets[-1]

    def columns(self):
        """(p, basis of C_{n-2p,d}, offset) of every column, left to right."""
        return zip(range(self.p_min, self.p_max + 1), self.parts,
                   self.offsets)

    @cached_property
    def blocks(self) -> dict:
        """key -> segments of every multidegree block of the slice: a
        segment (p, start, stop, local) puts words start..stop of column p
        at block-local positions local, local + 1, ...; segments run left
        to right, so block-local order is slice order."""
        layout: dict = {}
        for p, hb, _ in self.columns():
            for key, (start, stop) in hb.blocks.items():
                segments = layout.setdefault(key, [])
                segments.append((p, start, stop, _block_dim(segments)))
        return layout

    def runs(self) -> tuple:
        """The (slice position, block-local position, length) runs of each
        block, in the order of blocks."""
        return tuple(
            tuple((self.offsets[p - self.p_min] + start, local, stop - start)
                  for p, start, stop, local in segments)
            for segments in self.blocks.values())


def _block_dim(segments) -> int:
    if not segments:
        return 0
    _, start, stop, local = segments[-1]
    return local + stop - start


def _p_range(A: AlgebraPresentation, t: str, n: int, d: int,
             S: int) -> tuple[int, int, bool]:
    """(p_min, p_max, truncated): the columns of the slice of theory key t
    at (n, d) and depth S, none if p_min > p_max."""
    alpha, beta = THEORY_BOUNDS[t]
    if not A.graded and d != 0:
        return 0, -1, False
    p_max = n // 2 if beta is None else min(n // 2, beta)  # n - 2p >= 0 bars
    if alpha is not None or A.graded:  # ceil((n - d) / 2): at most d bars
        return -((d - n) // 2) if alpha is None else alpha, p_max, False
    if S < 1:
        raise TowerError("S >= 1 required for an infinite left bound")
    return -S, p_max, True


def build_tower(A: AlgebraPresentation, theory: str, n: int, d: int,
                S: int = 1, model: str = "bar") -> TowerSlice:
    """Assemble the degree-n slice of T^{alpha,beta} at internal degree d
    on the chain groups of the model."""
    t = theory_key(theory)
    if model not in CHAIN_MODELS:
        raise TowerError(f"unknown chain model {model!r}")
    p_min, p_max, truncated = _p_range(A, t, n, d, S)
    key = (t, n, d, S if truncated else 0, model)
    cache = A.memo("tower")
    if key in cache:
        return cache[key]
    parts = tuple(chain_group(A, model, n - 2 * p, d)
                  for p in range(p_min, p_max + 1))
    offsets = tuple(itertools.accumulate((g.dim for g in parts), initial=0))
    cache[key] = TowerSlice(*key, p_min, p_max, truncated, parts, offsets)
    return cache[key]


def vectorize(A: AlgebraPresentation, sl: TowerSlice, x: UChain) -> int:
    """Coordinates of a u-chain in a slice basis (bitmask).

    On a truncated slice, components below the truncation window are
    dropped (the quotient-complex projection); otherwise any missing word is
    an error.  u-chains hold bar words, so a slice of another model is too.
    """
    if sl.model != "bar":
        raise TowerError(f"vectorize reads bar slices, not {sl.model!r}")
    v = 0
    for i, c in x.entries:
        col = -i - sl.p_min
        if col < 0 and sl.truncated:
            continue
        hb = sl.parts[col] if 0 <= col < len(sl.parts) else None
        for w in c:
            j = None if hb is None else hb.position(
                w, _block_key(w) if A.monomial_ideal else None)
            if j is None:
                raise TowerError(f"chain component {(-i, w)} outside slice")
            v ^= 1 << (sl.offsets[col] + j)
    return v


def _chunks(sl: TowerSlice, v: int):
    """(p, basis, offset, coordinates in that basis) of every column where
    the slice vector v is nonzero; columns outside v's bit range are
    skipped without shifting v."""
    low = (v & -v).bit_length() - 1
    high = v.bit_length()
    for p, hb, off in sl.columns():
        size = hb.dim
        if off >= high:
            break
        if off + size > low:
            chunk = (v >> off) & ((1 << size) - 1)
            if chunk:
                yield p, hb, off, chunk


def _block_columns(A: AlgebraPresentation, src: TowerSlice, tgt: TowerSlice,
                   key) -> list[int]:
    """Columns of B + b from src (degree n) to tgt (degree n - 1) on the
    block key of src, in the block-local coordinates of the block key of
    tgt (zero if tgt has no such block).  b of C_{n-2p,d} lands in column
    p of tgt and B in column p - 1.  A component with no place in tgt is
    cut: its column is past the truncation or bound of tgt, or tgt lacks
    the block there, where chain_columns has checked it is zero."""
    place = {p: local for p, _, _, local in tgt.blocks.get(key, ())}
    cols: list[int] = []
    for p, start, stop, _ in src.blocks[key]:
        k = src.n - 2 * p
        part = [0] * (stop - start)
        for op, off in (("b", place.get(p)), ("B", place.get(p - 1))):
            if off is not None:
                image = chain_columns(A, src.model, op, k, src.d)
                part = [v ^ (w << off)
                        for v, w in zip(part, image[start:stop])]
        cols.extend(part)
    return cols


def slice_differential(A: AlgebraPresentation, src: TowerSlice,
                       tgt: TowerSlice, v: int) -> int:
    """B + b of a vector v of the slice src (degree n), as a vector of tgt
    (degree n - 1): on each block of src that v meets, the _block_columns
    that v selects, placed along the runs of that block of tgt."""
    into = dict(zip(tgt.blocks, tgt.runs()))
    out = 0
    for key, runs in zip(src.blocks, src.runs()):
        local = _local(v, runs)
        if local:
            block = F2Matrix(_block_dim(tgt.blocks.get(key)),
                             tuple(_block_columns(A, src, tgt, key)))
            out ^= _placed(block.apply(local), into.get(key, ()))
    return out


def _shape_key(A: AlgebraPresentation, t: str, n: int, d: int, S: int,
               model: str = "bar") -> tuple:
    """The shape of d_n: T_n -> T_{n-1} on the chain groups of the model:
    (d, columns of T_n, columns of T_{n-1}, model), columns being the k of
    C_{k,d} at the left and right ends of a slice, () if it is empty.
    _block_columns reads only these (b sends C_k to the column of C_{k-1},
    B to that of C_{k+1}), so d_n of one shape have equal blocks and block
    columns, whatever the theory, n or depth.  The towers are periodic
    (Loday, Cyclic Homology, 5.1): graded, the minus slice at n <= 1 and
    the periodic one hold every C_{k,d} with k <= d and k = n mod 2;
    ungraded, the periodic slice at depth S + 1 is the one at n + 2 and
    depth S."""
    def columns(m: int) -> tuple:
        p_min, p_max, _ = _p_range(A, t, m, d, S)
        return (m - 2 * p_min, m - 2 * p_max) if p_min <= p_max else ()
    return d, columns(n), columns(n - 1), model


def differential_ranks(A: AlgebraPresentation, theory: str, n: int, d: int,
                       S: int = 3, model: str = "bar") -> dict:
    """Block key -> rank of that block of d_n: T_n -> T_{n-1}, ranked once
    per shape of d_n.  Unless differential_bases has recorded them, each
    block's columns are reduced by rank_of in slice order, first to last,
    on the highest bit (a rank keeps no basis; bases pivot on the lowest
    bit, last first), and nothing else is kept.  As
    d_{n-1} d_n = 0 = d_n d_{n+1}, a block's rank is at most rows - its
    rank in d_{n-1} and cols - its rank in d_{n+1}, and rank_of stops at
    the bound that the neighbours' shapes, once memoised, give."""
    t = theory_key(theory)
    table = A.memo("differential_rank")
    shape = _shape_key(A, t, n, d, S, model)
    ranks = table.get(shape)
    if ranks is None:
        src, tgt = (build_tower(A, t, m, d, S, model) for m in (n, n - 1))
        below = table.get(_shape_key(A, t, n - 1, d, S, model), {})
        above = table.get(_shape_key(A, t, n + 1, d, S, model), {})
        ranks = table[shape] = {
            key: rank_of(_block_columns(A, src, tgt, key), min(
                _block_dim(tgt.blocks.get(key)) - below.get(key, 0),
                _block_dim(segments) - above.get(key, 0)))
            for key, segments in src.blocks.items()}
    return ranks


def differential_bases(A: AlgebraPresentation, theory: str, n: int, d: int,
                       S: int = 3, model: str = "bar") -> dict:
    """Block key -> kernel and image of that block of d_n: T_n -> T_{n-1},
    that is the cycles of the block of T_n and the boundaries of the same
    block of T_{n-1}, in block-local coordinates, from one tracked
    elimination per block and shape; memoised, so every homology beside a
    d_n of that shape shares it, and its ranks go to differential_ranks."""
    t = theory_key(theory)
    table = A.memo("differential")
    shape = _shape_key(A, t, n, d, S, model)
    pairs = table.get(shape)
    if pairs is None:
        src, tgt = (build_tower(A, t, m, d, S, model) for m in (n, n - 1))
        pairs = table[shape] = {}
        for key in src.blocks:
            rows = _block_dim(tgt.blocks.get(key))
            _, kernel, image = rank_kernel_image(
                F2Matrix(rows, tuple(_block_columns(A, src, tgt, key))))
            pairs[key] = (kernel, image)
        A.memo("differential_rank").setdefault(
            shape, {key: image.dim for key, (_, image) in pairs.items()})
    return pairs


@dataclass(frozen=True)
class HomologyPresentation(Homology):
    """The homology of one tower slice on slice vectors, the direct sum of
    its multidegree blocks, which slice.runs() places.  Made by homology()
    without bases, it reads dim and its bases from d_n and d_{n+1} on first
    read.  It is stored in a memo table of its algebra, so it holds the
    algebra weakly: no reference cycle may run through an algebra."""

    theory: str
    n: int
    d: int
    S: int
    slice: TowerSlice
    algebra: Optional[weakref.ref] = field(default=None, repr=False,
                                           compare=False)

    def _sides(self, of) -> tuple[dict, dict]:
        """of(A, theory, m, d, S, model) for d_m = d_n and d_{n+1}."""
        A = self.algebra()
        if A is None:
            raise TowerError("the algebra of this homology is gone")
        return tuple(of(A, self.theory, self.n + k, self.d, self.S,
                        self.slice.model) for k in (0, 1))

    def _ranked_dim(self) -> int:
        # a block of T_n that T_{n+1} lacks has no boundaries
        out, into = self._sides(differential_ranks)
        return sum(_block_dim(segments) - out[key] - into.get(key, 0)
                   for key, segments in self.slice.blocks.items())

    def _eliminate(self) -> tuple:
        # a block of T_n that T_{n+1} lacks has no boundaries
        out, into = self._sides(differential_bases)
        return tuple(
            (out[key][0], into[key][1] if key in into
             else SubspaceBasis(_block_dim(segments)))
            for key, segments in self.slice.blocks.items())


def homology(A: AlgebraPresentation, theory: str, n: int, d: int,
             S: int = 3, model: str = "bar") -> HomologyPresentation:
    """Homology of the chosen tower in bidegree (n, d), truncated at depth
    S where the tower is infinite (see truncation), on the chain groups of
    the model; memoised.

    Nothing is eliminated here: the record's dim comes from the ranks of
    d_n and d_{n+1}, and its bases from their shared eliminations, each
    when first read.
    """
    t = theory_key(theory)
    sl = build_tower(A, t, n, d, S, model)
    cache = A.memo("homology")
    depth = (t, n, d, sl.S, model)  # S only where truncated at -S
    pres = cache.get(depth)
    if pres is None:
        pres = cache[depth] = HomologyPresentation(
            sl.dim, sl.runs(), None, theory=t, n=n, d=d, S=S, slice=sl,
            algebra=weakref.ref(A))
    return pres


class Truncation(NamedTuple):
    """The check of a homology truncated at depth S against depth S + 1.

    flag is "stable" or "truncation-limited"; persistent is the rank of
    the classes of the depth-S homology that lift one column deeper (None
    where the tower is not truncated)."""

    flag: str
    persistent: Optional[int]


def truncation(A: AlgebraPresentation,
               H: HomologyPresentation) -> Truncation:
    """The check of H, a homology at depth S, against depth S + 1, from
    memoised block ranks alone: nothing is eliminated.

    A tower that is not truncated is exact.  Otherwise the projection pi
    of T^{S+1} onto T^S drops column -(S+1); it is a chain map, so every
    depth-S boundary lifts, and the image of the homology at S + 1 is
    pi(Z^{S+1}_n) / B^S_n.  pi kills on Z^{S+1}_n the b-cycles of the new
    column C_{n+2S+2} (its B leaves the tower), so the persistent rank is
    dim T^S_n - rank d_n^{S+1} + rank(b on C_{n+2S+2}) - rank d_{n+1}^S,
    that b being d of the hh slice at n + 2S + 2; the dim at S + 1 comes
    from the ranks of d_n and d_{n+1} there.  The flag is stable only if
    the dimensions agree and the projection is an isomorphism."""
    if not H.slice.truncated:
        return Truncation("stable", None)
    t, n, d, S, model = H.theory, H.n, H.d, H.S, H.slice.model

    def rank(theory: str, m: int, depth: int) -> int:
        return sum(differential_ranks(A, theory, m, d, depth, model).values())

    deep = rank(t, n, S + 1)
    persistent = (H.slice.dim - deep + rank("hh", n + 2 * S + 2, S + 1)
                  - rank(t, n + 1, S))
    deeper = (build_tower(A, t, n, d, S + 1, model).dim - deep
              - rank(t, n + 1, S + 1))
    stable = H.dim == deeper == persistent
    return Truncation("stable" if stable else "truncation-limited", persistent)


# ----- maps of the three long exact sequences -----

def class_map(src: HomologyPresentation, tgt: HomologyPresentation,
              chain_map) -> F2Matrix:
    """Matrix of a chain-level map on homology classes.

    chain_map takes a slice vector of src and returns a slice vector of tgt;
    it must send cycles to cycles and boundaries to boundaries.  The rows
    come from tgt's bases, never a rank pass apart, even if src has none.
    """
    cols = [tgt.coords(chain_map(z)) for z in src.complement]
    return F2Matrix(len(tgt.complement), tuple(cols))


def slice_shift_map(src: TowerSlice, tgt: TowerSlice, shift: int):
    """Vector map moving column p to p + shift, dropping cut components.

    Column p of src and column p + shift of tgt must hold the same C_{k,d},
    hence the same shared basis, so each column moves as one block."""

    def f(v: int) -> int:
        out = 0
        for p, hb, _, chunk in _chunks(src, v):
            col = p + shift - tgt.p_min
            if col < 0:
                continue
            if col >= len(tgt.parts) or tgt.parts[col] is not hb:
                raise TowerError(f"shifted column {p + shift} outside slice")
            out ^= chunk << tgt.offsets[col]
        return out

    return f


def connecting_map(A: AlgebraPresentation, N: TowerSlice, L1: TowerSlice,
                   M: TowerSlice, M1: TowerSlice, p_shift: int, i_shift: int):
    """Snake-lemma connecting homomorphism N_n -> L_{n-1} of a short exact
    sequence of towers that splits column by column, as the chain map on
    slice vectors that class_map reads; M and M1 are the slices M_n and
    M_{n-1}.

    p: M -> N moves column p to p + p_shift and i: L -> M moves column p to
    p + i_shift, so a cycle z of N_n lifts to x in M_n by the shift -p_shift
    and its slice differential dx comes back to L_{n-1} by the shift
    -i_shift.  Both steps are checked exactly: p(x) = z and i(w) = dx.
    """
    lift, p_map = (slice_shift_map(N, M, -p_shift),
                   slice_shift_map(M, N, p_shift))
    back, i_map = (slice_shift_map(M1, L1, -i_shift),
                   slice_shift_map(L1, M1, i_shift))

    def f(z: int) -> int:
        x = lift(z)
        if p_map(x) != z:
            raise TowerError("connecting map: lift failed")
        dx = slice_differential(A, M, M1, x)
        w = back(dx)
        if i_map(w) != dx:
            raise TowerError("connecting map: boundary not in subcomplex")
        return w

    return f


class SES(NamedTuple):
    """A short exact sequence of towers 0 -> L -> M -> N -> 0.

    towers: (theory, degree offset) of L, M and N, so that L_n is the
    degree n + offset slice of its theory; shifts: the column shifts of
    the inclusion i: L -> M and of the projection p: M -> N.
    """

    towers: tuple[tuple[str, int], tuple[str, int], tuple[str, int]]
    shifts: tuple[int, int]


# The minus sequence (L = columns <= -1 of T^minus, N = column 0), Connes'
# SBI sequence and the periodic sequence (L = columns <= 0 of T^per);
# Loday, Cyclic Homology, 1992, section 5.1.
SEQUENCES = {
    "minus_les": SES((("minus", 2), ("minus", 0), ("hh", 0)), (-1, 0)),
    "connes": SES((("hh", 0), ("plus", 0), ("plus", -2)), (0, -1)),
    "per_les": SES((("minus", 0), ("per", 0), ("plus", -2)), (0, -1)),
}


def les_map(A: AlgebraPresentation, which: str, name: str, n: int, d: int,
            S: int = 3) -> tuple[F2Matrix, HomologyPresentation,
                                 HomologyPresentation]:
    """(matrix, source, target) of one class map of a long exact sequence
    of SEQUENCES at degree n: "i": L_n -> M_n, "p": M_n -> N_n or the
    connecting map "bd": N_n -> L_{n-1}.

    L sits in M moved by the column shift of i, so for ungraded algebras
    its towers are truncated at S + shift: the columns of M at depth S.
    Source and target are the homology records at that depth, without the
    check of truncation().
    """
    if which not in SEQUENCES or name not in ("i", "p", "bd"):
        raise TowerError(f"unknown map {name!r} of sequence {which!r}")
    towers, (i_shift, p_shift) = SEQUENCES[which]

    def space(corner: int, m: int) -> HomologyPresentation:  # L, M, N
        theory, offset = towers[corner]
        depth = S + i_shift if corner == 0 and not A.graded else S
        return homology(A, theory, m + offset, d, depth)

    if name == "bd":
        src, tgt = space(2, n), space(0, n - 1)
        f = connecting_map(A, src.slice, tgt.slice, space(1, n).slice,
                           space(1, n - 1).slice, p_shift, i_shift)
    else:
        k = name == "p"
        src, tgt = space(k, n), space(k + 1, n)
        f = slice_shift_map(src.slice, tgt.slice, (i_shift, p_shift)[k])
    return class_map(src, tgt, f), src, tgt


# ----- the column-filtration spectral sequence -----

def e1_page(A: AlgebraPresentation, alpha: Optional[int], beta: Optional[int],
            s: int, t: int, d: int, model: str = "bar"):
    """E^1_{s,t} = HH_{t-s} at internal degree d, zero outside [alpha, beta]."""
    if (alpha is not None and s < alpha) or (beta is not None and s > beta):
        return None
    return homology(A, "hh", t - s, d, model=model)


def e2_page(A: AlgebraPresentation, alpha, beta, s: int, t: int, d: int,
            model: str = "bar") -> int:
    """Dimension of E^2_{s,t}: dim E^1 - rank d^1 out - rank d^1 in, d^1 =
    B_*: HH_k -> HH_{k+1} from (s, t), k = t - s, to (s - 1, t).  The pair
    slice W_k = C_k + C_{k+2} has d(x, y) = (bx, Bx + by), with kernel
    {(z, y): bz = 0, Bz = by}, so it ranks B_* + b_k + b_{k+2}."""
    e1 = e1_page(A, alpha, beta, s, t, d, model)
    if e1 is None:
        return 0

    def rank(theory: str, m: int) -> int:
        return sum(differential_ranks(A, theory, m, d, model=model).values())

    def d1(k: int) -> int:  # the rank of B_*: HH_k -> HH_{k+1}
        return rank("pair", k) - rank("hh", k) - rank("hh", k + 2)

    return (e1.dim - (d1(t - s) if alpha is None or s > alpha else 0)
            - (d1(t - s - 1) if beta is None or s < beta else 0))
