"""Shared test plumbing: echo acceptance pass/fail lines past capture, the
default hypothesis profile and its random small presentations, the
augmentation, u-chain, Omega[u], report, model-map, Cartier, exactness,
subspace-containment and class-coordinate helpers that only the tests use,
a counter of the eliminations the towers run, and the slow shuffle-table,
word-set b, B, chain-group, elimination, differential, truncation-check,
E2-page, connecting-map, monomial-product, relation-instance, relation-row
and commuting-square oracles."""

import itertools
from functools import partial

from hypothesis import settings, strategies as st

from cyclo2.approx import _eps_matrix, psi_generator_image, psi_matrix
import cyclo2.cyclic as cyclic
import cyclo2.f2linalg as f2linalg
from cyclo2.cyclic import (
    HomologyPresentation,
    Truncation,
    _block_columns,
    _block_dim,
    _block_key,
    _chunks,
    bidegree_window,
    build_tower,
    chain_columns,
    chain_group,
    class_map,
    e1_page,
    homology,
    les_map,
    slice_shift_map,
    vectorize,
)
from cyclo2.derham import cartier, de_rham_cohomology, omega_basis
from cyclo2.ell import (
    MODELS,
    ZERO_ELL,
    EllError,
    _arg_pool,
    _element_bidegree,
    _instances,
    _phi_fold,
    del_el,
    el_mul,
    ell_degree_basis,
    ell_monomials,
    gamma_el,
    map_bd,
    map_D,
    map_I,
    map_iota,
    map_r,
    map_S,
    map_tau,
    map_u,
    model_matrix,
    per_monomials,
    phi_el,
    plus_monomials,
    q_el,
    v_mon,
)
from cyclo2.f2linalg import (
    F2LinalgError,
    F2Matrix,
    Homology,
    SubspaceBasis,
    complement_basis,
    echelonize_in,
    null_space,
    rank_of,
)
from cyclo2.gralg import AlgebraPresentation, AugmentationError
from cyclo2.hochschild import ChainError, UChain, mu_chain

# Fixed examples and no deadline: every run draws the same cases in bounded
# time.  Another profile can still be chosen with --hypothesis-profile.
settings.register_profile("cyclo2", derandomize=True, max_examples=100,
                          deadline=None, database=None)
settings.load_profile("cyclo2")

_ACCEPTANCE_LINES: list[str] = []


def acceptance_line(line: str):
    print(line)
    _ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


# ----- random small presentations for the property tests -----

def ungraded_x(*exponents, name):
    """F2[x]/(f), f the sum of x^e over the exponents."""
    return AlgebraPresentation(("x",), (0,),
                               (frozenset((e,) for e in exponents),),
                               graded=False, name=name)


@st.composite
def small_presentations(draw):
    """Graded presentations on 1-2 generators of weight 1-3 with at most
    one homogeneous monomial or binomial relation, and ungraded F2[x]/(f)
    with deg f = 2 or 3."""
    if draw(st.booleans()):
        k = draw(st.sampled_from((2, 3)))
        low = draw(st.sets(st.integers(0, k - 1)))
        return ungraded_x(k, *sorted(low), name=f"F2[x]/{k}/{sorted(low)}")
    weights = tuple(draw(st.lists(st.integers(1, 3), min_size=1,
                                  max_size=2)))
    names = ("x", "y")[:len(weights)]
    kind = draw(st.sampled_from(("none", "monomial", "binomial")))
    rels = ()
    if kind != "none":
        exps = st.tuples(*[st.integers(0, 3)] * len(weights))
        m1 = draw(exps.filter(any))
        deg = sum(e * w for e, w in zip(m1, weights))
        others = [m for m in itertools.product(range(deg + 1),
                                               repeat=len(weights))
                  if m != m1 and sum(e * w for e, w in zip(m, weights)) == deg]
        rel = {m1}
        if kind == "binomial" and others:
            rel.add(draw(st.sampled_from(others)))
        rels = (frozenset(rel),)
    return AlgebraPresentation(names, weights, rels,
                               name=f"{weights}/{[sorted(r) for r in rels]}")


@st.composite
def generic_forms(draw):
    """Graded F2[x_1..x_g], g <= 3 of weight 1 or 2, modulo at most g
    forms of chosen degrees 2 and 3, each a random nonzero sum of the
    monomials of its degree: mostly regular sequences, some not."""
    weights = tuple(draw(st.lists(st.integers(1, 2), min_size=1,
                                  max_size=3)))
    rels = []
    for deg in draw(st.lists(st.integers(2, 3), max_size=len(weights))):
        monos = [m for m in itertools.product(range(deg + 1),
                                              repeat=len(weights))
                 if sum(e * w for e, w in zip(m, weights)) == deg]
        if monos:
            rels.append(frozenset(draw(st.sets(st.sampled_from(monos),
                                               min_size=1))))
    return AlgebraPresentation("xyz"[:len(weights)], weights, tuple(rels),
                               name=f"{weights}/{[sorted(r) for r in rels]}")


# ----- augmentation, u-chain, Omega[u], report, model-map, Cartier and
# exactness helpers that only the tests use -----

def augment(A, p):
    """The augmentation homomorphism of A on a reduced element."""
    if not A.supplemented:
        raise AugmentationError(
            "algebra is not supplemented (default augmentation "
            "inconsistent with the relations)")
    return A._eval_aug_poly(frozenset(p))


def unit_uchain(A, theory="minus", exponent=0):
    """The unit 1[] at u-exponent exponent, as a chain of the theory."""
    return UChain.make(theory, {exponent: frozenset({(A.one, ())})})


def scale_u(x, k=1):
    """Multiply by u^k (shift exponents); plus-theory overflow is quotiented."""
    acc = {}
    for i, c in x.entries:
        e = i + k
        if x.theory == "minus" and e < 0:
            raise ChainError("u^-1 does not act on minus chains")
        if x.theory == "plus" and e > 0:
            continue
        acc[e] = c
    return UChain.make(x.theory, acc)


def total_degrees(A, x):
    """(homological, internal) bidegree of a u-chain; requires
    homogeneity."""
    homs = set()
    ints = set()
    for i, c in x.entries:
        for head, bars in c:
            homs.add(len(bars) - 2 * i)
            ints.add(A.mono_degree(head) + sum(map(A.mono_degree, bars)))
    if len(homs) > 1 or len(ints) > 1:
        raise ChainError("inhomogeneous u-chain")
    return (homs.pop() if homs else 0, ints.pop() if ints else 0)


def non_iso_entries(report):
    """The not_iso verdicts of an ApproxReport."""
    return [e for e in report.entries if e.verdict == "not_iso"]


def omega_u_reduce(A, el):
    """Coordinates of an Omega[u] element: per u-power, reduced in Omega."""
    by_j = {}
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


def mul_u_matrix(A, flavor, n, d):
    """Multiplication by u from (n, d) to (n - 2, d + 2), on ell or ell+."""
    return model_matrix(A, ((flavor, 0), (flavor, -2), map_u), n, d)


def model_sequence(A, theory, n, d):
    """Four consecutive maps of the modelled sequence MODELS[theory]: its
    three maps around (n, d), then the first again around (n - 1, d + 1)."""
    entries = list(MODELS[theory].values())
    return [model_matrix(A, e, n, d)[0] for e in entries] + [
        model_matrix(A, entries[0], n - 1, d + 1)[0]]


def tau_matrix(A, nform, D):
    """tau from Omega^nform at internal D to ell (nform + 1, D - nform - 1)."""
    return model_matrix(A, MODELS["minus"]["tau"], nform, D - nform)


def cartier_bijective(A, n, d):
    """Whether the Cartier map Omega^n_d -> H_DR^n at internal 2d is a
    bijection."""
    src = omega_basis(A, n, d)
    target = de_rham_cohomology(A, n, 2 * d)
    cols = [cartier(A, frozenset({g}), n, d) for g in src.basis()]
    return rank_of(cols) == src.dim == target.dim


def exactness_defects(A, which, n, d, S=3):
    """rank f + rank g - dim(middle), plus 1 if g f is not zero, at each
    joint f, g of the long exact sequence which at degree n: M_n, N_n and
    L_{n-1} (all 0 iff exact), its maps les_map i, p and bd at n and i at
    n - 1, each joint checked to be one homology record."""
    maps = [les_map(A, which, name, n, d, S) for name in ("i", "p", "bd")]
    maps.append(les_map(A, which, "i", n - 1, d, S))
    out = {}
    for joint, (f, _, mid), (g, src, _) in zip(("M_n", "N_n", "L_n1"),
                                               maps, maps[1:]):
        assert src is mid, (A.name, which, n, joint)
        out[f"at_{joint}"] = abs(rank_of(f.columns) + rank_of(g.columns)
                                 - mid.dim) + \
            (0 if g.compose(f).is_zero() else 1)
    return out


def contains_subspace(big, small):
    """Whether the span of the SubspaceBasis small lies in that of big."""
    return all(big.reduce(v) == 0 for v in small.vectors)


def quotient_coordinates(cycles, boundaries, v):
    """Coordinates (a bitmask) of the class [v] in the Homology of cycles
    modulo boundaries; raises if boundaries are not inside cycles or v is
    not a cycle."""
    if not contains_subspace(cycles, boundaries):
        raise F2LinalgError("boundary space not contained in cycle space")
    return Homology.of(cycles, boundaries).coords(v)


def assembled_bases(h):
    """The cycles and boundaries of the Homology h on its whole ambient
    space: both sides of every block pair placed bit by bit along the
    block's runs and sorted by lowest bit (the RREF of a sum of subspaces
    on disjoint coordinates is the union of their RREFs)."""
    places = [[ambient + j for ambient, _, length in runs
               for j in range(length)] for runs in h.runs]

    def placed(v, where):
        return sum(1 << where[j] for j in range(v.bit_length()) if v >> j & 1)

    return tuple(
        SubspaceBasis(h.ambient_dim, tuple(sorted(
            (placed(v, where) for where, pair in zip(places, h.pairs)
             for v in pair[side].vectors), key=lambda v: v & -v)))
        for side in (0, 1))


def oracle_class_coordinates(comp, boundaries, v):
    """Coordinates of the class [v] in the complement basis comp: bit k is
    the coefficient of comp[k]."""
    r = boundaries.reduce(v)
    coords = 0
    for k, w in enumerate(comp):
        if (r >> ((w & -w).bit_length() - 1)) & 1:
            r ^= w
            coords |= 1 << k
    if r != 0:
        raise F2LinalgError("vector is not a cycle")
    return coords


# ----- the eliminations of the towers, counted -----

class CountedReductions:
    """Counts, by monkeypatching, the block columns _block_columns builds
    and which of them rank_of ranks, null_space eliminates and
    echelonize_in spans, tagging each reduction with the columns built
    just before it (None if there are none): a tag is ((theory, n, d, S)
    of the source slice, the same of the target, block key)."""

    def __init__(self, monkeypatch):
        self.built, self.ranked, self.eliminated, self.spans = [], [], [], []
        last = []
        block_columns = cyclic._block_columns

        def tag(sl):
            return sl.theory, sl.n, sl.d, sl.S

        def counting_columns(A, src, tgt, key):
            self.built.append((tag(src), tag(tgt), key))
            last[:] = self.built[-1:]
            return block_columns(A, src, tgt, key)

        def reduction(f, calls):
            def counted(*args):
                # a reduction belongs to the columns built just before it
                calls.append(last.pop() if last else None)
                return f(*args)
            return counted

        monkeypatch.setattr(cyclic, "_block_columns", counting_columns)
        monkeypatch.setattr(cyclic, "rank_of",
                            reduction(cyclic.rank_of, self.ranked))
        # cyclic eliminates and spans only through f2linalg
        monkeypatch.setattr(f2linalg, "null_space",
                            reduction(f2linalg.null_space, self.eliminated))
        monkeypatch.setattr(f2linalg, "echelonize_in",
                            reduction(f2linalg.echelonize_in, self.spans))

    def clear(self):
        for calls in (self.built, self.ranked, self.eliminated, self.spans):
            calls.clear()


# ----- the first-to-last elimination path, kept as a slow oracle -----

def eliminate_tracked(vectors):
    """Gaussian elimination with combination tracking, first to last.

    Returns (pivot_rows, zero_trackers) where pivot_rows is a list of
    (pivot_index, reduced_vector, tracker), sorted by pivot, and
    zero_trackers collects the combinations that reduced to zero.  tracker
    bit k means input vector k participated.
    """
    pivots = {}
    zeros = []
    for k, v in enumerate(vectors):
        t = 1 << k
        while v:
            p = (v & -v).bit_length() - 1
            if p in pivots:
                pv, pt = pivots[p]
                v ^= pv
                t ^= pt
            else:
                pivots[p] = (v, t)
                break
        if v == 0:
            zeros.append(t)
    rows = [(p, pivots[p][0], pivots[p][1]) for p in sorted(pivots)]
    return rows, zeros


def oracle_echelonize_in(vectors, ambient_dim):
    """RREF span, reducing the vectors from the first to the last."""
    pivots = {}
    for v in vectors:
        while v:
            p = (v & -v).bit_length() - 1
            if p in pivots:
                v ^= pivots[p]
            else:
                pivots[p] = v
                break
    mask_above = 0
    for p in sorted(pivots, reverse=True):
        v = pivots[p]
        hit = v & mask_above
        while hit:
            low = hit & -hit
            hit ^= low
            v ^= pivots[low.bit_length() - 1]
        pivots[p] = v
        mask_above |= 1 << p
    return SubspaceBasis(ambient_dim, tuple(pivots[p] for p in sorted(pivots)))


def oracle_kernel_image(cols, nrows):
    """Kernel and column space: tracked first-to-last elimination, then a
    full echelonization of the zero trackers and of the pivot rows."""
    pivot_rows, zero_trackers = eliminate_tracked(cols)
    return (oracle_echelonize_in(zero_trackers, len(cols)),
            oracle_echelonize_in([v for _, v, _ in pivot_rows], nrows))


def oracle_homology_bases(out_cols, in_cols):
    """Cycles, boundaries and complement of one degree of a complex."""
    dim = len(out_cols)
    cycles = oracle_echelonize_in(eliminate_tracked(out_cols)[1], dim)
    boundaries = oracle_echelonize_in([v for v in in_cols if v], dim)
    return cycles, boundaries, complement_basis(cycles, boundaries)


# ----- the shuffle tables from their definitions -----

def _block_kept(order, lo, hi, cyclic):
    """Whether the items lo..hi-1 appear in order in the gather order, or
    with cyclic, in a rotation of that order."""
    items = [i for i in order if lo <= i < hi]
    k = items.index(lo) if cyclic else 0
    return items[k:] + items[:k] == list(range(lo, hi))


def oracle_shuffle_orders(p, q, cyclic=False):
    """The (p,q)-shuffles as gather orders of p + q items: the orders that
    keep each block in order.  With cyclic, the cyclic (p,q)-shuffles: the
    orders whose restriction to each block is a rotation, with item 0
    before item p."""
    return {order for order in itertools.permutations(range(p + q))
            if _block_kept(order, 0, p, cyclic)
            and _block_kept(order, p, p + q, cyclic)
            and not (cyclic and order.index(p) < order.index(0))}


# ----- the word-set b and B on chains of bar words, kept as the oracle of
# the slice differential -----

def boundary_b(A, c):
    """Hochschild boundary; signs vanish in characteristic 2."""
    out = set()
    one = A.one
    for head, bars in c:
        n = len(bars)
        if n == 0:
            continue
        # merge into the head at both ends
        for m in A.mul(head, bars[0]):
            out.symmetric_difference_update({(m, bars[1:])})
        for m in A.mul(bars[-1], head):
            out.symmetric_difference_update({(m, bars[:-1])})
        # merge adjacent bar entries; scalar products drop (normalization)
        for i in range(n - 1):
            rest = bars[:i] + bars[i + 2:]
            for m in A.mul(bars[i], bars[i + 1]):
                if m != one:
                    out.symmetric_difference_update(
                        {(head, bars[:i] + (m,) + rest[i:])})
    return frozenset(out)


def connes_B(A, c):
    """Connes' boundary: the sum of cyclic rotations with head 1."""
    out = set()
    one = A.one
    for head, bars in c:
        if head == one:
            continue  # every term puts the head in a bar slot
        cycle = (head,) + bars
        for i in range(len(cycle)):
            # rotation starting at slot i of (a0, a1, ..., an)
            out.symmetric_difference_update({(one, cycle[i:] + cycle[:i])})
    return frozenset(out)


def uchain_boundary(A, x):
    """The total differential b + u.B on a u-chain."""
    acc = {}
    for i, c in x.entries:
        bc = boundary_b(A, c)
        if bc:
            acc.setdefault(i, set()).symmetric_difference_update(bc)
        Bc = connes_B(A, c)
        if Bc and not (x.theory == "plus" and i + 1 > 0):
            acc.setdefault(i + 1, set()).symmetric_difference_update(Bc)
    return UChain.make(x.theory, {i: frozenset(s) for i, s in acc.items()})


def unvectorize(sl, v):
    """The u-chain of the slice vector v: column p at u-exponent -p, its
    words read from the basis of the column (an hh slice reads as minus)."""
    entries = {}
    for p, hb, _, chunk in _chunks(sl, v):
        words = []
        while chunk:
            j = (chunk & -chunk).bit_length() - 1
            chunk &= chunk - 1
            words.append(hb.words[j])
        entries[-p] = frozenset(words)
    theory = sl.theory if sl.theory != "hh" else "minus"
    return UChain.make(theory, entries)


# ----- the chain groups word by word, kept as a slow oracle -----

def oracle_bar_words(A, nbars, d):
    """Every normalized bar word with nbars bars and internal degree d,
    enumerated directly."""
    if nbars < 0 or not (A.graded or d == 0):
        return []
    if not A.graded:
        pool = [m for m in A.basis_all() if m != A.one]
        return [(h, bars) for h in A.basis_all()
                for bars in itertools.product(pool, repeat=nbars)]
    out = []

    def parts(slots, rem):
        if slots == 0:
            yield ()
            return
        for e in range(1, rem - slots + 2):
            for m in A.degree_basis(e):
                for rest in parts(slots - 1, rem - e):
                    yield (m,) + rest

    for bars in parts(nbars, d):
        used = sum(A.mono_degree(b) for b in bars)
        for h in A.degree_basis(d - used):
            out.append((h, bars))
    return out


def _word_key(A, w):
    """A.mono_key of the head, then of each bar."""
    return A.mono_key(w[0]), tuple(map(A.mono_key, w[1]))


def oracle_hochschild_basis(A, k, d):
    """(words, blocks) of C_{k,d} by enumerating every word and sorting:
    grouped by _block_key for a monomial ideal (blocks in key order, each
    sorted by _word_key), else one block keyed None."""
    groups = {}
    for w in oracle_bar_words(A, k, d):
        key = _block_key(w) if A.monomial_ideal else None
        groups.setdefault(key, []).append(w)
    words = []
    blocks = {}
    for key in sorted(groups):
        start = len(words)
        words.extend(sorted(groups[key], key=partial(_word_key, A)))
        blocks[key] = (start, len(words))
    return tuple(words), blocks


def oracle_mixed_columns(A, op, k, d):
    """The bar model's chain_columns from one boundary_b or connes_B call per word of the
    oracle basis, each image looked up in a dict of the target words and
    checked to stay in the source word's block."""
    f, k_tgt = (boundary_b, k - 1) if op == "b" else (connes_B, k + 1)
    words, blocks = oracle_hochschild_basis(A, k, d)
    tgt_words, tgt_blocks = oracle_hochschild_basis(A, k_tgt, d)
    index = {w: j for j, w in enumerate(tgt_words)}
    out = []
    for key, (start, stop) in blocks.items():
        lo, hi = tgt_blocks.get(key, (0, 0))
        for w in words[start:stop]:
            v = 0
            for w2 in f(A, frozenset({w})):
                assert lo <= index[w2] < hi, (op, w, w2)
                v |= 1 << (index[w2] - lo)
            out.append(v)
    return tuple(out)


# ----- the per-word differential path, kept as a slow oracle -----

def slice_basis(sl):
    """The (column p, word) pairs of a tower slice, in slice order."""
    return tuple((p, w) for p, hb, _ in sl.columns() for w in hb.words)


def oracle_differential_columns(A, src, tgt):
    """Columns of B + b from src to tgt, from one boundary_b and one
    connes_B call per basis word, looked up through (p, w)."""
    idx = {pw: k for k, pw in enumerate(slice_basis(tgt))}
    cols = []
    for p, w in slice_basis(src):
        v = 0
        for w2 in boundary_b(A, frozenset({w})):
            v ^= 1 << idx[(p, w2)]
        if p - 1 >= tgt.p_min:
            for w2 in connes_B(A, frozenset({w})):
                v ^= 1 << idx[(p - 1, w2)]
        cols.append(v)
    return cols


# ----- the truncation check by whole homologies, kept as a slow oracle -----

def oracle_unkept_homology(A, t, n, d, S):
    """The bases of homology(A, t, n, d, S) with nothing stored: each block
    of d_n is eliminated for its kernel only and then that of d_{n+1} for
    its image only."""
    sl = build_tower(A, t, n, d, S)
    down = build_tower(A, t, n - 1, d, S)
    up = build_tower(A, t, n + 1, d, S)
    pairs = tuple(
        (null_space(_block_columns(A, sl, down, key))[0],
         echelonize_in(_block_columns(A, up, sl, key)
                       if key in up.blocks else (),
                       _block_dim(segments)))
        for key, segments in sl.blocks.items())
    return HomologyPresentation(sl.dim, sl.runs(), pairs, theory=t, n=n,
                                d=d, S=S, slice=sl)


def oracle_truncation(A, H):
    """truncation(A, H) from the whole homology at depth S + 1: its class
    representatives projected into the depth-S window, and its dimension
    from its bases."""
    if not H.slice.truncated:
        return Truncation("stable", None)
    big = oracle_unkept_homology(A, H.theory, H.n, H.d, H.S + 1)
    project = slice_shift_map(big.slice, H.slice, 0)
    image = echelonize_in([H.coords(project(v)) for v in big.complement],
                          H.dim)
    stable = H.dim == big.dim == image.dim
    return Truncation("stable" if stable else "truncation-limited",
                      image.dim)


# ----- the E2 page by class maps, kept as a slow oracle -----

def mixed_matrix(A, op, k, d, model="bar"):
    """b (op "b") or B (op "B") of the chain model on the whole groups
    C_{k,d} and its target: each of the chain_columns moved to the start
    of its word's block in the target, read from .blocks alone."""
    src = chain_group(A, model, k, d)
    tgt = chain_group(A, model, k - 1 if op == "b" else k + 1, d)
    cols = chain_columns(A, model, op, k, d)
    return F2Matrix(tgt.dim, tuple(
        cols[j] << tgt.blocks.get(key, (0, 0))[0]
        for key, (start, stop) in src.blocks.items()
        for j in range(start, stop)))


def oracle_e2_page(A, alpha, beta, s, t, d):
    """dim E^2_{s,t} of the bar model: dim E^1 less the ranks of d^1 = B_*
    out of (s, t) and into it, each built as a class map, B applied to the
    class representatives of HH (both E^1 slices are one column, at
    offset 0)."""
    e1 = e1_page(A, alpha, beta, s, t, d)
    if e1 is None:
        return 0
    dim = e1.dim
    for s1 in (s, s + 1):
        src = e1_page(A, alpha, beta, s1, t, d)
        tgt = e1_page(A, alpha, beta, s1 - 1, t, d)
        if src is not None and tgt is not None:
            d1 = class_map(src, tgt, mixed_matrix(A, "B", t - s1, d).apply)
            dim -= rank_of(d1.columns)
    return dim


# ----- the connecting map by solving, kept as a slow oracle -----

def oracle_solve(cols, target):
    """One x whose set bits k sum cols[k] to target, or None: the target
    reduced, lowest bit first, against the pivot rows of eliminate_tracked."""
    rows = {p: (v, t) for p, v, t in eliminate_tracked(cols)[0]}
    x = 0
    while target:
        row = rows.get((target & -target).bit_length() - 1)
        if row is None:
            return None
        target ^= row[0]
        x ^= row[1]
    return x


def oracle_connecting_map(A, HN, HL, M_n, M_n1, p_map, i_map):
    """The connecting map N_n -> L_{n-1} by explicit lifting: a lift x of
    each class representative z solved for against the whole matrix of p,
    and a preimage of dx against the whole matrix of i, with dx the
    word-set b + u.B of the u-chain of x, read back into M_{n-1} (its
    components below a truncation dropped); p_map and i_map are slice
    vector maps."""
    p_cols = [p_map(1 << j) for j in range(M_n.dim)]
    i_cols = [i_map(1 << j) for j in range(HL.slice.dim)]
    cols = []
    for k in range(HN.dim):
        x = oracle_solve(p_cols, HN.rep(k))
        assert x is not None, "connecting map: lift failed"
        dx = vectorize(A, M_n1, uchain_boundary(A, unvectorize(M_n, x)))
        w = oracle_solve(i_cols, dx)
        assert w is not None, "connecting map: boundary not in subcomplex"
        cols.append(HL.coords(w))
    return F2Matrix(HL.dim, tuple(cols))


# ----- the per-family relation generators, kept as a slow oracle -----
#
# Each family has its own generator over the whole argument pool, with its
# own pool bound, and keeps the instances whose upper degree (n0 + d0 for
# per) lies in (lo, hi].  Ungraded generators build every instance.

def _window(A, lo, hi):
    if not A.graded:
        return lambda up: True
    return lambda up: lo < up <= hi


def _pusher(A, out):
    def push(el):
        if el:
            n0, d0 = _element_bidegree(A, el)
            out.append((el, n0, d0))
    return push


def oracle_ell_instances(A, lo, hi):
    pool1 = [(A.one, 0)] + _arg_pool(A, hi + 2 if A.graded else 0)
    new = _window(A, lo, hi)
    out = []
    push = _pusher(A, out)
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


# ----- the products of each kind pair and the two-exponent v rule, kept as
# oracles of ell.mon_mul -----

def oracle_el_mul(A, e1, e2, mul):
    """The product of two elements under the monomial product mul."""
    out = set()
    for a in e1:
        for b in e2:
            out.symmetric_difference_update(mul(A, a, b))
    return frozenset(out)


def oracle_ell_mon_mul(A, a, b):
    """The product of two ell (or two ell_per) monomials: q(a)^2 = 0 =
    delta(a)^2, u delta(a) = 0, and b's phi parts fold into a's."""
    _, ja, pa, qa, da = a
    _, jb, pb, qb, db = b
    if set(qa) & set(qb) or set(da) & set(db):
        return ZERO_ELL
    j = ja + jb
    q = tuple(sorted(qa + qb, key=A.mono_key))
    dl = tuple(sorted(da + db, key=A.mono_key))
    if j > 0 and dl:
        return ZERO_ELL  # u delta(a) = 0
    return frozenset(("e", j, t, q, dl) for t in _phi_fold(A, pa, pb))


def oracle_plus_mon_mul(A, e, x):
    """An ell monomial e acting on an ell_plus monomial x, with e's phi
    parts folded into x's: u gamma(a) = 0 and delta(a) v^i = 0."""
    _, j, phi, q, dl = e
    if x[0] == "g":
        _, _, px, qx, dx, m = x
        if j > 0 or set(q) & set(qx) or set(dl) & set(dx):
            return ZERO_ELL
        qm = tuple(sorted(q + qx, key=A.mono_key))
        dm = tuple(sorted(dl + dx, key=A.mono_key))
        return frozenset(("g", 0, t, qm, dm, m)
                         for t in _phi_fold(A, px, phi))
    _, jx, px, qx, _ = x
    if dl or set(q) & set(qx):
        return ZERO_ELL
    qm = tuple(sorted(q + qx, key=A.mono_key))
    return frozenset(("v", j + jx, t, qm, ()) for t in _phi_fold(A, px, phi))


def oracle_per_mon_mul(A, a, b):
    """The ell_per product written for delta-free monomials alone: q(a)^2 =
    0, the phi parts fold, and the u-exponents of either sign add."""
    _, ja, pa, qa, _ = a
    _, jb, pb, qb, _ = b
    if set(qa) & set(qb):
        return ZERO_ELL
    q = tuple(sorted(qa + qb, key=A.mono_key))
    return frozenset(("e", ja + jb, t, q, ()) for t in _phi_fold(A, pa, pb))


def oracle_plus_v_mul(A, e, x):
    """An ell monomial e on u^j v^i held as ("v", j, i, phi, q), j.i = 0:
    u v^i = v^{i-1}, so u^j cancels against v^i as far as it reaches."""
    _, j, phi, q, dl = e
    _, jx, i, px, qx = x
    if dl or set(q) & set(qx):
        return ZERO_ELL
    qm = tuple(sorted(q + qx, key=A.mono_key))
    jt = j + jx
    k = min(jt, i)
    return frozenset(("v", jt - k, i - k, t, qm) for t in _phi_fold(A, px, phi))


def _per_phi(A, p):
    out = set()
    for m in p:
        out.symmetric_difference_update(
            {("e", 0, () if m == A.one else (m,), (), ())})
    return frozenset(out)


def _per_q(A, p):
    """q on a sum of monomials, additive (no delta in ell_per)."""
    out = set()
    for m in p:
        if m != A.one:
            out.symmetric_difference_update({("e", 0, (), (m,), ())})
    return frozenset(out)


def oracle_per_instances(A, lo, hi):
    pool1 = [(A.one, 0)] + _arg_pool(A, hi // 2 + 1 if A.graded else 0)
    new = _window(A, lo, hi)
    out = []
    push = _pusher(A, out)
    u1 = frozenset({("e", 1, (), (), ())})
    for (a, ga), (b, gb) in itertools.combinations_with_replacement(pool1, 2):
        if not new(2 * (ga + gb)):
            continue
        pa, pb = _per_phi(A, frozenset({a})), _per_phi(A, frozenset({b}))
        qa, qb = _per_q(A, frozenset({a})), _per_q(A, frozenset({b}))
        push(_per_phi(A, A.mul(a, b))
             ^ oracle_el_mul(A, pa, pb, oracle_per_mon_mul)
             ^ oracle_el_mul(A, u1,
                             oracle_el_mul(A, qa, qb, oracle_per_mon_mul),
                             oracle_per_mon_mul))
        push(_per_q(A, A.mul(a, b))
             ^ oracle_el_mul(A, qa, pb, oracle_per_mon_mul)
             ^ oracle_el_mul(A, pa, qb, oracle_per_mon_mul))
    return out


def oracle_plus_instances(A, lo, hi):
    pool1 = [(A.one, 0)] + _arg_pool(A, hi + 2 if A.graded else 0)
    new = _window(A, lo, hi)
    out = []
    push = _pusher(A, out)

    def dmon(m):
        return del_el(A, frozenset({m}))

    def act(e, x):
        return oracle_el_mul(A, e, x, oracle_plus_mon_mul)

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


ORACLE_INSTANCES = {"ell": oracle_ell_instances,
                    "per": oracle_per_instances,
                    "plus": oracle_plus_instances}


# ----- psi of a monomial by the fold from u^j, kept as a slow oracle -----

def oracle_chain_fold(A, mon):
    """psi of the ell or ell_per monomial u^j prod phi prod q prod delta:
    the chain u^j (x) 1[] times the generator images of the delta, then the
    q, then the phi factors, each part in its own order (the order in which
    peeling the last phi, then q, then delta factor multiplies them)."""
    _, j, phi, q, dl = mon
    x = UChain.make("minus" if j >= 0 else "per",
                    {j: frozenset({(A.one, ())})})
    for gen, args in (("delta", dl), ("q", q), ("phi", phi)):
        for m in args:
            x = mu_chain(A, x, psi_generator_image(A, (gen, m)))
    return x


# ----- the relation rows bounded by upper degree, kept as a slow oracle -----

def oracle_relation_rows(A, family, cands, n, d):
    """ell._relation_rows with the key degrees of ell and plus instances
    bounded by d alone, so a window with negative n reads instances that
    no multiplier reaches; each instance looks up its own multipliers."""
    instances, total, multipliers, product = {
        "ell": ("ell", False, ell_monomials, oracle_ell_mon_mul),
        "per": ("per", True, per_monomials, oracle_per_mon_mul),
        "plus": ("plus", False, ell_monomials, oracle_plus_mon_mul),
        "coefficient": ("ell", True, plus_monomials,
                        lambda A, x, e: oracle_plus_mon_mul(A, e, x)),
    }[family]
    bound = (n + d if total else d) if A.graded else 0
    index = {m: k for k, m in enumerate(cands)}
    rows = []
    seen = set()
    for t in range(-2, bound + 1):
        for el, n0, d0 in _instances(A, instances, t, float("inf")):
            if A.graded and (n0 + d0 > n + d if total else d0 > d):
                continue
            for mult in multipliers(A, n - n0, d - d0):
                v = 0
                for m in oracle_el_mul(A, frozenset({mult}), el, product):
                    k = index.get(m)
                    if k is None:
                        raise EllError(f"{family} relation row leaves "
                                       f"the candidates: {m}")
                    v ^= 1 << k
                if v and v not in seen:
                    seen.add(v)
                    rows.append(v)
    return rows


# ----- the eight hand-built commuting squares, kept as a slow oracle -----

def _oracle_matrix(A, src, tgt, f):
    return F2Matrix(tgt.dim, tuple(tgt.coords(f(A, g)) for g in src.basis()))


def oracle_verify_squares(A, max_homological, max_internal, S=3):
    """verify_squares written out square by square: every model map from
    its own spaces, the HC maps u, h, I, iota and S as class maps of slice
    shifts, the connecting maps from les_map, psi at depth S except into
    the HC^- that bd lands in."""
    out = []

    def residual(name, n, D, mat1, mat2):
        diff = mat1.add(mat2)
        res = sum(bin(c).count("1") for c in diff.columns)
        out.append({"square": name, "n": n, "internal": D, "residual": res})

    def ell(flavor, n, d):
        return ell_degree_basis(A, flavor, n, d)

    for n, D in bidegree_window(A, max_homological, max_internal):
        d = D - n
        # psi . u = u . psi  (ell (n+2, d-2) -> HC^-_n)
        sp2 = ell("ell", n + 2, d - 2)
        if sp2.dim:
            mu = _oracle_matrix(A, sp2, ell("ell", n, d), map_u)
            psi_n, _, H_n = psi_matrix(A, "hcminus", n, D, S)
            psi_n2, _, H_n2 = psi_matrix(A, "hcminus", n + 2, D, S)
            u_star = class_map(H_n2, H_n,
                               slice_shift_map(H_n2.slice, H_n.slice, -1))
            residual("psi.u=u.psi", n, D, psi_n.compose(mu),
                     u_star.compose(psi_n2))
        # h . psi = eps . r  (ell (n,d) -> HH_n)
        sp = ell("ell", n, d)
        if sp.dim:
            psi_n, _, H_n = psi_matrix(A, "hcminus", n, D, S)
            Hh = homology(A, "hh", n, D, S)
            h_star = class_map(H_n, Hh,
                               slice_shift_map(H_n.slice, Hh.slice, 0))
            mr = _oracle_matrix(A, sp, omega_basis(A, n, D), map_r)
            eps = _eps_matrix(A, n, D, Hh)
            residual("h.psi=eps.r", n, D, h_star.compose(psi_n),
                     eps.compose(mr))
        # psi . tau = bd . eps  (Omega^n_D -> HC^-_{n+1})
        som = omega_basis(A, n, D)
        if som.dim:
            mt = _oracle_matrix(A, som, ell("ell", n + 1, d - 1), map_tau)
            bd, Hh, Hm1 = les_map(A, "minus_les", "bd", n, D, S)
            # bd lands in HC^- truncated one column shallower when ungraded
            psi_n1, _, _ = psi_matrix(A, "hcminus", n + 1, D, Hm1.S)
            eps = _eps_matrix(A, n, D, Hh)
            residual("psi.tau=bd.eps", n, D, psi_n1.compose(mt),
                     bd.compose(eps))
        # plus diagram: psi+ . I = I* . eps   (Omega^n_D -> HC_n)
        if som.dim and n >= 0:
            mI = _oracle_matrix(A, som, ell("ell_plus", n, d), map_I)
            psip, _, Hc = psi_matrix(A, "hc", n, D, S)
            Hh = homology(A, "hh", n, D, S)
            I_star = class_map(Hh, Hc,
                               slice_shift_map(Hh.slice, Hc.slice, 0))
            eps = _eps_matrix(A, n, D, Hh)
            residual("psi+.I=I.eps", n, D, psip.compose(mI),
                     I_star.compose(eps))
        # plus diagram: eps . D = bd . psi+  (ell+ (n,d) -> HH_{n+1})
        spp = ell("ell_plus", n, d)
        if spp.dim and n >= 0:
            mD = _oracle_matrix(A, spp, omega_basis(A, n + 1, D), map_D)
            Hh1 = homology(A, "hh", n + 1, D, S)
            eps1 = _eps_matrix(A, n + 1, D, Hh1)
            psip, _, Hc = psi_matrix(A, "hc", n, D, S)
            bd = les_map(A, "connes", "bd", n + 2, D, S)[0]
            residual("eps.D=bd.psi+", n, D, eps1.compose(mD),
                     bd.compose(psip))
        # per diagram: psi_per . iota = iota* . psi  (ell (n,d) -> HCper_n)
        if sp.dim:
            mi = _oracle_matrix(A, sp, ell("ell_per", n, d), map_iota)
            psim, _, Hm = psi_matrix(A, "hcminus", n, D, S)
            psiper, _, Hp = psi_matrix(A, "hcper", n, D, S)
            iota_star = class_map(Hm, Hp,
                                  slice_shift_map(Hm.slice, Hp.slice, 0))
            residual("psiper.iota=iota.psi", n, D, psiper.compose(mi),
                     iota_star.compose(psim))
        # per diagram: psi+ . S = S* . psi_per  (ell_per (n,d) -> HC_{n-2})
        spper = ell("ell_per", n, d)
        if spper.dim:
            mS = _oracle_matrix(A, spper, ell("ell_plus", n - 2, d + 2), map_S)
            psiper, _, Hp = psi_matrix(A, "hcper", n, D, S)
            psip2, _, Hc2 = psi_matrix(A, "hc", n - 2, D, S)
            S_star = class_map(Hp, Hc2,
                               slice_shift_map(Hp.slice, Hc2.slice, -1))
            residual("psi+.S=S.psiper", n, D, psip2.compose(mS),
                     S_star.compose(psiper))
        # per diagram: psi . bd_ell = bd . psi+  (ell+ (n,d) -> HC^-_{n+1})
        if spp.dim:
            mbd = _oracle_matrix(A, spp, ell("ell", n + 1, d - 1), map_bd)
            psim1, _, _ = psi_matrix(A, "hcminus", n + 1, D, S)
            psip, _, Hc = psi_matrix(A, "hc", n, D, S)
            bd = les_map(A, "per_les", "bd", n + 2, D, S)[0]
            residual("psi.bd=bd.psi+", n, D, psim1.compose(mbd),
                     bd.compose(psip))
    return out
