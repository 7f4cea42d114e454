import dataclasses
import itertools
import os
import random
from collections import Counter

from hypothesis import example, given, settings, strategies as st

import pytest

from conftest import (
    CountedReductions,
    assembled_bases,
    boundary_b,
    contains_subspace,
    exactness_defects,
    generic_forms,
    mixed_matrix,
    oracle_bar_words,
    oracle_connecting_map,
    oracle_differential_columns,
    oracle_e2_page,
    oracle_echelonize_in,
    oracle_hochschild_basis,
    oracle_homology_bases,
    oracle_mixed_columns,
    oracle_truncation,
    oracle_unkept_homology,
    slice_basis,
    small_presentations,
    ungraded_x,
    unvectorize,
)
from cyclo2.approx import verify_squares
from cyclo2.cli import load_presentation
from cyclo2.cyclic import (
    CHAIN_MODELS,
    SEQUENCES,
    THEORY_BOUNDS,
    TowerError,
    _block_columns,
    _block_key,
    _shape_key,
    _tate_resolution,
    bidegree_window,
    build_tower,
    chain_columns,
    chain_group,
    chain_model,
    class_map,
    connecting_map,
    differential_bases,
    differential_ranks,
    e1_page,
    e2_page,
    homology,
    les_map,
    slice_differential,
    slice_shift_map,
    truncation,
    vectorize,
)
from cyclo2.derham import d_matrix_columns, de_rham_cohomology, omega_basis
from cyclo2.ell import FLAVORS, ell_degree_basis
from cyclo2.f2linalg import F2Matrix, _placed, rank_kernel_image, rank_of
from cyclo2.gralg import (
    AlgebraPresentation,
    dual_numbers,
    field_f4,
    polynomial_algebra,
    trivial_algebra,
)
from cyclo2.hochschild import UChain

F2 = trivial_algebra()
PX = polynomial_algebra(["x"])
PXY = polynomial_algebra(["x", "y"])
F4 = field_f4()
DUAL = dual_numbers()


def cusp():
    return AlgebraPresentation(("x", "y"), (1, 1),
                               (frozenset({(2, 1), (0, 3)}),), name="cusp")


def truncated_cube():
    return AlgebraPresentation(("x",), (0,), (frozenset({(3,)}),),
                               graded=False, name="F2[x]/(x^3)")


CUSP = cusp()
X3 = truncated_cube()
FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


# ----- independent brute-force oracle (dict-of-sets elimination) -----

def oracle_rank(vectors):
    basis = []
    for v in vectors:
        cur = set(v)
        for b in basis:
            if min(b) in cur:
                cur ^= b
        if cur:
            basis.append(cur)
    return len(basis)


def oracle_hh_dims(A, nmax, d):
    """Brute-force HH dims from the normalized bar complex."""
    words = {m: oracle_bar_words(A, m, d) for m in range(nmax + 2)}
    dims = []
    for n in range(nmax + 1):
        idx = {w: i for i, w in enumerate(words[n])}
        idx_dn = {w: i for i, w in enumerate(words[n - 1])} if n else {}
        d_n = []
        for w in words[n]:
            img = boundary_b(A, frozenset({w}))
            d_n.append({idx_dn[v] for v in img})
        rank_n = oracle_rank([s for s in d_n if s])
        d_up = []
        for w in words[n + 1]:
            img = boundary_b(A, frozenset({w}))
            d_up.append({idx[v] for v in img})
        rank_up = oracle_rank([s for s in d_up if s])
        dims.append(len(words[n]) - rank_n - rank_up)
    return dims


# ----- tower construction -----

def test_tower_trivial_algebra_minus():
    sl = build_tower(F2, "minus", -2, 0)
    assert sl.dim == 1
    assert slice_basis(sl) == ((-1, ((), ())),)


def test_tower_hh_px():
    sl = build_tower(PX, "hh", 2, 2)
    assert slice_basis(sl) == ((0, ((0,), ((1,), (1,)))),)


def test_tower_minus_px_degree0():
    sl = build_tower(PX, "minus", 0, 0)
    assert sl.dim == 1 and slice_basis(sl)[0] == (0, ((0,), ()))


def test_tower_differential_squares_to_zero():
    for A, d in [(PX, 3), (PXY, 3), (F4, 0), (DUAL, 0)]:
        for n in range(0, 4):
            s2 = build_tower(A, "minus", n + 1, d, S=3)
            s1 = build_tower(A, "minus", n, d, S=3)
            s0 = build_tower(A, "minus", n - 1, d, S=3)
            m1 = F2Matrix(s1.dim,
                          tuple(oracle_differential_columns(A, s2, s1)))
            m0 = F2Matrix(s0.dim,
                          tuple(oracle_differential_columns(A, s1, s0)))
            assert m0.compose(m1).is_zero()


def _placed_block_columns(A, src, tgt):
    """The block columns of every block of src, placed in slice
    coordinates of src and tgt along their runs."""
    tgt_runs = dict(zip(tgt.blocks, tgt.runs()))
    cols = [0] * src.dim
    for key, runs in zip(src.blocks, src.runs()):
        block = _block_columns(A, src, tgt, key)
        for pos, local, length in runs:
            for j in range(length):
                cols[pos + j] = _placed(block[local + j],
                                        tgt_runs.get(key, ()))
    return cols


def _assert_differential_matches_oracle(A, theory, n, d, S, rng):
    # the block columns, placed in the slices, and slice_differential on
    # random slice vectors are the whole-slice differential
    src = build_tower(A, theory, n, d, S)
    tgt = build_tower(A, theory, n - 1, d, S)
    cols = oracle_differential_columns(A, src, tgt)
    assert _placed_block_columns(A, src, tgt) == cols, (A.name, theory, n, S)
    for v in [rng.getrandbits(src.dim) for _ in range(4)] + [
            (1 << src.dim) - 1]:
        image = 0
        for j in range(src.dim):
            if v >> j & 1:
                image ^= cols[j]
        assert slice_differential(A, src, tgt, v) == image, \
            (A.name, theory, n, d, S, v)


def test_differential_columns_match_per_word_oracle():
    # graded towers are finite, ungraded ones are cut at -S, so the B
    # column of their deepest p is dropped
    rng = random.Random(11)
    for A in (PXY, CUSP):
        for theory in THEORY_BOUNDS:
            for n, d in bidegree_window(A, 4, 4):
                _assert_differential_matches_oracle(A, theory, n, d, 3, rng)
    for A in (F4, DUAL, X3):
        for S in (1, 2, 3, 4):
            for theory in THEORY_BOUNDS:
                for n in range(-2, 4):
                    _assert_differential_matches_oracle(A, theory, n, 0, S,
                                                        rng)


def graded(gens, weights, *relations, name):
    """F2[gens] of the weights modulo the relations, each a set of
    exponent tuples."""
    return AlgebraPresentation(tuple(gens), weights,
                               tuple(map(frozenset, relations)), name=name)


# complete intersections that the Tate model serves
XY_Z2 = graded("xyz", (1, 1, 1), {(1, 1, 0), (0, 0, 2)}, name="xy + z^2")
X2Y2_XY = graded("xy", (1, 1), {(2, 0), (0, 2)}, {(1, 1)},
                 name="(x^2 + y^2, xy)")
X3_Y2 = graded("xy", (2, 3), {(3, 0), (0, 2)},
               name="x^3 + y^2, |x|, |y| = 2, 3")
# not a complete intersection
X2_XY = graded("xyz", (1, 1, 1), {(2, 0, 0)}, {(1, 1, 0)}, name="(x^2, xy)")

# the inputs of each row of CHAIN_MODELS: the bar complex on graded and
# ungraded ones, monomial or not; every other model on inputs that
# chain_model selects it for
MIXED_COMPLEX_INPUTS = {
    "bar": (PXY, CUSP, F4, DUAL, X3),
    "koszul": (F4, DUAL, X3),
    "tate": (PX, PXY, polynomial_algebra("xyz"),
             polynomial_algebra("xyz", (1, 2, 3)), CUSP, XY_Z2, X2Y2_XY,
             X3_Y2),
}


def test_mixed_columns_form_a_mixed_complex():
    # b b = B B = b B + B b = 0 as products of the per-degree matrices of
    # every chain model, read through chain_columns
    for model, A in ((m, A) for m in CHAIN_MODELS
                     for A in MIXED_COMPLEX_INPUTS[m]):
        assert model == "bar" or chain_model(A) == model, (model, A.name)
        for d in range(5) if A.graded else (0,):
            b = lambda j: mixed_matrix(A, "b", j, d, model)
            B = lambda j: mixed_matrix(A, "B", j, d, model)
            for k in range(1, 6):
                assert b(k - 1).compose(b(k)).is_zero(), (model, A.name, k, d)
                assert B(k + 1).compose(B(k)).is_zero(), (model, A.name, k, d)
                assert b(k + 1).compose(B(k)).add(B(k - 1).compose(
                    b(k))).is_zero(), (model, A.name, k, d)


def _assert_chain_groups_match_oracle(A, ks, ds):
    """The bar model's chain_group (words, blocks and the position of every
    word) and both chain_columns equal the word-by-word oracles on
    C_{k,d}."""
    for d in ds if A.graded else (0,):
        for k in ks:
            hb = chain_group(A, "bar", k, d)
            words, blocks = oracle_hochschild_basis(A, k, d)
            assert (hb.words, hb.blocks) == (words, blocks), (A.name, k, d)
            for j, w in enumerate(words):
                key = _block_key(w) if A.monomial_ideal else None
                assert hb.position(w, key) == j, (A.name, k, d, w)
            for op in ("b", "B"):
                assert chain_columns(A, "bar", op, k, d) == \
                    oracle_mixed_columns(A, op, k, d), (A.name, op, k, d)


def test_chain_groups_match_word_by_word_oracle():
    # the six fixtures, graded non-monomial inputs (the cusp, and one with
    # generator weights 1 and 2), F8 and F2[x]/(x^3)
    algebras = [load_presentation(os.path.join(FIXTURES, name))
                for name in sorted(os.listdir(FIXTURES))]
    algebras += [
        cusp(),
        AlgebraPresentation(("x", "y"), (1, 2),
                            (frozenset({(2, 0), (0, 1)}),), name="x^2 + y"),
        AlgebraPresentation(("x",), (0,), (frozenset({(3,), (1,), (0,)}),),
                            graded=False, name="F8"),
        truncated_cube()]
    for A in algebras:
        _assert_chain_groups_match_oracle(A, range(7), range(6))


@settings(max_examples=50)
@given(small_presentations())
@example(AlgebraPresentation(("x",), (1,), (frozenset({(2,)}),),
                             name="graded F2[x]/(x^2)"))
def test_chain_groups_match_oracle_on_draws(A):
    # the graded dual numbers leave no word for x * x = 0, so no position
    # of that product may be looked up
    _assert_chain_groups_match_oracle(A, range(6), range(5))


class _CountedTable(dict):
    """A memo table that records every key stored in it."""

    def __init__(self):
        super().__init__()
        self.stored = []

    def __setitem__(self, key, value):
        self.stored.append(key)
        super().__setitem__(key, value)


def test_b_columns_built_once_per_chain_group():
    # every slice holding C_{k,d} shares its b columns, so no chain
    # group's b columns are built twice across a window of homology, by
    # its ranks or its bases
    A = polynomial_algebra(["x", "y", "z"])
    table = A._memo["chain_columns"] = _CountedTable()
    for n, d in bidegree_window(A, 4, 4):
        h = homology(A, "minus", n, d)
        h.dim, _bases(h)
    built = [key for key in table.stored if key[1] == "b"]
    assert built and len(built) == len(set(built))


def test_each_differential_eliminated_once(monkeypatch):
    # dimensions come from one rank of each multidegree block of each
    # differential, with no basis built or stored; bases, once read, come
    # from at most one elimination more of each block, shared by the
    # homology on either side of it; no span of differential columns is
    # ever echelonized
    counted = CountedReductions(monkeypatch)
    A = polynomial_algebra(["x", "y", "z"])
    window = bidegree_window(A, 4, 4)
    dims = [homology(A, "minus", n, d).dim for n, d in window]
    built = list(counted.built)
    assert built and len(built) == len(set(built))
    assert Counter(counted.ranked) == Counter(built)
    assert counted.eliminated == [] and counted.spans == []
    assert A.memo("differential") == {}
    # the differentials really are split
    blocks = Counter((src, tgt) for src, tgt, _ in built)
    assert max(blocks.values()) > 1
    counted.clear()
    for n, d in window:
        _bases(homology(A, "minus", n, d))
    assert counted.built and len(counted.built) == len(set(counted.built))
    assert set(counted.built) <= set(built)
    assert Counter(counted.eliminated) == Counter(counted.built)
    assert counted.ranked == [] and counted.spans == []
    # bases read first: their eliminations give the dimensions too
    A = polynomial_algebra(["x", "y", "z"])
    counted.clear()
    for n, d in window:
        _bases(homology(A, "minus", n, d))
    assert [homology(A, "minus", n, d).dim for n, d in window] == dims
    assert len(counted.built) == len(set(counted.built))
    assert Counter(counted.eliminated) == Counter(counted.built)
    assert counted.ranked == [] and counted.spans == []


def _differential_view(A, t, n, d, S):
    """The blocks of d_n's source and target slices, each column named by
    its C_{k,d} rather than by p, and the block columns of d_n."""
    src, tgt = build_tower(A, t, n, d, S), build_tower(A, t, n - 1, d, S)
    by_k = [{key: [(sl.n - 2 * p, start, stop, local)
                   for p, start, stop, local in segments]
             for key, segments in sl.blocks.items()} for sl in (src, tgt)]
    return by_k, {key: _block_columns(A, src, tgt, key)
                  for key in src.blocks}


def test_equal_shapes_give_equal_columns():
    # _block_columns reads only d and the C_{k,d} of the columns of the
    # source and target slices, so differentials of one shape have equal
    # blocks and block columns whatever their theory, degree and depth;
    # their ranks and eliminations are memoised once (F4 is f4.alg)
    algebras = [load_presentation(os.path.join(FIXTURES, name))
                for name in ("dual_numbers.alg", "f2.alg", "f4.alg",
                             "poly_x.alg", "poly_xy.alg", "poly_xyz.alg")]
    for A in algebras + [cusp(), truncated_cube()]:
        views, shared = {}, 0
        for t in THEORY_BOUNDS:
            for S in (1, 2, 3):
                for n, d in bidegree_window(A, 5, 4):
                    shape = _shape_key(A, t, n, d, S)
                    view = _differential_view(A, t, n, d, S)
                    shared += shape in views
                    assert views.setdefault(shape, view) == view, \
                        (A.name, t, n, d, S)
        assert shared, A.name


def test_each_shape_ranked_once(monkeypatch):
    # the minus slices of a graded algebra at n <= 1 repeat by parity, so
    # the dimensions of a window build and rank each block of each shape
    # once: fewer blocks than the differentials they read hold
    counted = CountedReductions(monkeypatch)
    A = polynomial_algebra(["x", "y", "z"])
    window = bidegree_window(A, 4, 4)
    for n, d in window:
        homology(A, "minus", n, d).dim

    def shaped(tags):  # a tag is (source slice, target slice, block key)
        return [(_shape_key(A, *src), key) for src, _, key in tags]

    built = shaped(counted.built)
    assert built and len(built) == len(set(built))
    assert Counter(shaped(counted.ranked)) == Counter(built)
    read = {(m, d, key) for n, d in window for m in (n, n + 1)
            for key in build_tower(A, "minus", m, d).blocks}
    assert len(built) < len(read)


def test_one_block_is_read_as_it_is():
    # a presentation that is not a monomial ideal has one block per slice,
    # placed as the slice itself, so its homology reads the memoised
    # eliminations without a copy; a monomial slice is split
    for A, d in ((cusp(), 3), (field_f4(), 0)):
        for n in range(-2, 3):
            h = homology(A, "minus", n, d, 3)
            sl = h.slice
            assert list(sl.blocks) == ([None] if sl.dim else []), (A.name, n)
            if sl.dim:
                out = differential_bases(A, "minus", n, d, 3)[None]
                assert h.pairs[0][0] is out[0], (A.name, n)
    h = homology(polynomial_algebra(["x", "y"]), "minus", 0, 3, 0)
    assert len(h.slice.blocks) == 4


def test_shared_eliminations_in_either_order():
    # cycles come from d_n and boundaries from d_{n+1}, whichever of the
    # two homologies beside a differential eliminated it first; the
    # unkept homology of the truncation oracle gives the same bases
    cases = [(lambda: polynomial_algebra(["x", "y"]), ("minus",), range(5)),
             (cusp, ("minus",), range(5)),
             (field_f4, ("minus", "per"), (0,)),
             (dual_numbers, ("minus", "per"), (0,)),
             (truncated_cube, ("minus", "per"), (0,))]
    for fresh, theories, degrees in cases:
        for S in (2, 3):
            A = fresh()
            window = [(t, n, d) for t in theories for n in range(-3, 4)
                      for d in degrees]
            oracle = {w: _oracle_homology_at(A, *w, S) for w in window}
            for (t, n, d), bases in oracle.items():
                assert _bases(oracle_unkept_homology(A, t, n, d, S)) == \
                    bases, (A.name, t, n, d, S)
            for order in (window, window[::-1]):
                A = fresh()
                for t, n, d in order:
                    assert _bases(homology(A, t, n, d, S)) == \
                        oracle[t, n, d], (A.name, t, n, d, S)


def test_stabilization_pass_keeps_no_eliminations(monkeypatch):
    # the check eliminates nothing and keeps no basis: only ranks, which
    # are ints, are memoised, each block of each shape ranked once, under
    # the shapes of d_n and d_{n+1} at S and S + 1 (some of which no
    # depth-S differential has) and of the hh slice at n + 2S + 2
    counted = CountedReductions(monkeypatch)
    A = truncated_cube()
    for n in range(-3, 4):
        truncation(A, homology(A, "per", n, 0, 3))
    read = {S: {_shape_key(A, "per", n, 0, S) for n in range(-3, 5)}
            for S in (3, 4)}
    hh = {_shape_key(A, "hh", n + 8, 0, 4) for n in range(-3, 4)}
    assert A.memo("differential") == {}
    assert counted.eliminated == [] and counted.spans == []
    assert set(A.memo("differential_rank")) == read[3] | read[4] | hh
    assert read[4] - read[3] and hh - read[3] - read[4]
    shaped = Counter((_shape_key(A, *src), key)
                     for src, _, key in counted.ranked)
    assert shaped and max(shaped.values()) == 1
    assert {key[3] for key in A.memo("homology")} == {3}


# ----- homology -----

def test_hcminus_of_f2():
    for n in range(-6, 3):
        h = homology(F2, "hcminus", n, 0)
        expected = 1 if (n <= 0 and n % 2 == 0) else 0
        assert h.dim == expected, n
        assert truncation(F2, h).flag == "stable"


def test_hh_px_against_oracle():
    for d in range(0, 6):
        dims = oracle_hh_dims(PX, 5, d)
        for n in range(0, 6):
            assert homology(PX, "hh", n, d).dim == dims[n], (n, d)


def test_hh_px_shape():
    # dim 1 at (0, d) and at (1, d >= 1); zero for n >= 2
    for d in range(0, 7):
        assert homology(PX, "hh", 0, d).dim == 1
        assert homology(PX, "hh", 1, d).dim == (1 if d >= 1 else 0)
        for n in range(2, 5):
            assert homology(PX, "hh", n, d).dim == 0


DUAL_HH_TABLE = [2, 2, 2, 2, 2]  # frozen from the oracle below


def test_hh_dual_numbers_table():
    dims = oracle_hh_dims(DUAL, 4, 0)
    assert dims == DUAL_HH_TABLE
    for n in range(5):
        assert homology(DUAL, "hh", n, 0).dim == DUAL_HH_TABLE[n]


def test_dual_numbers_minus_is_truncation_limited():
    trunc = truncation(DUAL, homology(DUAL, "hcminus", 0, 0, S=3))
    assert trunc.flag == "truncation-limited"
    assert trunc.persistent is not None
    assert trunc.persistent >= 1


def test_graded_towers_always_stable():
    for n in range(-4, 4):
        assert truncation(PX, homology(PX, "hcminus", n, 3)) == \
            ("stable", None)


def _assert_truncation_matches_oracle(fresh, S, window):
    """truncation(A, H) equals oracle_truncation(A, H), persistent rank
    included, on a fresh algebra visiting the window (theory, n) in each
    order, so the ranks at S + 1 are bounded by either neighbour."""
    for order in (window, window[::-1]):
        A = fresh()
        for t, n in order:
            H = homology(A, t, n, 0, S)
            assert truncation(A, H) == oracle_truncation(A, H), \
                (A.name, t, n, S)


def test_truncation_matches_oracle():
    window = [(t, n) for t in ("minus", "per") for n in range(-3, 4)]
    for fresh in (field_f4, dual_numbers, truncated_cube):
        for S in (1, 2, 3):
            _assert_truncation_matches_oracle(fresh, S, window)


@settings(max_examples=12)
@given(small_presentations().filter(lambda A: not A.graded),
       st.integers(1, 3))
def test_truncation_matches_oracle_on_draws(A, S):
    window = [(t, n) for t in ("minus", "per") for n in range(-2, 3)]
    _assert_truncation_matches_oracle(lambda: dataclasses.replace(A), S,
                                      window)


def _bar_keys(A):
    """The memo keys of the bar model's chain groups and columns."""
    return {key for table in ("chain_group", "chain_columns")
            for key in A.memo(table) if key[0] == "bar"}


def _assert_model_matches_bar(A, model, S, window):
    """Every theory at depth S on each (n, d) of window: the model gives
    the bar path's dim and flag, and builds no bar chain group."""
    for t in THEORY_BOUNDS:
        for n, d in window:
            bar_groups = _bar_keys(A)
            H = homology(A, t, n, d, S, model)
            dim_flag = H.dim, truncation(A, H).flag
            assert _bar_keys(A) == bar_groups
            H = homology(A, t, n, d, S)
            assert dim_flag == (H.dim, truncation(A, H).flag), \
                (A.name, model, t, n, d, S)


def _assert_tate_matches_bar(A, top):
    """chain_model(A) is "tate", and the Tate model gives the bar path's
    dims and flags at |n|, d <= top and its E^2 pages of the four theories
    at |s|, t, d <= top - 1."""
    assert chain_model(A) == "tate", A.name
    _assert_model_matches_bar(A, "tate", 1, bidegree_window(A, top, top))
    for alpha, beta in (THEORY_BOUNDS[t] for t in ("hh", "plus", "minus",
                                                   "per")):
        for s, t, d in itertools.product(range(1 - top, top), range(top),
                                         range(top)):
            assert e2_page(A, alpha, beta, s, t, d, "tate") == e2_page(
                A, alpha, beta, s, t, d), (A.name, alpha, beta, s, t, d)


def _assert_small_model_matches_bar(A, S, top):
    """The Koszul model of an ungraded F2[x]/(f), its small mixed complex,
    against the bar path, n from -2 up to where the bar check reads C_top:
    the truncation check at n ranks d_{n+1} at depth S + 1, whose left
    column is C_{n+2S+3}."""
    _assert_model_matches_bar(
        A, "koszul", S, [(n, 0) for n in range(-2, top - 2 * S - 2)])


def test_small_model_matches_bar_on_every_low_degree_f():
    # every f of degree 1 to 3 (degree 1: A = F2, where C_k = 0 for k >= 1
    # and M_k = F2), and four of degree 4, separable and not
    for m in (1, 2, 3):
        for low in range(2 ** m):
            exps = [e for e in range(m) if low >> e & 1]
            A = ungraded_x(m, *exps, name=f"x^{m} + {exps}")
            for S in (1, 2, 3, 4):
                _assert_small_model_matches_bar(A, S, 12 if m < 3 else 10)
    for exps in ((), (0,), (1, 0), (3, 2, 0)):
        A = ungraded_x(4, *exps, name=f"x^4 + {list(exps)}")
        for S in (1, 2):
            _assert_small_model_matches_bar(A, S, 7)


@settings(max_examples=10)
@given(small_presentations().filter(lambda A: not A.graded),
       st.integers(1, 4))
def test_small_model_matches_bar_on_draws(A, S):
    _assert_small_model_matches_bar(A, S, 10)


@pytest.mark.parametrize("generators", ["x", "xy", "xyz"])
def test_koszul_model_matches_bar_on_polynomial_rings(generators):
    # K = (Omega, 0, d) = Omega_R at r = 0: both rows build these words on
    # the same ring, and each is held to the bar path; chain_model selects
    # the Tate row.  polynomial_algebra gives a fresh algebra
    A = polynomial_algebra(generators)
    _assert_model_matches_bar(A, "koszul", 1, bidegree_window(A, 6, 6))
    _assert_tate_matches_bar(A, 6)


def test_koszul_model_matches_bar_on_weights():
    A = polynomial_algebra("xyz", (1, 2, 3))
    _assert_model_matches_bar(A, "koszul", 1, bidegree_window(A, 7, 7))
    _assert_tate_matches_bar(A, 7)


@settings(max_examples=10)
@given(small_presentations().filter(lambda A: not A.relations))
def test_koszul_model_matches_bar_on_draws(A):
    _assert_model_matches_bar(A, "koszul", 1, bidegree_window(A, 6, 6))
    _assert_tate_matches_bar(A, 6)


@pytest.mark.parametrize("A", [CUSP, XY_Z2, X2Y2_XY, X3_Y2],
                         ids=lambda A: A.name)
def test_tate_model_matches_bar_on_complete_intersections(A):
    # the cusp; xy + z^2; (x^2 + y^2, xy), where Buchberger adds y^3 but
    # the presented relations are a regular sequence; x^3 + y^2 on weights
    # (2, 3).  A fresh copy, so no other test's memo is read
    _assert_tate_matches_bar(dataclasses.replace(A), 6 if A.ngens < 3 else 5)


def _assert_tate_or_bar(A, top):
    """A graded draw: the Tate model matches the bar path where the
    detector accepts it, and every draw it rejects selects the bar path."""
    if _tate_resolution(A) is None:
        assert chain_model(A) == "bar", A.name
    else:
        _assert_tate_matches_bar(A, top)


@settings(max_examples=20)
@given(generic_forms())
def test_tate_model_matches_bar_on_regular_sequences(A):
    _assert_tate_or_bar(A, 5)


@settings(max_examples=12)
@given(small_presentations().filter(lambda A: A.graded))
def test_tate_model_matches_bar_on_draws(A):
    _assert_tate_or_bar(A, 5)


def test_detector_reads_the_presented_relations():
    def accepted(*relations, gens="xy"):
        return _tate_resolution(graded(gens, (1,) * len(gens), *relations,
                                       name=str(relations)))

    # x^2, x^3 is read as x^2
    _, ((deg, f, _),), _ = accepted({(2,)}, {(3,)}, gens="x")
    assert (deg, f) == (2, frozenset({((2,), ())}))
    # a relation of degree 1 is a change of variables: bar
    assert accepted({(1, 0), (0, 1)}) is None
    assert chain_model(graded("xy", (1, 1), {(1, 0), (0, 1)},
                              name="x + y")) == "bar"
    # not a complete intersection: bar
    assert chain_model(dataclasses.replace(X2_XY)) == "bar"
    # a regular sequence whose Groebner basis is longer: tate
    A = dataclasses.replace(X2Y2_XY)
    assert len(A.groebner) == 3 and chain_model(A) == "tate"
    assert [deg for deg, _, _ in _tate_resolution(A)[1]] == [2, 2]
    # (x^2, y^2) and (x^2, xy, y^2) in F2[x,y]: the first only
    assert accepted({(2, 0)}, {(0, 2)}) is not None
    assert accepted({(2, 0)}, {(1, 1)}, {(0, 2)}) is None


def test_detector_runs_once_per_algebra(monkeypatch, tmp_path):
    # loading a presentation runs no detector; chain_model runs it once
    # per algebra, whose redundancy check builds one presentation per
    # relation, and later calls read its memo
    import cyclo2.cyclic as cyclic
    built = []
    monkeypatch.setattr(cyclic, "AlgebraPresentation",
                        lambda *args: built.append(args)
                        or AlgebraPresentation(*args))
    path = tmp_path / "cusp.alg"
    path.write_text("[generators]\nx 1\ny 1\n[relations]\nx^2*y + y^3\n")
    A = load_presentation(str(path))
    assert not built and not A.memo("tate_resolution")
    for _ in range(3):
        assert chain_model(A) == "tate"
        assert len(built) == 1
    assert chain_model(load_presentation(str(path))) == "tate"
    assert len(built) == 2


def test_bounded_ranks_match_plain_ranks(monkeypatch):
    # each block rank of a differential stops at the bound its memoised
    # neighbours give, and equals the rank of the same columns under the
    # tracked lowest-bit loop whichever way n runs; some ranks do reach
    # their bound
    import cyclo2.cyclic as cyclic
    bounded = []
    monkeypatch.setattr(cyclic, "rank_of", lambda cols, bound: bounded.append(
        (rank_of(cols, bound), bound)) or bounded[-1][0])
    for name in ("dual_numbers.alg", "f2.alg", "f4.alg", "poly_x.alg",
                 "poly_xy.alg", "poly_xyz.alg"):
        for descending in (False, True):
            A = load_presentation(os.path.join(FIXTURES, name))
            window = sorted(bidegree_window(A, 4, 3), reverse=descending)
            for t in THEORY_BOUNDS:
                for n, D in window:
                    src = build_tower(A, t, n, D, 2)
                    tgt = build_tower(A, t, n - 1, D, 2)
                    assert differential_ranks(A, t, n, D, 2) == {
                        key: _tracked_rank(A, src, tgt, key)
                        for key in src.blocks}, (name, t, n, D, descending)
    assert any(0 < r == bound for r, bound in bounded)


def _tracked_rank(A, src, tgt, key):
    """The rank of a block of d_n from the tracked lowest-bit loop."""
    rows = sum(stop - start for _, start, stop, _ in tgt.blocks.get(key, ()))
    return rank_kernel_image(
        F2Matrix(rows, tuple(_block_columns(A, src, tgt, key))))[0]


def test_f8_deepest_block_rank_matches_tracked_rank():
    # the block of d_3 at depth 4 on ungraded F8 = F2[x]/(x^3 + x + 1),
    # 4,092 x 8,184, the largest the S + 1 check of compute hcminus at
    # S = 3 ranks: with d_2 and d_4 ranked first, its highest-bit rank
    # stops at its bound and equals the tracked lowest-bit rank
    A = AlgebraPresentation(("x",), (0,), (frozenset({(3,), (1,), (0,)}),),
                            graded=False, name="F8")
    for n in (2, 4):
        differential_ranks(A, "minus", n, 0, 4)
    src = build_tower(A, "minus", 3, 0, 4)
    tgt = build_tower(A, "minus", 2, 0, 4)
    assert (src.dim, tgt.dim) == (8184, 4092)
    rank = _tracked_rank(A, src, tgt, None)
    assert differential_ranks(A, "minus", 3, 0, 4) == {None: rank}
    assert rank == tgt.dim - differential_ranks(A, "minus", 2, 0, 4)[None]


def test_f4_hh_is_trivial_in_positive_degrees():
    # F4 is smooth (etale over F2): HH_n(F4) = 0 for n >= 1, dim 2 at n = 0
    assert homology(F4, "hh", 0, 0).dim == 2
    for n in range(1, 4):
        assert homology(F4, "hh", n, 0).dim == 0


def test_f4_hcminus_dims():
    # smooth: HC^-_n(F4) = F4 for even n <= 0, else 0 (same pattern as F2)
    for n in range(-4, 3):
        h = homology(F4, "hcminus", n, 0, S=3)
        expected = 2 if (n <= 0 and n % 2 == 0) else 0
        assert h.dim == expected, n
        assert truncation(F4, h).flag == "stable"


# ----- long exact sequences -----

def test_minus_les_exact_for_px():
    for d in range(0, 5):
        for n in range(-2, 4):
            for joint, defect in exactness_defects(PX, "minus_les", n,
                                                   d).items():
                assert defect == 0, (n, d, joint)


def test_connes_les_exact_for_px():
    for d in range(0, 5):
        for n in range(0, 5):
            for joint, defect in exactness_defects(PX, "connes", n,
                                                   d).items():
                assert defect == 0, (n, d, joint)


def test_per_les_exact_for_px():
    for d in range(0, 4):
        for n in range(-2, 4):
            for joint, defect in exactness_defects(PX, "per_les", n,
                                                   d).items():
                assert defect == 0, (n, d, joint)


def test_les_exact_for_ungraded_truncations():
    # the ungraded towers are truncated at S; the exact sequences must hold
    # for the truncated complexes at every depth, not only in the limit
    for A in (DUAL, F4):
        for S in (2, 3, 4):
            for n in range(-3, 5):
                for which in ("minus_les", "connes", "per_les"):
                    defects = exactness_defects(A, which, n, 0, S)
                    for joint, defect in defects.items():
                        assert defect == 0, (A.name, S, n, which, joint)
            # the subcomplex of columns <= -1 is HC^- one column shallower
            _, Hm2, _ = les_map(A, "minus_les", "i", 0, 0, S)
            _, _, Hm1 = les_map(A, "minus_les", "bd", 0, 0, S)
            assert Hm2.S == Hm1.S == S - 1


def _les_spaces(A, which, n, d, S):
    """The sources and targets of the maps i, p and bd at degree n."""
    return [h for name in ("i", "p", "bd")
            for h in les_map(A, which, name, n, d, S)[1:]]


def test_les_spaces_computed_at_depth_S_only():
    # the spaces of a sequence are read at their depth, without the
    # S + 1 check of truncation(): no tower one column deeper is built
    A = AlgebraPresentation(("x",), (0,), (frozenset({(3,)}),),
                            graded=False, name="F2[x]/(x^3)")
    for n in (0, 1):
        _les_spaces(A, "per_les", n, 0, 3)
    assert {key[3] for key in A.memo("tower")} == {0, 3}


def test_les_spaces_are_the_homology_records():
    for A, d, S in ((PX, 2, 3), (DUAL, 0, 3), (F4, 0, 2)):
        for which in SEQUENCES:
            for n in range(-2, 3):
                for h in _les_spaces(A, which, n, d, S):
                    assert h is homology(A, h.theory, h.n, h.d, h.S), \
                        (A.name, which, n, h.theory, h.n)


def test_truncated_les_spaces_of_the_dual_numbers_are_flagged():
    # at S = 3 every truncated space of the three sequences around
    # n = -2..2 is truncation-limited, and every finite one stable
    truncated = 0
    for which in SEQUENCES:
        for n in range(-2, 3):
            for h in _les_spaces(DUAL, which, n, 0, 3):
                expected = "truncation-limited" if h.slice.truncated \
                    else "stable"
                assert truncation(DUAL, h).flag == expected, \
                    (which, n, h.theory, h.n)
                truncated += h.slice.truncated
    assert truncated


def test_les_map_rejects_unknown_names():
    for which, name in (("minus", "i"), ("minus_les", "u")):
        with pytest.raises(TowerError):
            les_map(PX, which, name, 0, 1)


def test_unknown_chain_model_is_an_error():
    # on a slice with columns and on an empty one (hh at n = -1), and no
    # record of it is kept
    A = polynomial_algebra(["x"])
    for n in (1, -1):
        with pytest.raises(TowerError, match="'Koszul'"):
            homology(A, "hh", n, 1, model="Koszul")
    assert not any("Koszul" in key for table in ("tower", "homology")
                   for key in A.memo(table))


def test_connecting_map_formula():
    # HH_0 -> HC^-_1 sends the class of x[] to the class of 1 (x) 1[x]
    bd, hh0, hm1 = les_map(PX, "minus_les", "bd", 0, 1)
    assert hh0.dim == 1 and hm1.dim == 1
    assert bd.columns[0] & 1 == 1
    # the target class is represented by 1 (x) 1[x]
    x = (1,)
    v = vectorize(PX, hm1.slice,
                  UChain.make("minus", {0: frozenset({((0,), (x,))})}))
    assert hm1.coords(v) == 0b1


def _assert_bd_matches_oracle(A, which, n, D, S):
    # the connecting map of les_map is the one found by solving against
    # the whole p and i matrices
    bd, N_n, L_n1 = les_map(A, which, "bd", n, D, S)
    _, M_n, _ = les_map(A, which, "p", n, D, S)
    _, _, M_n1 = les_map(A, which, "i", n - 1, D, S)
    i_shift, p_shift = SEQUENCES[which].shifts
    oracle = oracle_connecting_map(
        A, N_n, L_n1, M_n.slice, M_n1.slice,
        slice_shift_map(M_n.slice, N_n.slice, p_shift),
        slice_shift_map(L_n1.slice, M_n1.slice, i_shift))
    assert bd == oracle, (A.name, which, n, D, S)


def test_connecting_maps_match_solving_oracle():
    fixtures = [load_presentation(os.path.join(FIXTURES, name))
                for name in sorted(os.listdir(FIXTURES))]
    for A in fixtures + [CUSP, truncated_cube()]:
        N = 2 if A.ngens > 2 else 3
        for S in (2, 3) if not A.graded else (3,):
            for which in SEQUENCES:
                for n, D in bidegree_window(A, N, N):
                    _assert_bd_matches_oracle(A, which, n, D, S)


def test_connecting_map_rejects_a_wrong_shift():
    # HH_0 -> HC^-_1 of F2[x] at D = 1 is nonzero; lifting along any other
    # column shift, or pulling back along one, fails its exact check
    _, hh0, hm1 = les_map(PX, "minus_les", "bd", 0, 1)
    slices = (hh0.slice, hm1.slice, build_tower(PX, "minus", 0, 1),
              build_tower(PX, "minus", -1, 1))
    assert not class_map(hh0, hm1,
                         connecting_map(PX, *slices, 0, -1)).is_zero()
    for p_shift, i_shift in ((1, -1), (-1, -1), (0, 0), (0, -2)):
        with pytest.raises(TowerError):
            class_map(hh0, hm1, connecting_map(PX, *slices, p_shift,
                                               i_shift))


def test_h_after_u_is_zero():
    for d in range(0, 4):
        u = les_map(PX, "minus_les", "i", 0, d)[0]
        h = les_map(PX, "minus_les", "p", 0, d)[0]
        assert h.compose(u).is_zero()


def test_connes_I_injective_degree0():
    mat, hh0, _ = les_map(PX, "connes", "i", 0, 0)
    rank = rank_kernel_image(mat)[0]
    assert rank == hh0.dim == 1


# ----- spectral sequence pages -----

def test_e1_page_outside_window_is_zero():
    assert e1_page(PX, 0, 0, -1, 3, 3) is None
    assert e2_page(PX, 0, 0, -1, 3, 3) == 0


def test_e1_page_is_hh():
    for s in (0, -1, -2):
        for t in (0, 1, 2):
            e1 = e1_page(PX, None, 0, s, t, d=4)
            assert e1 is not None
            assert e1.dim == homology(PX, "hh", t - s, 4).dim


def test_e2_page_px_matches_forms():
    # E^2_{0,t} = Ker(d: Omega^t -> Omega^{t+1}); for F2[x]:
    # t = 0, internal D: ker has dim 1 iff D even (d(x^D) = D x^{D-1} dx)
    for D in range(0, 7):
        dim0 = e2_page(PX, None, 0, 0, 0, D)
        assert dim0 == (1 if D % 2 == 0 else 0), D
    # t = 1: Omega^2 = 0, so everything in HH_1 is a d-cycle
    for D in range(1, 7):
        dim1 = e2_page(PX, None, 0, 0, 1, D)
        assert dim1 == 1, D
    # s < 0: de Rham cohomology; H^0 at D: dim 1 iff D even;
    # H^1 at D: dim 1 iff D even and D >= 2
    for D in range(0, 7):
        dim = e2_page(PX, None, 0, -1, -1, D)  # t - s = 0
        assert dim == (1 if D % 2 == 0 else 0), D
        dim = e2_page(PX, None, 0, -1, 0, D)  # t - s = 1
        assert dim == (1 if D % 2 == 0 and D >= 2 else 0), D


def _assert_e2_matches_oracle(A, top):
    """E^2 of the four theories at |s|, t, d <= top (d = 0 ungraded), on
    the bar model and on chain_model(A), against the class-map oracle."""
    for alpha, beta in (THEORY_BOUNDS[t] for t in ("hh", "plus", "minus",
                                                   "per")):
        for s in range(-top, top + 1):
            for t in range(top + 1):
                for d in range(top + 1) if A.graded else (0,):
                    expected = oracle_e2_page(A, alpha, beta, s, t, d)
                    for model in {"bar", chain_model(A)}:
                        assert e2_page(A, alpha, beta, s, t, d, model) == \
                            expected, (A.name, alpha, beta, s, t, d, model)


def test_e2_page_matches_class_maps():
    algebras = [load_presentation(os.path.join(FIXTURES, name))
                for name in ("dual_numbers.alg", "f2.alg", "f4.alg",
                             "poly_x.alg", "poly_xy.alg", "poly_xyz.alg")]
    xyz = AlgebraPresentation(("x", "y", "z"), (1, 1, 1),
                              (frozenset({(2, 0, 0)}), frozenset({(1, 1, 0)})),
                              name="F2[x,y,z]/(x^2, xy)")
    for A in algebras + [cusp(), polynomial_algebra("xyz", (1, 2, 3)), xyz]:
        _assert_e2_matches_oracle(A, 5)


@pytest.mark.parametrize("m,low", [(m, low) for m in (1, 2, 3)
                                   for low in range(2 ** m)])
def test_e2_page_matches_class_maps_on_every_low_degree_f(m, low):
    # f = x^m + the x^e with bit e of low set; the Koszul model is the
    # small mixed complex
    exps = [e for e in range(m) if low >> e & 1]
    _assert_e2_matches_oracle(ungraded_x(m, *exps, name=f"x^{m} + {exps}"),
                              5)


def test_ungraded_nonzero_internal_degree_is_empty():
    sl = build_tower(F4, "hh", 2, 1)
    assert sl.dim == 0


def _class_reps(A, theory, pairs):
    out = []
    for n, d in pairs:
        H = homology(A, theory, n, d)
        out.extend((H, unvectorize(H.slice, H.rep(k))) for k in range(H.dim))
    return out


def test_mu_associative_up_to_boundary():
    # mu(mu(x,y),z) + mu(x,mu(y,z)) on cycles is a boundary: it lies in
    # the span of the differential columns of the truncated tower
    from cyclo2.hochschild import mu_chain
    reps = _class_reps(PX, "hcminus",
                       [(n, d) for n in range(0, 2) for d in range(0, 3)])
    count = 0
    for Hx, x in reps:
        for Hy, y in reps:
            for Hz, z in reps:
                lhs = mu_chain(PX, mu_chain(PX, x, y), z)
                rhs = mu_chain(PX, x, mu_chain(PX, y, z))
                diff = lhs + rhs
                if diff.is_zero():
                    continue
                n = Hx.n + Hy.n + Hz.n
                d = Hx.d + Hy.d + Hz.d
                sl = build_tower(PX, "minus", n, d)
                sl_up = build_tower(PX, "minus", n + 1, d)
                cols = oracle_differential_columns(PX, sl_up, sl)
                target = vectorize(PX, sl, diff)
                assert oracle_echelonize_in(cols, sl.dim).contains(target), \
                    (n, d)
                count += 1
    # at least some nontrivial associators must have been checked
    assert count > 0


def test_class_product_independent_of_representatives():
    rng = random.Random(77)
    from cyclo2.hochschild import mu_chain
    for _ in range(40):
        ny, dy = rng.randint(0, 2), rng.randint(0, 3)
        nx, dx = rng.randint(0, 2), rng.randint(0, 3)
        Hy = homology(PX, "hcminus", ny, dy)
        Hx = homology(PX, "hcminus", nx, dx)
        if Hy.dim == 0 or Hx.dim == 0:
            continue
        y = unvectorize(Hy.slice, Hy.rep(rng.randrange(Hy.dim)))
        x = unvectorize(Hx.slice, Hx.rep(rng.randrange(Hx.dim)))
        # perturb y by a boundary
        sl_up = build_tower(PX, "minus", ny + 1, dy)
        if sl_up.dim == 0:
            continue
        w = rng.getrandbits(sl_up.dim)
        cols = oracle_differential_columns(PX, sl_up, Hy.slice)
        bnd = 0
        ww = w
        while ww:
            j = (ww & -ww).bit_length() - 1
            ww &= ww - 1
            bnd ^= cols[j]
        y2 = y + unvectorize(Hy.slice, bnd)
        H = homology(PX, "hcminus", ny + nx, dy + dx)
        c1 = H.coords(vectorize(PX, H.slice, mu_chain(PX, y, x)))
        c2 = H.coords(vectorize(PX, H.slice, mu_chain(PX, y2, x)))
        assert c1 == c2


def _oracle_homology_at(A, theory, n, d, S):
    """The unsplit path: whole-slice eliminations of the per-word
    differential columns."""
    sl_n = build_tower(A, theory, n, d, S)
    sl_dn = build_tower(A, theory, n - 1, d, S)
    sl_up = build_tower(A, theory, n + 1, d, S)
    return oracle_homology_bases(oracle_differential_columns(A, sl_n, sl_dn),
                                 oracle_differential_columns(A, sl_up, sl_n))


def _bases(h):
    return (*assembled_bases(h), h.complement)


def _assert_oracle_bases(A, theory, n, d, S):
    # the kept path (memoised block eliminations) and the unkept one of
    # the S + 1 check both give the whole-slice oracle's bases
    oracle = _oracle_homology_at(A, theory, n, d, S)
    assert _bases(homology(A, theory, n, d, S)) == oracle, \
        (A.name, theory, n, d, S)
    assert _bases(oracle_unkept_homology(A, theory, n, d, S)) == oracle, \
        (A.name, theory, n, d, S, "unkept")


def test_homology_bases_match_oracle_path():
    for A in (polynomial_algebra(["x", "y"]), CUSP):
        for n, d in bidegree_window(A, 4, 4):
            _assert_oracle_bases(A, "minus", n, d, 0)
    # many blocks per slice: three variables, and a monomial relation
    xy = AlgebraPresentation(("x", "y"), (1, 1), (frozenset({(1, 1)}),),
                             name="F2[x,y]/(xy)")
    for A in (polynomial_algebra(["x", "y", "z"]), xy):
        for theory in THEORY_BOUNDS:
            for n, d in bidegree_window(A, 3, 3):
                _assert_oracle_bases(A, theory, n, d, 0)
    for A in (field_f4(), dual_numbers(), truncated_cube()):
        for S in (2, 3):
            for theory in ("minus", "per"):
                for n in range(-3, 5):
                    _assert_oracle_bases(A, theory, n, 0, S)
    A = polynomial_algebra(["x", "y"])
    for n in range(4):
        for d in range(6):
            in_cols = d_matrix_columns(A, n - 1, d) if n >= 1 else []
            assert _bases(de_rham_cohomology(A, n, d)) == \
                oracle_homology_bases(d_matrix_columns(A, n, d), in_cols), \
                (n, d)


# ----- the homology-side property slice -----

@settings(max_examples=50)
@given(small_presentations())
def test_mixed_columns_keep_blocks_and_form_a_mixed_complex(A):
    """On monomial draws every b and B column stays inside the block of
    its source word's _block_key; on every draw b b = B B = b B + B b = 0
    on the per-degree matrices."""
    for d in range(5) if A.graded else (0,):
        b = lambda j: mixed_matrix(A, "b", j, d)
        B = lambda j: mixed_matrix(A, "B", j, d)
        for k in range(5):
            if A.monomial_ideal:
                src = chain_group(A, "bar", k, d)
                for op, k_tgt in (("b", k - 1), ("B", k + 1)):
                    tgt = chain_group(A, "bar", k_tgt, d).words
                    for w, col in zip(src.words, mixed_matrix(A, op, k, d)
                                      .columns):
                        keys = {_block_key(tgt[i])
                                for i in range(col.bit_length())
                                if col >> i & 1}
                        assert keys <= {_block_key(w)}, (A.name, op, w)
            assert b(k).compose(b(k + 1)).is_zero(), (A.name, k, d)
            assert B(k + 1).compose(B(k)).is_zero(), (A.name, k, d)
            assert b(k + 1).compose(B(k)).add(
                B(k - 1).compose(b(k))).is_zero(), (A.name, k, d)


def _assert_homology(H, where):
    cycles, boundaries = assembled_bases(H)
    assert contains_subspace(cycles, boundaries), where
    assert H.dim == cycles.dim - boundaries.dim, where
    for k in range(H.dim):
        assert H.coords(H.rep(k)) == 1 << k, (where, k)


def _assert_rank_path(A, windows):
    """Reads the dimension of every homology of the four theories over
    windows[S] at each depth S from ranks alone, then checks each against
    the basis path: the sum over blocks of cycles.dim - boundaries.dim and
    the unkept homology's dim.  Returns the (theory, n, D, S) read, with
    S = 0 where the tower is not truncated, once each."""
    ranked = {(t, n, D, build_tower(A, t, n, D, S).S):
              homology(A, t, n, D, S).dim
              for S, window in windows.items()
              for t in THEORY_BOUNDS for n, D in window}
    assert A.memo("differential") == {}, A.name
    for (t, n, D, S), dim in ranked.items():
        H = homology(A, t, n, D, S)
        assert dim == sum(c.dim - b.dim for c, b in H.pairs) == \
            oracle_unkept_homology(A, t, n, D, S).dim, (A.name, t, n, D, S)
    return list(ranked)


@pytest.mark.parametrize("name", ["dual_numbers.alg", "f2.alg", "f4.alg",
                                  "poly_x.alg", "poly_xy.alg",
                                  "poly_xyz.alg"])
def test_rank_path_matches_basis_path_on_fixtures(name):
    A = load_presentation(os.path.join(FIXTURES, name))
    window = bidegree_window(A, 5, 5)
    assert _assert_rank_path(A, {S: window for S in (
        (3,) if A.graded else (2, 3))})


def _assert_presented(sp, where):
    for c in [1 << k for k in range(sp.dim)] + [(1 << sp.dim) - 1]:
        assert sp.coords(sp.element(c)) == c, (where, c)


@settings(max_examples=50)
@given(small_presentations())
def test_homology_side_properties(A):
    """In a small window every tower homology and de Rham cohomology is
    cycles modulo boundaries with unit class coordinates, every presented
    space reads its own elements back, and every connecting map is the one
    found by solving.  On graded draws the three long exact sequences are
    exact and the squares of the approximation diagrams commute; on
    polynomial draws HH_n has the dimension of Omega^n (HKR)."""
    window = bidegree_window(A, 3, 3)
    # at S = 3 the deepest column holds up to four times the words of the
    # one before it: |n| <= 1 there keeps the draws fast
    windows = {2: window} if A.graded else \
        {2: window, 3: bidegree_window(A, 1, 0)}
    for t, n, D, S in _assert_rank_path(A, windows):
        _assert_homology(homology(A, t, n, D, S), (A.name, t, n, D, S))
        # rank + nullity: kernel and image of each block of d_n add up to
        # the block's dimension, and the blocks to the slice's; the rank
        # pass, run before any elimination, gave each block's image dim
        sl = build_tower(A, t, n, D, S)
        bases = differential_bases(A, t, n, D, S)
        dims = {key: kernel.dim + image.dim
                for key, (kernel, image) in bases.items()}
        assert dims == {
            key: sum(stop - start for _, start, stop, _ in segments)
            for key, segments in sl.blocks.items()}, (A.name, t, n, D, S)
        assert sum(dims.values()) == sl.dim, (A.name, t, n, D, S)
        assert differential_ranks(A, t, n, D, S) == {
            key: image.dim for key, (_, image) in bases.items()}, \
            (A.name, t, n, D, S)
    S = 2
    for nf in range(A.ngens + 1):
        for D in range(4) if A.graded else (0,):
            _assert_homology(de_rham_cohomology(A, nf, D), (A.name, nf, D))
            _assert_presented(omega_basis(A, nf, D), (A.name, nf, D))
    for fl in FLAVORS:
        for n, D in window:
            _assert_presented(ell_degree_basis(A, fl, n, D - n),
                              (A.name, fl, n, D))
    for which in SEQUENCES:
        for n, D in bidegree_window(A, 2, 3):
            _assert_bd_matches_oracle(A, which, n, D, S)
    if A.graded:
        for which in SEQUENCES:
            for n, D in bidegree_window(A, 2, 3):
                defects = exactness_defects(A, which, n, D, S)
                assert not any(defects.values()), (A.name, which, n, D,
                                                   defects)
        residuals = [r for r in verify_squares(A, 2, 3, S) if r["residual"]]
        assert not residuals, (A.name, residuals)
    if A.graded and not A.relations:
        for nf in range(A.ngens + 2):
            for D in range(4):
                assert homology(A, "hh", nf, D).dim == \
                    omega_basis(A, nf, D).dim, (A.name, nf, D)
