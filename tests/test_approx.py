import gc
import os
import random
import weakref

import pytest

from hypothesis import given, settings

from conftest import non_iso_entries, oracle_chain_fold, \
    oracle_verify_squares, small_presentations, total_degrees, \
    uchain_boundary
from cyclo2.approx import (
    SQUARES,
    ApproxError,
    _is_cycle,
    chain_of_monomial,
    psi_class,
    psi_generator_image,
    psi_matrix,
    verify_approximation,
    verify_squares,
)
from cyclo2.cli import load_presentation
from cyclo2.cyclic import TowerError, build_tower, homology, les_map, \
    slice_differential, vectorize
from cyclo2.ell import MODELS, ell_degree_basis, ell_monomials, \
    per_monomials, u_orbit_shift
from cyclo2.gralg import AlgebraPresentation, dual_numbers, field_f4, \
    polynomial_algebra, trivial_algebra
from cyclo2.hochschild import UChain, mu_chain

F2 = trivial_algebra()
PX = polynomial_algebra(["x"])
F4 = field_f4()
DUAL = dual_numbers()
X = (1,)
ONE = (0,)


def w(head, *bars):
    return frozenset({(head, tuple(bars))})


def _cube():
    return AlgebraPresentation(("x",), (0,), (frozenset({(3,)}),),
                               graded=False, name="F2[x]/(x^3)")


def _cusp():
    return AlgebraPresentation(("x", "y"), (1, 1),
                               (frozenset({(2, 1), (0, 3)}),), name="cusp")


def _fixture(name):
    return load_presentation(os.path.join(os.path.dirname(__file__), "..",
                                          "fixtures", name))


def test_generator_images():
    assert psi_generator_image(PX, ("delta", X)).entries == \
        ((0, w(ONE, X)),)
    assert psi_generator_image(PX, ("q", X)).entries == ((0, w(X, X)),)
    phi = psi_generator_image(PX, ("phi", X))
    assert phi.entry(0) == w((2,)) and phi.entry(1) == w(ONE, X, X)
    # u is no generator of psi: chain_of_monomial builds u^j itself
    u = chain_of_monomial(PX, ("e", 1, (), (), ()))
    assert u == UChain.make("minus", {1: w(ONE)}) and _is_cycle(PX, u)


def test_phi_image_is_a_square():
    # phi(a) maps to mu(1 (x) a[], 1 (x) a[])
    a_chain = UChain.make("minus", {0: w(X)})
    sq = mu_chain(PX, a_chain, a_chain)
    assert sq.entries == psi_generator_image(PX, ("phi", X)).entries


def test_generator_images_are_cycles():
    # construction asserts it; exercise the failure path too
    for gen in [("delta", X), ("q", X), ("phi", X), ("gamma", X), ("v", 2)]:
        psi_generator_image(PX, gen)
    with pytest.raises(ApproxError):
        psi_generator_image(PX, ("bogus",))


def test_generator_check_reads_b_of_the_deepest_column():
    # u (x) a[] has b = 0, and its one boundary term is B of its deepest
    # column, u^2 (x) 1[a]: at depth 1 that term is cut, so the check reads
    # one column deeper
    for A in (F4, DUAL):
        x = UChain.make("minus", {1: w(A.gen_monomial(0))})
        src, tgt = (build_tower(A, "minus", m, 0, 1) for m in (-2, -3))
        assert slice_differential(A, src, tgt, vectorize(A, src, x)) == 0
        assert not _is_cycle(A, x), A.name


def test_r11_witness():
    # u delta(a) maps to u (x) 1[a] = boundary of 1 (x) a[]
    lift = UChain.make("minus", {0: w(X)})
    assert uchain_boundary(PX, lift).entries == ((1, w(ONE, X)),)
    # and u delta(x) is zero already at the monomial level (normal form)
    from cyclo2.ell import mon_mul
    u = ("e", 1, (), (), ())
    dx = ("e", 0, (), (), (X,))
    assert mon_mul(PX, u, dx) == frozenset()


def test_psi_of_phi_one_is_unit_class():
    H = homology(PX, "minus", 0, 0)
    coords = psi_class(PX, frozenset({("e", 0, (), (), ())}), H)
    unit = UChain.make("minus", {0: w(ONE)})
    assert coords == H.coords(vectorize(PX, H.slice, unit)) == 0b1


def test_psi_class_reads_bar_records_only():
    # psi's chains are bar chains, so a Koszul record of the same
    # homology is refused, not read as a bar one
    (mon,) = ell_degree_basis(PX, "ell", 0, 2).basis()
    el = frozenset({mon})
    assert psi_class(PX, el, homology(PX, "minus", 0, 2, 3)) == 0b1
    with pytest.raises(TowerError, match="bar"):
        psi_class(PX, el, homology(PX, "minus", 0, 2, 3, "koszul"))


def test_psi_respects_bidegrees():
    rng = random.Random(3)
    for n in range(-2, 3):
        for d in range(0, 5):
            sp = ell_degree_basis(PX, "ell", n, d)
            for mon in sp.basis():
                x = chain_of_monomial(PX, mon)
                if x.is_zero():
                    continue
                hom, internal = total_degrees(PX, x)
                assert (hom, internal) == (n, n + d)


def test_psi_plus_v0_is_unit_of_hc0():
    H = homology(PX, "plus", 0, 0)
    coords = psi_class(PX, frozenset({("v", 0, (), (), ())}), H)
    unit = UChain.make("plus", {0: w(ONE)})
    assert coords == H.coords(vectorize(PX, H.slice, unit)) == 0b1


def test_psi_plus_gamma_is_element_class():
    # gamma(a) -> a[] in HC_0
    H = homology(PX, "plus", 0, 2)
    coords = psi_class(PX, frozenset({("g", 0, (), (), (), (2,))}), H)
    target = UChain.make("plus", {0: w((2,))})
    assert coords == H.coords(vectorize(PX, H.slice, target))


def test_psi_matrix_certified_small_window():
    for n in range(-2, 3):
        for D in range(0, 5):
            psi_matrix(PX, "hcminus", n, D, certify=True)


def test_mixed_generator_degrees():
    # products are spelled in the argument-pool order (degree, then
    # grevlex), so generators of different degrees keep one canonical form
    A = polynomial_algebra("xy", (1, 2))
    squares = verify_squares(A, 2, 3)
    assert len(squares) == 64
    assert all(s["residual"] == 0 for s in squares)
    rep = verify_approximation(A, "hcminus", 3, 5)
    assert rep.all_iso() and rep.product_failures == 0


def test_verify_approximation_trivial_algebra():
    rep = verify_approximation(F2, "hcminus", 6, 6)
    assert rep.all_iso()
    assert rep.product_failures == 0


def test_verify_approximation_px_small():
    rep = verify_approximation(PX, "hcminus", 4, 4, seed=1)
    assert rep.all_iso()
    assert all(e.flag == "stable" for e in rep.entries)
    assert rep.product_checks > 0 and rep.product_failures == 0


def test_verify_approximation_f4():
    rep = verify_approximation(F4, "hcminus", 4, 0)
    assert rep.all_iso()
    assert rep.product_failures == 0


def test_negative_control_dual_numbers():
    rep = verify_approximation(DUAL, "hcminus", 4, 0)
    bad = non_iso_entries(rep)
    assert any(e.n <= 4 for e in bad)
    assert all(e.flag == "truncation-limited" for e in bad)
    # evidence recorded
    assert all("persistent" in e.note for e in bad)


def test_verify_squares_px():
    for record in verify_squares(PX, 2, 3):
        assert record["residual"] == 0, record


def test_verify_squares_f4():
    for record in verify_squares(F4, 2, 0):
        assert record["residual"] == 0, record


def test_verify_squares_truncated_cube():
    # the second non-smooth input after the dual numbers: every square of
    # the three diagrams commutes on the truncated towers
    records = verify_squares(_cube(), 3, 0, 3)
    assert len(records) == 32
    assert sum(r["residual"] for r in records) == 0


# the theory of the LES space that each model space maps to, and the name
# of that vertical map in the square names
FLAVOR_THEORY = {"ell": "minus", "ell_plus": "plus", "ell_per": "per",
                 "omega": "hh"}
VERTICAL = {"minus": "psi", "plus": "psi+", "per": "psiper", "hh": "eps"}
# the name of each LES map of each sequence in the square names
LES_NAMES = {"minus_les": {"i": "u", "p": "h", "bd": "bd"},
             "connes": {"i": "I", "p": "u", "bd": "bd"},
             "per_les": {"i": "iota", "p": "S", "bd": "bd"}}


def test_models_sit_on_the_les_corners():
    # each row's model map runs between the spaces over its LES map's
    # source and target: a space (flavor, k) around (m, d) over the record
    # of its theory in degree m + k, at every degree of the row
    for name, which, les_name, offset, (src, tgt, _) in SQUARES:
        for n in range(-2, 3):
            m = n + offset
            _, Hs, Ht = les_map(PX, which, les_name, m, 3)
            for (flavor, k), H in ((src, Hs), (tgt, Ht)):
                assert (FLAVOR_THEORY[flavor], m + k) == (H.theory, H.n), \
                    (name, n)


def test_square_names_follow_the_tables():
    # a square named a.b=c.d composes the model map with the vertical map
    # into its target, and the LES map with the one into its source
    assert len({row[1:3] for row in SQUARES}) == len(SQUARES) == 8
    for name, which, les_name, _, entry in SQUARES:
        model, = (key for row in MODELS.values()
                  for key, e in row.items() if e is entry)
        v_src, v_tgt = (VERTICAL[FLAVOR_THEORY[space[0]]]
                        for space in entry[:2])
        assert set(name.split("=")) == {
            f"{v_tgt}.{model}",
            f"{LES_NAMES[which][les_name]}.{v_src}"}, name


# (algebra, max_homological, max_internal, S)
SQUARE_CASES = {
    "f2.alg": (lambda: _fixture("f2.alg"), 3, 3, 3),
    "poly_x.alg": (lambda: _fixture("poly_x.alg"), 3, 3, 3),
    "poly_xy.alg": (lambda: _fixture("poly_xy.alg"), 3, 3, 3),
    "poly_xyz.alg": (lambda: _fixture("poly_xyz.alg"), 2, 3, 3),
    "dual_numbers.alg": (lambda: _fixture("dual_numbers.alg"), 3, 0, 3),
    "f4.alg": (lambda: _fixture("f4.alg"), 3, 0, 3),
    "F2[x,y], |y| = 2": (lambda: polynomial_algebra("xy", (1, 2)), 3, 3, 3),
    "cusp": (_cusp, 3, 3, 3),
    "F2[x]/(x^3), S = 2": (_cube, 2, 0, 2),
    "F4, S = 2": (field_f4, 3, 0, 2),
}


@pytest.mark.parametrize("name", SQUARE_CASES)
def test_squares_table_matches_oracle(name):
    """The table of squares gives the records of the eight hand-built
    blocks, each side on a fresh algebra."""
    make, N, D, S = SQUARE_CASES[name]
    records = verify_squares(make(), N, D, S)
    assert records == oracle_verify_squares(make(), N, D, S)
    assert records and all(r["residual"] == 0 for r in records)


def test_report_serialization():
    rep = verify_approximation(F2, "hcminus", 2, 2)
    d = rep.to_dict()
    assert d["theory"] == "hcminus"
    assert all("verdict" in e for e in d["entries"])


def test_finished_request_frees_the_algebra():
    """No reference cycle runs through an algebra, so it and its memo
    tables are freed when the last name goes, with the collector off."""
    gc.collect()
    gc.disable()
    try:
        for make, theory, n, d in ((lambda: polynomial_algebra("xy"),
                                    "hcminus", 3, 3),
                                   (lambda: polynomial_algebra("x"),
                                    "hcper", 3, 3),
                                   (field_f4, "hc", 2, 0)):
            A = make()
            verify_approximation(A, theory, n, d)
            ref = weakref.ref(A)
            del A
            assert ref() is None, theory
    finally:
        gc.enable()


# ----- the u-orbit sharing of chains and class matrices -----

def _assert_chains_match_the_fold(A, bidegrees):
    """psi(u^j m) is the u^0 chain moved by j: the chain of the fold from
    u^j, for every ell and ell_per candidate."""
    moved = 0
    for n, d in bidegrees:
        for mon in ell_monomials(A, n, d) + per_monomials(A, n, d):
            assert chain_of_monomial(A, mon) == oracle_chain_fold(A, mon), \
                (A.name, mon)
            moved += mon[1] != 0
    return moved


def _assert_psi_matrices_match_their_records(A, window):
    """Each class matrix, shared with its u-orbit representative or not,
    is psi_class of the source basis on the record itself.  Sharing happens
    on graded input only: an ungraded slice is cut at column -S for every
    n, so its shape moves with n."""
    shared = 0
    for t in ("minus", "per"):
        for n, D in window:
            mat, sp, H = psi_matrix(A, t, n, D, certify=True)
            assert mat.columns == tuple(
                psi_class(A, frozenset({m}), H) for m in sp.basis()), \
                (A.name, t, n, D)
            k = u_orbit_shift(sp.kind, n)
            shared += bool(k) and mat is psi_matrix(A, t, n + 2 * k, D)[0]
    assert bool(shared) == A.graded, (A.name, shared)


@pytest.mark.parametrize("name, D", [
    ("f2.alg", 8), ("poly_x.alg", 7), ("poly_xy.alg", 5),
    ("poly_xyz.alg", 4), ("dual_numbers.alg", 0), ("f4.alg", 0)])
def test_orbit_sharing_matches_the_direct_path(name, D):
    A = _fixture(name)
    window = [(n, e) for n in range(-6, 7) for e in range(D + 1)]
    assert _assert_chains_match_the_fold(
        A, [(n, e - n) for n, e in window])
    _assert_psi_matrices_match_their_records(A, window)


@settings(max_examples=15)
@given(small_presentations())
def test_orbit_sharing_on_random_presentations(A):
    window = [(n, e) for n in range(-3, 4)
              for e in (range(4) if A.graded else (0,))]
    _assert_chains_match_the_fold(A, [(n, e - n) for n, e in window])
    _assert_psi_matrices_match_their_records(A, window)
