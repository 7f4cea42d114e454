import gc
import random
import weakref

import pytest

from cyclo2.approx import (
    ApproxError,
    chain_of_monomial,
    psi_class,
    psi_generator_image,
    psi_matrix,
    verify_approximation,
    verify_squares,
)
from cyclo2.cyclic import homology, vectorize
from cyclo2.ell import ell_degree_basis
from cyclo2.gralg import AlgebraPresentation, dual_numbers, field_f4, \
    polynomial_algebra, trivial_algebra
from cyclo2.hochschild import UChain, chain, mu_chain, uchain_boundary

F2 = trivial_algebra()
PX = polynomial_algebra(["x"])
F4 = field_f4()
DUAL = dual_numbers()
X = (1,)
ONE = (0,)


def w(head, *bars):
    return chain([(head, tuple(bars))])


def test_generator_images():
    assert psi_generator_image(PX, ("delta", X)).entries == \
        ((0, w(ONE, X)),)
    assert psi_generator_image(PX, ("q", X)).entries == ((0, w(X, X)),)
    phi = psi_generator_image(PX, ("phi", X))
    assert phi.entry(0) == w((2,)) and phi.entry(1) == w(ONE, X, X)
    assert psi_generator_image(PX, ("u",)).entries == ((1, w(ONE)),)


def test_phi_image_is_a_square():
    # phi(a) maps to mu(1 (x) a[], 1 (x) a[])
    a_chain = UChain.make("minus", {0: w(X)})
    sq = mu_chain(PX, a_chain, a_chain)
    assert sq.entries == psi_generator_image(PX, ("phi", X)).entries


def test_generator_images_are_cycles():
    # construction asserts it; exercise the failure path too
    for gen in [("delta", X), ("q", X), ("phi", X), ("u",), ("gamma", X),
                ("v", 2)]:
        psi_generator_image(PX, gen)
    with pytest.raises(ApproxError):
        psi_generator_image(PX, ("bogus",))


def test_r11_witness():
    # u delta(a) maps to u (x) 1[a] = boundary of 1 (x) a[]
    lift = UChain.make("minus", {0: w(X)})
    assert uchain_boundary(PX, lift).entries == ((1, w(ONE, X)),)
    # and u delta(x) is zero already at the monomial level (normal form)
    from cyclo2.ell import ell_mon_mul
    u = ("e", 1, (), (), ())
    dx = ("e", 0, (), (), (X,))
    assert ell_mon_mul(PX, u, dx) == frozenset()


def test_psi_of_phi_one_is_unit_class():
    H = homology(PX, "minus", 0, 0)
    coords = psi_class(PX, frozenset({("e", 0, (), (), ())}), H)
    unit = UChain.make("minus", {0: w(ONE)})
    assert coords == H.coords(vectorize(PX, H.slice, unit)) == 0b1


def test_psi_respects_bidegrees():
    rng = random.Random(3)
    for n in range(-2, 3):
        for d in range(0, 5):
            sp = ell_degree_basis(PX, "ell", n, d)
            for mon in sp.basis():
                x = chain_of_monomial(PX, mon)
                if x.is_zero():
                    continue
                hom, internal = x.total_degrees(PX)
                assert (hom, internal) == (n, n + d)


def test_psi_plus_v0_is_unit_of_hc0():
    H = homology(PX, "plus", 0, 0)
    coords = psi_class(PX, frozenset({("v", 0, 0, (), ())}), H)
    unit = UChain.make("plus", {0: w(ONE)})
    assert coords == H.coords(vectorize(PX, H.slice, unit)) == 0b1


def test_psi_plus_gamma_is_element_class():
    # gamma(a) -> a[] in HC_0
    H = homology(PX, "plus", 0, 2)
    coords = psi_class(PX, frozenset({("g", (), (), (), (2,))}), H)
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
    bad = rep.non_iso_entries()
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
    A = AlgebraPresentation(("x",), (0,), (frozenset({(3,)}),),
                            graded=False, name="F2[x]/(x^3)")
    records = verify_squares(A, 3, 0, 3)
    assert len(records) == 32
    assert sum(r["residual"] for r in records) == 0


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
