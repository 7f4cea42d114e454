import random

import pytest

from conftest import boundary_b, cartier_bijective, connes_B
from cyclo2.cyclic import homology, vectorize
from cyclo2.derham import (
    DeRhamError,
    antisymmetrize,
    cartier,
    cartier_form,
    de_rham_cohomology,
    de_rham_d,
    form,
    form_mul,
    omega_basis,
)
from cyclo2.gralg import dual_numbers, polynomial_algebra, trivial_algebra
from cyclo2.hochschild import UChain

PX = polynomial_algebra(["x"])
PXY = polynomial_algebra(["x", "y"])
F2 = trivial_algebra()
DUAL = dual_numbers()


def test_omega1_univariate_basis():
    for d in range(1, 6):
        sp = omega_basis(PX, 1, d)
        assert sp.basis() == (((d - 1,), (0,)),)


def test_omega2_univariate_vanishes():
    for d in range(0, 6):
        assert omega_basis(PX, 2, d).dim == 0


def test_omega1_dual_numbers():
    sp = omega_basis(DUAL, 1, 0)
    assert set(sp.basis()) == {((0,), (0,)), ((1,), (0,))}


def test_de_rham_d_examples():
    assert de_rham_d(PX, form((2,))) == frozenset()
    assert de_rham_d(PXY, form((1, 1))) == \
        form((0, 1), (0,)) ^ form((1, 0), (1,))
    assert de_rham_d(PX, form((1,), (0,))) == frozenset()


def test_d_squares_to_zero_random():
    rng = random.Random(41)
    for A in (PX, PXY):
        for _ in range(100):
            el = set()
            for _ in range(rng.randint(1, 3)):
                m = tuple(rng.randint(0, 3) for _ in range(A.ngens))
                t = tuple(sorted(rng.sample(range(A.ngens),
                                            rng.randint(0, A.ngens))))
                el.symmetric_difference_update({(m, t)})
            assert de_rham_d(A, de_rham_d(A, frozenset(el))) == frozenset()


def test_form_rejects_duplicate_dg():
    with pytest.raises(DeRhamError):
        form((0,), (0, 0))


def test_de_rham_cohomology_px():
    h0 = de_rham_cohomology(PX, 0, 2)
    assert h0.dim == 1 and h0.rep(0) == form((2,))
    h1 = de_rham_cohomology(PX, 1, 2)
    assert h1.dim == 1 and h1.rep(0) == form((1,), (0,))
    assert de_rham_cohomology(PX, 0, 3).dim == 0


def test_de_rham_cohomology_trivial_algebra():
    assert de_rham_cohomology(F2, 0, 0).dim == 1
    assert de_rham_cohomology(F2, 1, 0).dim == 0


def test_cartier_examples():
    assert cartier(PX, form((1,)), 0, 1) == 0b1
    target = de_rham_cohomology(PX, 0, 2)
    assert target.rep(0) == form((2,))
    assert cartier(PX, form((0,), (0,)), 1, 1) == 0b1
    assert de_rham_cohomology(PX, 1, 2).rep(0) == form((1,), (0,))
    assert cartier(PX, form((0,)), 0, 0) == 0b1


def test_cartier_form_representative():
    # x dx -> x^2 . (x dx) = x^3 dx
    assert cartier_form(PX, form((1,), (0,))) == form((3,), (0,))


def test_cartier_multiplicative():
    rng = random.Random(5)
    for _ in range(40):
        d1, d2 = rng.randint(0, 2), rng.randint(0, 2)
        n1, n2 = rng.randint(0, 1), rng.randint(0, 1)
        sp1 = omega_basis(PXY, n1, d1 + n1)
        sp2 = omega_basis(PXY, n2, d2 + n2)
        if sp1.dim == 0 or sp2.dim == 0:
            continue
        w1 = frozenset({sp1.basis()[rng.randrange(sp1.dim)]})
        w2 = frozenset({sp2.basis()[rng.randrange(sp2.dim)]})
        prod = form_mul(PXY, w1, w2)
        img = form_mul(PXY, cartier_form(PXY, w1), cartier_form(PXY, w2))
        n = n1 + n2
        d = (d1 + n1) + (d2 + n2)
        target = de_rham_cohomology(PXY, n, 2 * d)
        lhs = target.coords(cartier_form(PXY, prod))
        rhs = target.coords(img)
        assert lhs == rhs


def test_cartier_bijective_for_polynomial_algebras():
    for A in (PX, PXY):
        for n in range(0, A.ngens + 1):
            for d in range(0, 5):
                assert cartier_bijective(A, n, d), (A.name, n, d)


def test_cartier_not_bijective_for_dual_numbers():
    # Omega^1 has dim 2 but H^1_DR is bigger/smaller; smoothness fails
    results = [cartier_bijective(DUAL, n, 0) for n in (0, 1)]
    assert not all(results)


def test_antisymmetrize_examples():
    a0 = (2,)
    assert antisymmetrize(PX, form(a0, (0,))) == frozenset({(a0, ((1,),))})
    assert antisymmetrize(PX, form(a0)) == frozenset({(a0, ())})
    x, y = (1, 0), (0, 1)
    assert antisymmetrize(PXY, form((0, 0), (0, 1))) == \
        frozenset({((0, 0), (x, y)), ((0, 0), (y, x))})


def test_antisymmetrize_lands_in_cycles():
    rng = random.Random(19)
    for A in (PX, PXY):
        for _ in range(50):
            n = rng.randint(0, A.ngens)
            d = rng.randint(n, 4)
            sp = omega_basis(A, n, d)
            if sp.dim == 0:
                continue
            w = frozenset({sp.basis()[rng.randrange(sp.dim)]})
            assert boundary_b(A, antisymmetrize(A, w)) == frozenset()


def test_B_epsilon_commutes_with_epsilon_d_in_homology():
    for A in (PX, PXY):
        for n in range(0, A.ngens):
            for d in range(n, 5):
                sp = omega_basis(A, n, d)
                H = homology(A, "hh", n + 1, d)
                for g in sp.basis():
                    w = frozenset({g})
                    lhs = connes_B(A, antisymmetrize(A, w))
                    rhs = antisymmetrize(A, de_rham_d(A, w))
                    diff = lhs ^ rhs
                    v = vectorize(A, H.slice,
                                  UChain.make("minus", {0: diff})) if diff else 0
                    assert H.coords(v) == 0, (A.name, n, d, g)


def test_hkr_dimensions_match_for_smooth():
    # epsilon: Omega^n = HH_n for polynomial algebras, dimensionwise
    for A in (PX, PXY):
        for n in range(0, A.ngens + 1):
            for d in range(0, 5):
                assert omega_basis(A, n, d).dim == homology(A, "hh", n, d).dim
