import random

import pytest

from cyclo2.gralg import (
    AlgebraPresentation,
    AugmentationError,
    NotFiniteTypeError,
    PresentationError,
    dual_numbers,
    field_f4,
    grevlex_key,
    polynomial_algebra,
    trivial_algebra,
)


def test_normal_form_f4():
    A = field_f4()
    # x*x -> x + 1
    assert A.mul((1,), (1,)) == frozenset({(1,), (0,)})


def test_normal_form_dual_numbers():
    A = dual_numbers()
    assert A.mul((1,), (1,)) == frozenset()


def test_char_two_cancellation():
    A = polynomial_algebra(["x", "y"])
    # xy + yx = 0
    assert A.normal_form([(1, 1), (1, 1)]) == frozenset()


def test_normal_form_idempotent_random():
    rng = random.Random(5)
    A = field_f4()
    for _ in range(200):
        p = [(rng.randint(0, 5),) for _ in range(rng.randint(0, 4))]
        nf = A.normal_form(p)
        assert A.normal_form(nf) == nf


def test_degree_basis_univariate():
    A = polynomial_algebra(["x"])
    assert A.degree_basis(3) == ((3,),)


def test_degree_basis_two_vars():
    A = polynomial_algebra(["x", "y"])
    assert set(A.degree_basis(2)) == {(2, 0), (1, 1), (0, 2)}


def test_degree_basis_f4():
    A = field_f4()
    assert set(A.degree_basis(0)) == {(0,), (1,)}
    assert A.degree_basis(1) == ()


def test_basis_not_finite_type():
    A = AlgebraPresentation(("x",), (0,), (), graded=False)
    with pytest.raises(NotFiniteTypeError):
        A.basis_all()


def test_two_enumeration_strategies_agree():
    # standard monomials under the GB, counted two ways
    A = AlgebraPresentation(("x", "y"), (1, 1),
                            (frozenset({(2, 0), (0, 2)}),), graded=True)
    for d in range(7):
        direct = A.degree_basis(d)
        by_filter = tuple(sorted(
            (m for m in A._enumerate_graded(d) if A.is_reduced_monomial(m)),
            key=grevlex_key))
        assert direct == by_filter


def test_multiply_examples():
    F4 = field_f4()
    x = F4.normal_form([(1,)])
    xp1 = F4.normal_form([(1,), (0,)])
    assert F4.mul_elements(x, xp1) == frozenset({(0,)})  # x(x+1) = x^2+x = 1
    A = polynomial_algebra(["x", "y"])
    a = A.normal_form([(1, 0)])
    b = A.normal_form([(0, 1)])
    assert A.mul_elements(a, b) == frozenset({(1, 1)})
    one = A.normal_form([(0, 0)])
    assert A.mul_elements(a, one) == a


def test_multiply_respects_grading():
    rng = random.Random(9)
    A = polynomial_algebra(["x", "y"], [1, 2])
    for _ in range(100):
        da, db = rng.randint(0, 4), rng.randint(0, 4)
        pa = A.degree_basis(da)
        pb = A.degree_basis(db)
        if not pa or not pb:
            continue
        a = A.normal_form([rng.choice(pa)])
        b = A.normal_form([rng.choice(pb)])
        ab = A.mul_elements(a, b)
        if ab:
            assert A.degree(ab) == da + db


def test_augmentation_defaults():
    A = polynomial_algebra(["x"])
    assert A.augment([(0,)]) == 1
    assert A.augment([(1,)]) == 0
    assert A.augment([(2,), (0,)]) == 1  # x^2 + 1 -> 1


def test_augmentation_inconsistent_rejected():
    with pytest.raises(AugmentationError):
        AlgebraPresentation(("x",), (0,), (frozenset({(2,), (1,), (0,)}),),
                            graded=False, augmentation=(0,))


def test_f4_not_supplemented_but_loads():
    A = field_f4()
    assert not A.supplemented
    with pytest.raises(AugmentationError):
        A.augment([(1,)])


def test_graded_rejects_inhomogeneous():
    with pytest.raises(PresentationError):
        AlgebraPresentation(("x", "y"), (2, 1),
                            (frozenset({(2, 0), (0, 1)}),), graded=True)


def test_graded_rejects_degree_zero_generator():
    with pytest.raises(PresentationError):
        AlgebraPresentation(("x",), (0,), (), graded=True)


def test_trivial_algebra():
    A = trivial_algebra()
    assert A.degree_basis(0) == ((),)
    assert A.degree_basis(1) == ()


def test_monomial_ideal_flag():
    assert dual_numbers().monomial_ideal
    assert polynomial_algebra(["x"]).monomial_ideal
    assert not field_f4().monomial_ideal


def test_groebner_quotient_dimension():
    # F2[x,y]/(x^2+y^2, xy): dim in each degree matches hand count
    A = AlgebraPresentation(("x", "y"), (1, 1),
                            (frozenset({(2, 0), (0, 2)}), frozenset({(1, 1)})),
                            graded=True)
    dims = [len(A.degree_basis(d)) for d in range(5)]
    # basis: 1; x, y; y^2 (x^2 = y^2, xy = 0); y^3 = x^2 y = 0 ... check
    nf = A.normal_form([(0, 3)])
    assert dims[0] == 1 and dims[1] == 2
    assert dims[2] == 1
    assert dims[3] == len(A.degree_basis(3))
