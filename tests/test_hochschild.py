import random

import pytest

from conftest import boundary_b, connes_B, oracle_shuffle_orders, scale_u, \
    uchain_boundary, unit_uchain
from cyclo2.gralg import dual_numbers, field_f4, polynomial_algebra
from cyclo2.hochschild import (
    ChainError,
    UChain,
    cyclic_shuffles,
    mu_chain,
    shuffle_product,
    shuffles,
)

A3 = polynomial_algebra(["x", "y", "z"])
X, Y, Z = (1, 0, 0), (0, 1, 0), (0, 0, 1)
ONE = (0, 0, 0)


def w(head, *bars):
    return frozenset({(head, tuple(bars))})


def test_b_basic():
    # b(1[x|y]) = x[y] + 1[xy] + y[x]
    c = boundary_b(A3, w(ONE, X, Y))
    assert c == w(X, Y) ^ w(ONE, (1, 1, 0)) ^ w(Y, X)


def test_b_square_word_dies():
    # b(x[x]) = x^2[] + x^2[] = 0
    assert boundary_b(A3, w(X, X)) == frozenset()


def test_b_no_bars():
    assert boundary_b(A3, w(X)) == frozenset()


def test_b_normalization_drop():
    # in F4, x*x = x + 1: the scalar part is dropped in a bar slot
    F4 = field_f4()
    x = (1,)
    c = boundary_b(F4, w((0,), x, x, x))
    # b(1[x|x|x]) = x[x|x] + 1[(x+1)|x] + 1[x|(x+1)] + x[x|x]
    #            = 1[x|x] + 1[x|x] = 0 after dropping scalars
    assert c == frozenset()


def test_B_basic():
    assert connes_B(A3, w((2, 0, 0))) == w(ONE, (2, 0, 0))
    assert connes_B(A3, w(ONE, X)) == frozenset()
    assert connes_B(A3, w(X, Y)) == w(ONE, X, Y) ^ w(ONE, Y, X)


def test_shuffles_counts_and_lists():
    # gather orders: slot s of a product word takes item order[s]
    assert shuffles(1, 0) == ((0,),)
    assert len(shuffles(1, 1)) == 2
    assert set(shuffles(1, 2)) == {(0, 1, 2), (1, 0, 2), (1, 2, 0)}
    assert len(shuffles(3, 4)) == 35


CS21 = {(0, 1, 2), (0, 2, 1), (1, 0, 2)}
CS22 = {
    (0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2),
    (0, 2, 1, 3), (0, 2, 3, 1), (0, 3, 1, 2), (3, 0, 1, 2),
    (0, 3, 2, 1), (3, 0, 2, 1), (1, 3, 0, 2), (3, 1, 0, 2),
}


def test_cyclic_shuffles_2_1():
    assert set(cyclic_shuffles(2, 1)) == CS21


def test_cyclic_shuffles_2_2():
    assert set(cyclic_shuffles(2, 2)) == CS22


def test_cyclic_shuffles_1_1():
    assert cyclic_shuffles(1, 1) == ((0, 1),)


def test_cyclic_shuffles_rejects_zero():
    with pytest.raises(ChainError):
        cyclic_shuffles(0, 1)


def test_shuffle_tables_match_their_definitions():
    # both tables against the permutation oracle, as sets, with no order
    # listed twice
    for p in range(7):
        for q in range(7 - p):
            tables = [(shuffles(p, q), False)]
            if p and q:
                tables.append((cyclic_shuffles(p, q), True))
            for table, cyclic in tables:
                assert len(set(table)) == len(table), (p, q, cyclic)
                assert set(table) == oracle_shuffle_orders(p, q, cyclic), \
                    (p, q, cyclic)


def test_shuffle_product_examples():
    a0, a1, b0, b1 = X, Y, Z, (2, 0, 0)
    assert shuffle_product(A3, w(a0, a1), w(b0)) == w((1, 0, 1), a1)
    lhs = shuffle_product(A3, w(a0, a1), w(b0, b1))
    head = (1, 0, 1)
    assert lhs == w(head, a1, b1) ^ w(head, b1, a1)
    # 1[x] . 1[y] = 1[x|y] + 1[y|x]
    assert shuffle_product(A3, w(ONE, X), w(ONE, Y)) == \
        w(ONE, X, Y) ^ w(ONE, Y, X)


def um(theory="minus", **entries):
    return UChain.make(theory, {int(k): v for k, v in entries.items()})


def test_small_product_formula():
    # mu(u^i (x) a0[], u^j (x) b0[]) = u^{i+j} a0b0[] + u^{i+j+1} 1[a0|b0]
    x = UChain.make("minus", {1: w(X)})
    y = UChain.make("minus", {2: w(Y)})
    prod = mu_chain(A3, x, y)
    assert prod.entry(3) == w((1, 1, 0))
    assert prod.entry(4) == w(ONE, X, Y)
    assert len(prod.entries) == 2


def test_delta_square_vanishes():
    d = UChain.make("minus", {0: w(ONE, X)})
    assert mu_chain(A3, d, d).is_zero()


def test_q_square_vanishes():
    q = UChain.make("minus", {0: w(X, X)})
    assert mu_chain(A3, q, q).is_zero()


def phi_bar(a, asq):
    return UChain.make("minus", {0: w(asq), 1: w(ONE, a, a)})


def test_phi_phi_product_expansion():
    # the full expansion of the product of two phi-generator chains
    a, b = X, Y
    asq, bsq = (2, 0, 0), (0, 2, 0)
    absq = (2, 2, 0)
    ab = (1, 1, 0)
    prod = mu_chain(A3, phi_bar(a, asq), phi_bar(b, bsq))
    assert prod.entry(0) == w(absq)
    assert prod.entry(1) == (w(ONE, asq, bsq) ^ w(asq, b, b) ^ w(bsq, a, a))
    expected2 = (w(ONE, a, a, b, b) ^ w(ONE, a, b, a, b) ^ w(ONE, a, b, b, a)
                 ^ w(ONE, b, a, a, b) ^ w(ONE, b, a, b, a) ^ w(ONE, b, b, a, a))
    assert prod.entry(2) == expected2


def test_u_q_q_product():
    a, b = X, Y
    ab = (1, 1, 0)
    qa = UChain.make("minus", {1: w(a, a)})
    qb = UChain.make("minus", {0: w(b, b)})
    prod = mu_chain(A3, qa, qb)
    assert prod.entry(1) == (w(ab, a, b) ^ w(ab, b, a))
    assert prod.entry(2) == (w(ONE, a, b, a, b) ^ w(ONE, b, a, b, a))


def test_theory_combination():
    m = unit_uchain(A3, "minus")
    p = unit_uchain(A3, "plus")
    per = unit_uchain(A3, "per")
    assert mu_chain(A3, m, p).theory == "plus"
    assert mu_chain(A3, m, per).theory == "per"
    with pytest.raises(ChainError):
        mu_chain(A3, p, per)


def test_plus_truncation():
    # cyclic terms above u^0 are quotiented away in the plus theory
    x = UChain.make("plus", {0: w(X)})
    y = UChain.make("plus", {0: w(Y)})
    prod = mu_chain(A3, x, y)
    assert prod.entry(1) == frozenset()
    assert prod.entry(0) == w((1, 1, 0))


FIXTURES = [polynomial_algebra(["x"]), polynomial_algebra(["x", "y"]),
            field_f4(), dual_numbers()]


def random_chain(A, rng, max_bars=4, max_deg=3):
    if A.graded:
        monos = [m for d in range(1, max_deg + 1) for m in A.degree_basis(d)]
        heads = [m for d in range(0, max_deg + 1) for m in A.degree_basis(d)]
    else:
        monos = [m for m in A.basis_all() if m != A.one]
        heads = list(A.basis_all())
    nbars = rng.randint(0, max_bars)
    out = set()
    for _ in range(rng.randint(1, 3)):
        head = rng.choice(heads)
        bars = tuple(rng.choice(monos) for _ in range(nbars))
        out.symmetric_difference_update({(head, bars)})
    return frozenset(out)


@pytest.mark.parametrize("A", FIXTURES, ids=lambda a: a.name)
def test_chain_identities_random(A):
    rng = random.Random(17)
    for _ in range(120):
        c = random_chain(A, rng)
        assert boundary_b(A, boundary_b(A, c)) == frozenset()
        assert connes_B(A, connes_B(A, c)) == frozenset()
        assert boundary_b(A, connes_B(A, c)) == connes_B(A, boundary_b(A, c))


@pytest.mark.parametrize("A", FIXTURES, ids=lambda a: a.name)
def test_shuffle_product_is_chain_map(A):
    rng = random.Random(23)
    for _ in range(40):
        x = random_chain(A, rng, max_bars=3, max_deg=2)
        y = random_chain(A, rng, max_bars=3, max_deg=2)
        lhs = boundary_b(A, shuffle_product(A, x, y))
        rhs = shuffle_product(A, boundary_b(A, x), y) ^ \
            shuffle_product(A, x, boundary_b(A, y))
        assert lhs == rhs


def test_uchain_boundary_squares_to_zero():
    rng = random.Random(31)
    for A in FIXTURES:
        for _ in range(30):
            x = UChain.make("minus", {rng.randint(0, 2): random_chain(A, rng)})
            assert uchain_boundary(A, uchain_boundary(A, x)).is_zero()


def test_scale_u():
    x = UChain.make("minus", {0: w(X)})
    assert scale_u(x, 2).entry(2) == w(X)
    p = UChain.make("plus", {0: w(X), -1: w(Y)})
    shifted = scale_u(p, 1)
    assert shifted.entry(0) == w(Y) and shifted.entry(1) == frozenset()
