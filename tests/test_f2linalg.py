import random

import pytest
from hypothesis import given, strategies as st

from conftest import (
    oracle_echelonize_in,
    oracle_homology_bases,
    oracle_kernel_image,
)
from cyclo2.f2linalg import (
    F2LinalgError,
    F2Matrix,
    SubspaceBasis,
    echelonize,
    echelonize_in,
    homology_bases,
    matrix_from_columns,
    null_space,
    quotient_coordinates,
    rank_kernel_image,
    solve,
    vec_from_bits,
    vec_to_bits,
)


def dense(rows, cols=None):
    return F2Matrix.from_dense(rows, cols)


def oracle_rank(rows):
    """Independent rank computation: list-of-frozenset elimination."""
    basis = []
    for row in rows:
        cur = set(row)
        for b in basis:
            if min(b) in cur:
                cur ^= b
        if cur:
            basis.append(cur)
    return len(basis)


def test_rank_kernel_image_empty():
    rank, ker, im = rank_kernel_image(F2Matrix.zero(0, 0))
    assert rank == 0 and ker.dim == 0 and im.dim == 0


def test_rank_kernel_image_identity():
    rank, ker, im = rank_kernel_image(F2Matrix.identity(3))
    assert rank == 3 and ker.dim == 0 and im.dim == 3


def test_rank_kernel_all_ones():
    m = dense([[1, 1], [1, 1]])
    rank, ker, im = rank_kernel_image(m)
    assert rank == 1
    assert ker.vectors == (vec_from_bits([1, 1]),)


def test_kernel_vectors_annihilate():
    rng = random.Random(7)
    for _ in range(50):
        r, c = rng.randint(0, 6), rng.randint(0, 6)
        m = F2Matrix(r, c, tuple(rng.getrandbits(c) for _ in range(r)))
        rank, ker, im = rank_kernel_image(m)
        assert rank + ker.dim == c
        assert im.dim == rank
        for v in ker.vectors:
            assert m.apply(v) == 0
        # rank(m) == rank(m^T)
        assert rank_kernel_image(m.transpose())[0] == rank
        # independent oracle
        sets = [{j for j in range(c) if (row >> j) & 1} for row in m.row_data]
        assert oracle_rank(sets) == rank


def test_solve_identity():
    m = F2Matrix.identity(3)
    assert solve(m, 0b001) == 0b001


def test_solve_zero_matrix_no_solution():
    m = F2Matrix.zero(2, 2)
    assert solve(m, 0b01) is None


def test_solve_picks_echelon_particular_solution():
    m = dense([[1, 1]], cols=2)
    assert solve(m, 0) == 0  # (0,0), not (1,1)


def test_solve_membership_random():
    rng = random.Random(11)
    for _ in range(100):
        r, c = rng.randint(1, 7), rng.randint(1, 7)
        m = F2Matrix(r, c, tuple(rng.getrandbits(c) for _ in range(r)))
        x = rng.getrandbits(c)
        t = m.apply(x)
        sol = solve(m, t)
        assert sol is not None
        assert m.apply(sol) == t
        _, _, im = rank_kernel_image(m)
        bad = t
        # perturb target outside the image if possible
        for j in range(r):
            if not im.contains(bad ^ (1 << j)):
                assert solve(m, bad ^ (1 << j)) is None
                break


def test_quotient_trivial_homology():
    basis = echelonize([0b01, 0b10])
    assert quotient_coordinates(basis, basis, 0b11) == 0


def test_quotient_zero_boundaries():
    cycles = echelonize([0b01, 0b10])
    boundaries = SubspaceBasis(2, ())
    assert quotient_coordinates(cycles, boundaries, 0b01) == 0b01
    assert quotient_coordinates(cycles, boundaries, 0b11) == 0b11


def test_quotient_forced_class():
    cycles = echelonize([0b01, 0b10])
    boundaries = echelonize([0b11])
    v = 0b01
    assert quotient_coordinates(cycles, boundaries, v) == 0b1


def test_quotient_rejects_non_cycle():
    cycles = echelonize([0b011])
    boundaries = SubspaceBasis(3, ())
    with pytest.raises(F2LinalgError):
        quotient_coordinates(cycles, boundaries, 0b100)


def test_quotient_containment_violation():
    cycles = echelonize([0b01])
    boundaries = echelonize([0b10])
    with pytest.raises(F2LinalgError):
        quotient_coordinates(cycles, boundaries, 0b01)


def test_quotient_is_linear():
    rng = random.Random(3)
    for _ in range(50):
        dim = rng.randint(2, 8)
        cycles = echelonize([rng.getrandbits(dim) | 1 for _ in range(dim)])
        sub = [cycles.vectors[i] for i in range(cycles.dim) if rng.random() < 0.4]
        boundaries = echelonize(sub) if sub else SubspaceBasis(dim, ())
        pick = lambda: vec_from_bits(
            [rng.randint(0, 1) for _ in range(cycles.dim)])
        a = pick()
        b = pick()
        va = 0
        vb = 0
        for i, w in enumerate(cycles.vectors):
            if (a >> i) & 1:
                va ^= w
            if (b >> i) & 1:
                vb ^= w
        ca = quotient_coordinates(cycles, boundaries, va)
        cb = quotient_coordinates(cycles, boundaries, vb)
        cab = quotient_coordinates(cycles, boundaries, va ^ vb)
        assert cab == ca ^ cb


def test_vec_roundtrip():
    assert vec_to_bits(vec_from_bits([1, 0, 1]), 3) == (1, 0, 1)


def test_compose_matches_apply():
    rng = random.Random(13)
    for _ in range(50):
        a, b, c = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        m1 = F2Matrix(a, b, tuple(rng.getrandbits(b) for _ in range(a)))
        m2 = F2Matrix(b, c, tuple(rng.getrandbits(c) for _ in range(b)))
        comp = m1.compose(m2)
        assert (comp.rows, comp.cols) == (a, c)
        for _ in range(5):
            x = rng.getrandbits(c)
            assert comp.apply(x) == m1.apply(m2.apply(x))


@st.composite
def column_lists(draw):
    """(rows, columns): up to 40 columns in F2^rows, rows <= 40, with zero,
    repeated and dependent columns mixed in."""
    rows = draw(st.integers(0, 40))
    vector = st.integers(0, (1 << rows) - 1)
    pool = draw(st.lists(vector, min_size=1, max_size=6)) + [0]
    repeated = st.sampled_from(pool)
    dependent = st.builds(lambda a, b: a ^ b, repeated, repeated)
    cols = draw(st.lists(st.one_of(vector, repeated, dependent), max_size=40))
    return rows, cols


@given(column_lists())
def test_last_first_elimination_matches_oracle(case):
    rows, cols = case
    kernel, image = oracle_kernel_image(cols, rows)
    assert null_space(cols)[0].vectors == kernel.vectors
    rank, ker, im = rank_kernel_image(matrix_from_columns(cols, rows))
    assert (ker.vectors, im.vectors) == (kernel.vectors, image.vectors)
    assert rank == im.dim and rank + ker.dim == len(cols)
    assert echelonize_in(cols, rows).vectors == \
        oracle_echelonize_in(cols, rows).vectors == image.vectors


@given(column_lists(), st.data())
def test_homology_bases_match_oracle(case, data):
    # a complex C_2 -> C_1 -> C_0 with C_1 = F2^len(out): the incoming
    # columns are kernel vectors of the outgoing map, summed at random
    _, out = case
    kernel = null_space(out)[0].vectors
    combos = st.lists(st.sampled_from(kernel), max_size=4) if kernel \
        else st.just([])
    inc = [0]
    for picks in data.draw(st.lists(combos, max_size=8)):
        inc.append(0)
        for v in picks:
            inc[-1] ^= v
    assert homology_bases(out, inc) == oracle_homology_bases(out, inc)
