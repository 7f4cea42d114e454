import random

import pytest
from hypothesis import example, given, strategies as st

from conftest import (
    assembled_bases,
    oracle_class_coordinates,
    oracle_echelonize_in,
    oracle_homology_bases,
    oracle_kernel_image,
    quotient_coordinates,
)
from cyclo2.f2linalg import (
    F2LinalgError,
    F2Matrix,
    Homology,
    SubspaceBasis,
    complement_basis,
    echelonize_in,
    null_space,
    rank_kernel_image,
    rank_of,
)


def transpose(m):
    """The cols x rows matrix whose columns are the rows of m."""
    rows = [0] * m.rows
    for j, c in enumerate(m.columns):
        while c:
            low = c & -c
            c ^= low
            rows[low.bit_length() - 1] |= 1 << j
    return F2Matrix(m.cols, tuple(rows))


def from_rows(rows, ncols):
    """The len(rows) x ncols matrix whose row i is the bitmask rows[i]."""
    return transpose(F2Matrix(ncols, tuple(rows)))


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
    rank, ker, im = rank_kernel_image(F2Matrix(0, ()))
    assert rank == 0 and ker.dim == 0 and im.dim == 0


def test_rank_kernel_image_identity():
    rank, ker, im = rank_kernel_image(F2Matrix(3, (0b001, 0b010, 0b100)))
    assert rank == 3 and ker.dim == 0 and im.dim == 3


def test_rank_kernel_all_ones():
    m = F2Matrix(2, (0b11, 0b11))
    rank, ker, im = rank_kernel_image(m)
    assert rank == 1
    assert ker.vectors == (0b11,)


def test_kernel_vectors_annihilate():
    rng = random.Random(7)
    for _ in range(50):
        r, c = rng.randint(0, 6), rng.randint(0, 6)
        rows = [rng.getrandbits(c) for _ in range(r)]
        m = from_rows(rows, c)
        rank, ker, im = rank_kernel_image(m)
        assert rank + ker.dim == c
        assert im.dim == rank
        for v in ker.vectors:
            assert m.apply(v) == 0
        # rank(m) == rank(m^T)
        assert rank_kernel_image(transpose(m))[0] == rank
        # independent oracle
        sets = [{j for j in range(c) if (row >> j) & 1} for row in rows]
        assert oracle_rank(sets) == rank


def test_subspace_rejects_a_basis_that_is_not_back_substituted():
    # 0b01 = 0b11 + 0b10 lies in the span, but a reduce that trusts the
    # pivot mask would leave it unreduced
    with pytest.raises(F2LinalgError):
        SubspaceBasis(2, (0b11, 0b10)).reduce(0b01)


def test_subspace_rejects_a_vector_outside_the_ambient_space():
    with pytest.raises(F2LinalgError):
        SubspaceBasis(2, (0b100,)).reduce(0b1)


def test_quotient_trivial_homology():
    basis = echelonize_in([0b01, 0b10], 2)
    assert quotient_coordinates(basis, basis, 0b11) == 0


def test_quotient_zero_boundaries():
    cycles = echelonize_in([0b01, 0b10], 2)
    boundaries = SubspaceBasis(2, ())
    assert quotient_coordinates(cycles, boundaries, 0b01) == 0b01
    assert quotient_coordinates(cycles, boundaries, 0b11) == 0b11


def test_quotient_forced_class():
    cycles = echelonize_in([0b01, 0b10], 2)
    boundaries = echelonize_in([0b11], 2)
    v = 0b01
    assert quotient_coordinates(cycles, boundaries, v) == 0b1


def test_quotient_rejects_non_cycle():
    cycles = echelonize_in([0b011], 3)
    boundaries = SubspaceBasis(3, ())
    with pytest.raises(F2LinalgError):
        quotient_coordinates(cycles, boundaries, 0b100)
    with pytest.raises(F2LinalgError):  # a cycle and a bit past the space
        quotient_coordinates(cycles, boundaries, 0b100011)


def test_quotient_containment_violation():
    cycles = echelonize_in([0b01], 2)
    boundaries = echelonize_in([0b10], 2)
    with pytest.raises(F2LinalgError):
        quotient_coordinates(cycles, boundaries, 0b01)


def test_quotient_is_linear():
    rng = random.Random(3)
    for _ in range(50):
        dim = rng.randint(2, 8)
        cycles = echelonize_in([rng.getrandbits(dim) | 1 for _ in range(dim)],
                               dim)
        sub = [cycles.vectors[i] for i in range(cycles.dim) if rng.random() < 0.4]
        boundaries = echelonize_in(sub, dim)
        pick = lambda: sum(rng.randint(0, 1) << i for i in range(cycles.dim))
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


def test_compose_matches_apply():
    rng = random.Random(13)
    for _ in range(50):
        a, b, c = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        m1 = from_rows([rng.getrandbits(b) for _ in range(a)], b)
        m2 = from_rows([rng.getrandbits(c) for _ in range(b)], c)
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
    rank, ker, im = rank_kernel_image(F2Matrix(rows, tuple(cols)))
    assert (ker.vectors, im.vectors) == (kernel.vectors, image.vectors)
    assert rank == im.dim and rank + ker.dim == len(cols)
    assert echelonize_in(cols, rows).vectors == \
        oracle_echelonize_in(cols, rows).vectors == image.vectors


def dense_of(m):
    """m as a list of rows of 0/1 entries."""
    return [[(c >> i) & 1 for c in m.columns] for i in range(m.rows)]


@given(column_lists(), st.data())
def test_column_store_matches_dense_oracle(case, data):
    rows, cols = case
    m = F2Matrix(rows, tuple(cols))
    a = dense_of(m)
    x = data.draw(st.integers(0, (1 << m.cols) - 1))
    assert [(m.apply(x) >> i) & 1 for i in range(rows)] == \
        [sum(e & (x >> j) for j, e in enumerate(row)) & 1 for row in a]
    other = F2Matrix(m.cols, tuple(data.draw(
        st.lists(st.integers(0, (1 << m.cols) - 1), max_size=8))))
    b = dense_of(other)
    product = m.compose(other)
    assert (product.rows, product.cols) == (rows, other.cols)
    assert dense_of(product) == [
        [sum(a[i][k] & b[k][j] for k in range(m.cols)) & 1
         for j in range(other.cols)] for i in range(rows)]
    same = F2Matrix(rows, tuple(data.draw(st.lists(
        st.integers(0, (1 << rows) - 1), min_size=m.cols, max_size=m.cols))))
    total = m.add(same)
    assert (total.rows, total.cols) == (rows, m.cols)
    assert dense_of(total) == [[e ^ f for e, f in zip(r, s)]
                               for r, s in zip(a, dense_of(same))]
    for mat in (m, total, m.add(m)):
        assert mat.is_zero() == (not any(map(any, dense_of(mat))))


def draw_complex(case, data):
    """(out, inc): a complex C_2 -> C_1 -> C_0 with C_1 = F2^len(out),
    out the columns of the case; the incoming columns inc are kernel
    vectors of the outgoing map, summed at random."""
    _, out = case
    kernel = null_space(out)[0].vectors
    combos = st.lists(st.sampled_from(kernel), max_size=4) if kernel \
        else st.just([])
    inc = [0]
    for picks in data.draw(st.lists(combos, max_size=8)):
        inc.append(0)
        for v in picks:
            inc[-1] ^= v
    return out, inc


@given(column_lists(), st.data())
def test_homology_bases_match_oracle(case, data):
    out, inc = draw_complex(case, data)
    h = Homology.from_columns(out, inc)
    assert (*assembled_bases(h), h.complement) == \
        oracle_homology_bases(out, inc)


@given(st.lists(column_lists(), min_size=1, max_size=4), st.data())
def test_block_class_coordinates_match_the_assembled_ones(cases, data):
    # 1-4 blocks interleaved as random monotone runs that partition the
    # ambient space: the merged complement and the coordinates read block
    # by block are those of the assembled bases
    pairs = []
    for case in cases:
        out, inc = draw_complex(case, data)
        pairs.append((null_space(out)[0], echelonize_in(inc, len(out))))
    owner = data.draw(st.permutations(
        [b for b, (c, _) in enumerate(pairs) for _ in range(c.ambient_dim)]))
    places = [[j for j, o in enumerate(owner) if o == b]
              for b in range(len(pairs))]
    runs = [[] for _ in pairs]
    for b, where in enumerate(places):
        for local, ambient in enumerate(where):
            if local and where[local - 1] == ambient - 1:
                start, first, length = runs[b][-1]
                runs[b][-1] = (start, first, length + 1)
            else:
                runs[b].append((ambient, local, 1))
    h = Homology(len(owner), tuple(map(tuple, runs)), tuple(pairs))
    cycles, boundaries = assembled_bases(h)
    assert h.complement == complement_basis(cycles, boundaries)
    assert h.dim == len(h.complement)
    for k in range(h.dim):
        assert h.coords(h.rep(k)) == 1 << k, k
    for picks in data.draw(st.lists(
            st.integers(0, (1 << cycles.dim) - 1), min_size=1, max_size=4)):
        v = 0
        for k, w in enumerate(cycles.vectors):
            if picks >> k & 1:
                v ^= w
        assert h.coords(v) == \
            oracle_class_coordinates(h.complement, boundaries, v)
        for (c, _), where in zip(pairs, places):
            off = [j for j in range(c.ambient_dim) if c.reduce(1 << j)]
            if off:  # a non-cycle in this block
                with pytest.raises(F2LinalgError):
                    h.coords(v ^ 1 << where[off[0]])
        past = h.ambient_dim + data.draw(st.integers(0, 3))
        with pytest.raises(F2LinalgError):
            h.coords(v ^ 1 << past)


class _Reads(list):
    """A list of vectors that records each one iterated."""

    def __iter__(self):
        self.read = []
        for v in list.__iter__(self):
            self.read.append(v)
            yield v


@given(column_lists(), st.randoms(use_true_random=False))
@example((3, [0b100, 0b101, 0b010]), random.Random(0))  # 0b101 must reduce
def test_bounded_rank_equals_rank(case, rnd):
    # rank_of pivots on the highest bit, the tracked loop on the lowest:
    # a rank that stops at any upper bound on it is still the tracked
    # rank, with the vectors in the given, reversed or a shuffled order,
    # and with bound 0 no vector is read
    rows, cols = case
    rank = rank_kernel_image(F2Matrix(rows, tuple(cols)))[0]
    shuffled = list(cols)
    rnd.shuffle(shuffled)
    for order in (cols, cols[::-1], shuffled):
        for bound in (None, *range(rank, len(cols) + 2)):
            assert rank_of(order, bound) == rank, (order, bound)
    vectors = _Reads(cols)
    vectors.read = []
    assert rank_of(vectors, 0) == 0 and vectors.read == []


def test_bounded_rank_stops_at_its_bound():
    # the vectors after the one that reaches the bound are not read
    vectors = _Reads([0b001, 0b010, 0b100, 0b111, 0b011])
    assert rank_of(vectors, 3) == 3 and vectors.read == [0b001, 0b010, 0b100]
