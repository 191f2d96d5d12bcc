"""Exact projective linear algebra: contract examples and properties."""

import ast
import inspect
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from planarize import projcore
from planarize.projcore import (
    DimensionMismatch,
    Hyperplane,
    PLine2,
    PPoint,
    ZeroVector,
    cross,
    normalize,
    nullspace,
    rank,
    scalar_from_str,
    scalar_to_str,
    signed_minors,
)
from planarize.seeding import stable_rng

# -- independent oracle: plain rational Gaussian elimination ---------------


def gauss_nullspace(rows):
    """Textbook rational elimination, independent of the Bareiss path."""
    m = [[Fraction(c) for c in r] for r in rows]
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(m, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


# -- normalize ---------------------------------------------------------------


def test_normalize_scale_removal():
    assert normalize([2, 4, 6]) == (1, 2, 3)


def test_normalize_sign_convention():
    assert normalize([0, 0, -3]) == (0, 0, 1)


def test_normalize_denominator_clearing():
    assert normalize([Fraction(1, 2), Fraction(1, 3), 0]) == (3, 2, 0)


def test_normalize_zero_vector_rejected():
    with pytest.raises(ZeroVector):
        normalize([0, 0, 0])


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@settings(max_examples=40, deadline=None)
@given(st.lists(rationals, min_size=2, max_size=5), rationals.filter(lambda c: c != 0))
def test_normalize_idempotent_and_scale_invariant(vec, c):
    if all(x == 0 for x in vec):
        return
    base = normalize(vec)
    assert normalize(base) == base
    assert normalize([c * x for x in vec]) == base


# -- rank / nullspace / misc -------------------------------------------------


def test_rank_and_nullspace_against_oracle():
    rows = [[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 1, 0], [1, 3, 4, 4]]
    assert rank(rows) == 2
    ours = nullspace(rows)
    oracle = gauss_nullspace(rows)
    assert len(ours) == len(oracle) == 2
    for v in ours:
        for row in rows:
            assert sum(Fraction(a) * b for a, b in zip(row, v)) == 0


@pytest.mark.parametrize("seed", range(8))
def test_nullspace_vectors_match_sympy(seed):
    # a product of random rational factors through rank r has n - r free
    # columns; sympy's nullspace also sets each free variable to 1 in turn
    sympy = pytest.importorskip("sympy")
    rng = stable_rng(seed, "nullspace")
    for _ in range(6):
        nrows, ncols = rng.randint(2, 6), rng.randint(3, 8)
        r = rng.randint(1, min(nrows, ncols - 2))

        def entry():
            return Fraction(rng.randint(-9, 9), rng.randint(1, 5))

        left = [[entry() for _ in range(r)] for _ in range(nrows)]
        right = [[entry() for _ in range(ncols)] for _ in range(r)]
        rows = [[sum(a * b for a, b in zip(lr, col)) for col in zip(*right)] for lr in left]
        ours = nullspace(rows)
        oracle = sympy.Matrix(rows).nullspace()
        assert len(ours) >= ncols - r
        assert ours == [tuple(Fraction(int(x.p), int(x.q)) for x in v) for v in oracle]
        assert all(type(x) is Fraction for v in ours for x in v)


def test_cross_product_join_meet():
    # the line through [1:0:0] and [0:1:0] is {x2 = 0}
    assert normalize(cross((1, 0, 0), (0, 1, 0))) == (0, 0, 1)


def test_line_contains():
    line = PLine2.of(1, 2, 3)
    assert line.contains(PPoint.of(3, 0, -1))
    assert not line.contains(PPoint.of(1, 0, 0))


def test_scalar_serialization():
    assert scalar_to_str(Fraction(3, 4)) == "3/4"
    assert scalar_to_str(Fraction(5)) == "5"
    assert scalar_from_str("3/4") == Fraction(3, 4)
    assert scalar_from_str("-7") == Fraction(-7)


def test_dimension_mismatch_errors():
    with pytest.raises(DimensionMismatch):
        signed_minors([(1, 0, 0), (0, 1, 0), (0, 0, 1)])  # 3 rows need length 4
    with pytest.raises(DimensionMismatch):
        Hyperplane.of(1, 0, 0).contains(PPoint.of(1, 0, 0, 0))
    with pytest.raises(DimensionMismatch):
        PLine2.of(1, 2, 3, 4)


def test_rationalize_direction_snaps_clean_ratios():
    from planarize.projcore import rationalize_direction

    vec = [0.0, 0.4458930, 0.66883956, 0.2229465]
    # entries proportional to (0, 2, 3, 1) up to float noise
    assert rationalize_direction([x * 1.0000000001 for x in vec]) == (0, 2, 3, 1)


def test_null_direction_and_rank_agree_across_modes():
    from planarize.projcore import null_direction, rank

    rows = [[1, 0, -2], [0, 1, -3], [2, 1, -7]]
    floats = [[float(x) for x in r] for r in rows]
    assert null_direction(rows, True) == null_direction(floats, False) == (2, 3, 1)
    assert rank(rows) == 2
    assert null_direction([[1, 0], [0, 1]], True) is None
    assert null_direction([[1.0, 0.0], [0.0, 1.0]], False) is None


# -- the one denominator-clearing helper --------------------------------------

mixed_entries = st.one_of(
    st.integers(-10**12, 10**12),
    st.fractions(max_denominator=10**6),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(mixed_entries, max_size=6))
def test_cleared_is_the_least_common_denominator(vec):
    import math

    from planarize.projcore import _cleared

    X, L = _cleared(vec)
    assert all(type(x) is int for x in X) and type(L) is int and L >= 1
    assert [Fraction(x, L) for x in X] == [Fraction(c) for c in vec]
    # L is least iff no prime divides L and every X_i at once
    assert math.gcd(L, *X) == 1


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.lists(st.integers(-10**30, 10**30), max_size=6))
def test_cleared_returns_an_int_vector_unchanged(vec):
    from planarize.projcore import _cleared

    assert _cleared(vec) == (vec, 1)
    assert _cleared(tuple(vec)) == (vec, 1)


def _null_direction_reference(rows):
    """Float rank and null direction from numpy, two SVDs as the docs state
    them: the rank counts singular values above FLOAT_RANK_RTOL * s_max."""
    import numpy as np

    from planarize.projcore import FLOAT_RANK_RTOL, rationalize_direction

    a = np.array(rows, dtype=float)
    s = np.linalg.svd(a, compute_uv=False)
    r = int(np.sum(s > FLOAT_RANK_RTOL * s[0])) if s[0] > 0 else 0
    if r == a.shape[1]:
        return None
    return rationalize_direction(np.linalg.svd(a)[2][-1])


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_float_null_direction_matches_numpy(seed):
    from planarize.projcore import null_direction

    rng = stable_rng(seed, "float_null_direction")
    ncols = rng.randint(2, 6)

    def row():
        return [rng.uniform(-5, 5) for _ in range(ncols)]

    full = [row() for _ in range(ncols + 2)]
    base = [row() for _ in range(ncols - 1)]
    deficient = list(base)
    for _ in range(3):
        ks = [rng.randint(-3, 3) for _ in base]
        deficient.append([sum(k * r[j] for k, r in zip(ks, base)) for j in range(ncols)])
    short = [row() for _ in range(ncols - 1)]
    zero = [[0.0] * ncols for _ in range(ncols)]
    for rows in (full, deficient, short, zero):
        assert null_direction(rows, False) == _null_direction_reference(rows)
    assert null_direction(full, False) is None
    assert null_direction(deficient, False) is not None
    assert null_direction(short, False) is not None


# -- the modular nullspace route against Bareiss ------------------------------


def _bareiss_only(rows):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(projcore, "_MODULAR_MIN_CELLS", math.inf)
        return nullspace(rows)


def _modular(rows):
    """nullspace(rows) with the modular route taken at every size, and the
    number of Bareiss eliminations it fell back to."""
    calls = []
    real = projcore._bareiss_echelon
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(projcore, "_MODULAR_MIN_CELLS", 0)
        mp.setattr(projcore, "_bareiss_echelon", lambda m: calls.append(m) or real(m))
        return nullspace(rows), len(calls)


@st.composite
def low_rank_products(draw, bound=9):
    """L·R for integer L (n x r) and R (r x m), r drawn up to min(n, m), with
    zero rows and zero columns spliced in."""
    n, m = draw(st.integers(1, 8)), draw(st.integers(1, 9))
    r = draw(st.integers(0, min(n, m)))
    entries = st.integers(-bound, bound)
    left = draw(st.lists(st.lists(entries, min_size=r, max_size=r), min_size=n, max_size=n))
    right = draw(st.lists(st.lists(entries, min_size=m, max_size=m), min_size=r, max_size=r))
    rows = [[sum(a * right[k][j] for k, a in enumerate(lr)) for j in range(m)] for lr in left]
    for c in draw(st.lists(st.integers(0, m), max_size=2)):
        rows = [row[:c] + [0] + row[c:] for row in rows]
    for i in draw(st.lists(st.integers(0, n), max_size=2)):
        rows.insert(i, [0] * len(rows[0]))
    return rows


@settings(max_examples=150, deadline=None, derandomize=True)
@given(low_rank_products())
def test_modular_nullspace_matches_bareiss_on_low_rank_products(rows):
    got, fallbacks = _modular(rows)
    assert repr(got) == repr(_bareiss_only(rows))
    assert fallbacks == 0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(low_rank_products(), st.lists(st.integers(2**62, 2**90), min_size=10, max_size=10))
def test_modular_nullspace_reduces_entries_above_2_to_the_62(rows, scales):
    # row scaling keeps the nullspace, so the answer stays small while the
    # entries do not fit in int64
    rows = [[scales[i % len(scales)] * x for x in row] for i, row in enumerate(rows)]
    got, fallbacks = _modular(rows)
    assert repr(got) == repr(_bareiss_only(rows))
    assert fallbacks == 0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(low_rank_products(), st.integers(0, 63))
def test_modular_nullspace_skips_a_prime_the_matrix_is_singular_modulo(rows, where):
    # p0·M plus one unit entry has rank 1 modulo the first prime
    p0 = projcore._PRIMES[0]
    rows = [[p0 * x for x in row] for row in rows]
    i, j = where % len(rows), where // len(rows) % len(rows[0])
    rows[i][j] += 1
    got, fallbacks = _modular(rows)
    assert repr(got) == repr(_bareiss_only(rows))
    assert fallbacks == 0


def _rank_routes(rows):
    """rank(rows) with the modular check at every size, the number of
    Bareiss eliminations it fell back to, and the Bareiss-only rank."""
    calls = []
    real = projcore._bareiss_echelon
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(projcore, "_MODULAR_MIN_CELLS", 0)
        mp.setattr(projcore, "_bareiss_echelon", lambda m: calls.append(m) or real(m))
        got = rank(rows)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(projcore, "_MODULAR_MIN_CELLS", math.inf)
        return got, len(calls), rank(rows)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(low_rank_products())
def test_modular_rank_matches_bareiss_on_low_rank_products(rows):
    # full rank mod p answers at once; a deficient rank falls back
    got, fallbacks, expect = _rank_routes(rows)
    assert got == expect
    assert fallbacks == (expect < min(len(rows), len(rows[0])))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(low_rank_products(), st.integers(0, 63), st.booleans())
def test_modular_rank_falls_back_where_the_minors_are_divisible_by_p(rows, where, unit):
    # p0 times a column, or p0·M plus one unit entry: every maximal minor is
    # divisible by the first prime, so only Bareiss can tell the rank
    p0 = projcore._PRIMES[0]
    i, j = where % len(rows), where // len(rows) % len(rows[0])
    if unit:
        rows = [[p0 * x for x in row] for row in rows]
        rows[i][j] += 1
    else:
        rows = [[p0 * x if c == j else x for c, x in enumerate(row)] for row in rows]
    got, fallbacks, expect = _rank_routes(rows)
    assert got == expect
    # modulo p0 the rank is at most 1, or one less than the column count
    bound = 1 if unit else len(rows[0]) - 1
    full = min(len(rows), len(rows[0]))
    if expect < full or full > bound:
        assert fallbacks == 1


def test_rank_of_a_tall_matrix_is_read_modulo_a_prime():
    # 120 x 4 rows (1, k, k^2, k^3) at k = 0..119, 480 cells: full rank mod
    # p0 is the answer, so no Bareiss runs; with a dependent column it must
    rows = [[k**i for i in range(4)] for k in range(120)]
    assert len(rows) * 4 >= projcore._MODULAR_MIN_CELLS

    def refuse(m):
        raise AssertionError("Bareiss ran on a matrix of full rank mod p")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(projcore, "_bareiss_echelon", refuse)
        assert rank(rows) == 4
        assert rank([[2**300 * x for x in row] for row in rows]) == 4
    dependent = [row[:3] + [row[1] - 5 * row[2]] for row in rows]
    assert rank(dependent) == 3


def test_modular_nullspace_skips_a_later_prime_with_a_worse_pivot_list():
    # modulo the second prime p1 the pivot moves from column 0 to column 1;
    # the kernel vector (-1/p1, 1, 0) needs two primes, so p1 is met after
    # the first prime and must not be combined with it
    p1 = projcore._PRIMES[1]
    rows = [[p1, 1, 7]]
    got, fallbacks = _modular(rows)
    assert repr(got) == repr(_bareiss_only(rows))
    assert got[0] == (Fraction(-1, p1), 1, 0)
    assert fallbacks == 0


def test_modular_nullspace_answers_with_big_rational_entries():
    # a 6 x 7 system of rank 6 with entries up to 10^6: one kernel vector
    # whose entries, ratios of 6 x 6 minors, need several primes
    rng = stable_rng(1, "modular_nullspace")
    rows = [[rng.randint(-10**6, 10**6) for _ in range(7)] for _ in range(6)]
    got, fallbacks = _modular(rows)
    assert repr(got) == repr(_bareiss_only(rows))
    assert fallbacks == 0 and len(got) == 1
    assert max(abs(x.numerator) for x in got[0]).bit_length() > 31


def test_modular_nullspace_falls_back_past_the_crt_bound():
    # the kernel vector (3^300, 1) is larger than the product of all primes
    rows = [[1, -3**300]]
    assert math.prod(projcore._PRIMES) < 3**300
    got, fallbacks = _modular(rows)
    assert fallbacks == 1
    assert got == _bareiss_only(rows) == [(Fraction(3**300), Fraction(1))]


def test_primes_are_a_literal_tuple_of_distinct_31_bit_primes():
    sympy = pytest.importorskip("sympy")
    primes = projcore._PRIMES
    assert type(primes) is tuple and len(set(primes)) == len(primes)
    assert all(sympy.isprime(p) for p in primes)
    assert max(primes) ** 2 < 2**63
    # written out in the source: nothing is computed at import
    tree = ast.parse(inspect.getsource(projcore))
    (value,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["_PRIMES"]
    ]
    assert isinstance(value, ast.Tuple) and all(isinstance(e, ast.Constant) for e in value.elts)


def test_nullspace_routes_by_cell_count(monkeypatch):
    # 10 x 20 = 200 cells take the modular route, 199 cells do not
    seen = []
    real = projcore._nullspace_modular
    monkeypatch.setattr(projcore, "_nullspace_modular", lambda m, n: seen.append(len(m) * n) or real(m, n))
    rng = stable_rng(2, "modular_route")
    wide = [[rng.randint(-5, 5) for _ in range(20)] for _ in range(10)]
    assert nullspace(wide) == _bareiss_only(wide)
    assert nullspace([[1] * 199]) == _bareiss_only([[1] * 199])
    assert seen == [200]


# -- the integer kernel and the GF(p) elimination ------------------------------


def _product(left, right, scales):
    """Row i of left·right times scales[i]: every vector of ker(right) is in
    the kernel, and positive row scales leave the kernel as it is."""
    return [[s * sum(a * right[k][j] for k, a in enumerate(lr)) for j in range(len(right[0]))]
            for s, lr in zip(scales, left)]


def _planted_example(seed, n, m, r, bits, scale):
    rng = stable_rng(seed, "planted_kernel")
    left = [[rng.randint(-(2**bits), 2**bits) for _ in range(r)] for _ in range(n)]
    right = [[rng.randint(-(2**bits), 2**bits) for _ in range(m)] for _ in range(r)]
    return _product(left, right, [scale + i for i in range(n)])


# 14 x 18 = 252 cells, rank 10: kernel entries are ratios of 10 x 10 minors
# of 12-bit entries, which need several primes; and 3-bit factors with every
# row scaled past 2^62, which only the big-entry path can reduce
SEVERAL_PRIMES = _planted_example(1, 14, 18, 10, 12, 1)
ABOVE_INT64 = _planted_example(2, 14, 18, 10, 3, 2**62)


@st.composite
def planted_dependences(draw):
    """left·right with row scales, at most 180 or at least 200 cells, so on
    both sides of _MODULAR_MIN_CELLS: rank at most m - 1, so the kernel is
    never zero."""
    assert projcore._MODULAR_MIN_CELLS == 200
    above = draw(st.booleans())
    n = draw(st.integers(10, 20) if above else st.integers(1, 9))
    m = draw(st.integers(20, 24) if above else st.integers(2, 20))
    r = draw(st.integers(0, min(n, m - 1)))
    bits = draw(st.sampled_from([3, 12]))
    entries = st.integers(-(2**bits), 2**bits)
    left = draw(st.lists(st.lists(entries, min_size=r, max_size=r), min_size=n, max_size=n))
    right = draw(st.lists(st.lists(entries, min_size=m, max_size=m), min_size=r, max_size=r))
    scales = draw(st.lists(st.sampled_from([1, 7, 2**62, 2**90 + 1]), min_size=n, max_size=n))
    if r == 0:
        return [[0] * m for _ in range(n)]
    return _product(left, right, scales)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(planted_dependences())
@example(SEVERAL_PRIMES)
@example(ABOVE_INT64)
def test_integer_kernel_is_a_positive_multiple_of_the_bareiss_basis(rows):
    got = projcore._nullspace_int(rows)
    want = _bareiss_only(rows)
    assert len(got) == len(want) > 0
    for X, v in zip(got, want):
        free = max(j for j, y in enumerate(v) if y)  # v is 1 there
        assert X[free] > 0
        assert list(X) == [X[free] * y for y in v]


def test_planted_examples_take_the_modular_route_with_several_primes():
    # the explicit examples above reach what they are there for
    for rows, big in ((SEVERAL_PRIMES, False), (ABOVE_INT64, True)):
        assert len(rows) * len(rows[0]) >= projcore._MODULAR_MIN_CELLS
        assert (max(abs(x) for row in rows for x in row) >= 2**63) == big
        primes = []
        real = projcore._rref_mod
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(projcore, "_rref_mod", lambda a, p: primes.append(p) or real(a, p))
            mp.setattr(projcore, "_bareiss_echelon", None)  # no fallback
            projcore._nullspace_int(rows)
        assert len(primes) > (1 if big else 3)


@pytest.mark.parametrize("value", [2**63 - 1, -(2**63), 2**63, -(2**63) - 1])
def test_integer_kernel_at_the_edges_of_int64(value):
    # [I | C] with columns shuffled, 10 x 20 cells, C holding the value: the
    # first two fit numpy's int64, the last two are reduced in Python
    rng = stable_rng(5, "int64_edges")
    C = [[rng.randint(-9, 9) for _ in range(10)] for _ in range(10)]
    C[0][0] = C[3][5] = value
    order = rng.sample(range(20), 20)
    rows = [[([int(i == j) for j in range(10)] + C[i])[c] for c in order] for i in range(10)]
    want = _bareiss_only(rows)
    for got in (projcore._nullspace_modular(rows, 20), projcore._nullspace_int(rows)):
        assert got is not None and len(got) == len(want) == 10
        for X, v in zip(got, want):
            free = max(j for j, y in enumerate(v) if y)
            assert X[free] > 0 and list(X) == [X[free] * y for y in v]


def _rref_mod_reference(rows, p):
    """Textbook Gauss-Jordan elimination mod p on Python ints: the first
    nonzero entry pivots, where _rref_mod takes the largest."""
    m = [[x % p for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(len(m[0])):
        i = next((i for i in range(r, len(m)) if m[i][c]), None)
        if i is None:
            continue
        m[r], m[i] = m[i], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for j in range(len(m)):
            if j != r and m[j][c]:
                f = m[j][c]
                m[j] = [(x - f * y) % p for x, y in zip(m[j], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


@settings(max_examples=80, deadline=None, derandomize=True)
@given(planted_dependences(), st.sampled_from([2, 3, 7, projcore._PRIMES[0], projcore._PRIMES[-1]]))
@example([[0, 1, 2], [3, 4, 5], [6, 0, 1]], projcore._PRIMES[0])  # row 0 has no pivot in column 0
@example([[0, 0, 1], [0, 2, 0], [1, 0, 0]], 3)  # every pivot swaps
def test_rref_mod_matches_textbook_elimination(rows, p):
    # the reduced echelon form is unique, so the pivot choice cannot show
    np = pytest.importorskip("numpy")
    ech, pivots = projcore._rref_mod(np.array([[x % p for x in row] for row in rows], dtype=np.int64), p)
    assert (ech.tolist(), pivots) == _rref_mod_reference(rows, p)
