"""Transfer-matrix layer: unimodularity, products, the conjugation of
periodic monodromies along their orbit and the three-term recursion, each
checked against hand algebra or an independent route."""

import math
import random
from types import SimpleNamespace

import pytest

import sftlab.cocycle as cocycle_module
from sftlab import (
    Mat2,
    PeriodicPoint,
    SingularEnergy,
    Word,
    a_matrix,
    canonical_cos,
    cocycle_product,
    lyapunov_mc,
    mat_mul,
    monodromy_trace,
    sample_window,
    scaled_from,
    scaled_mul,
    shift,
    solve_difference,
    stationary_markov,
    validate_spec,
)
from sftlab.cocycle import check_energy

GOLDEN = validate_spec(2, [(2, 2)])
GOLDEN_MEASURE = stationary_markov(GOLDEN, [[0.5, 0.5], [1.0, 0.0]])


def random_word(rng, length, first=-1):
    letters = [rng.choice((1, 2))]
    while len(letters) < length:
        nxt = rng.choice((1, 2))
        if letters[-1] == 2 and nxt == 2:
            nxt = 1
        letters.append(nxt)
    return Word(tuple(letters), first)


# ---------------------------------------------------------------- a_matrix


def test_a_matrix_constant_letter():
    m = a_matrix(math.pi / 3, 1, 1)
    assert m.a11 == pytest.approx(1.0, abs=1e-12)  # 2 cos(pi/3)
    assert m.a12 == -1.0
    assert m.a21 == 1.0
    assert m.a22 == 0.0


def test_a_matrix_pair_one_two():
    # hand substitution: prev=1, cur=2 gives sqrt(2) * [[1.5 c, -0.5], [1, 0]]
    for k in (0.3, 1.0, 2.7):
        m = a_matrix(k, 1, 2)
        c = math.cos(k)
        assert m.a11 == pytest.approx(3.0 / math.sqrt(2.0) * c, abs=1e-12)
        assert m.a12 == pytest.approx(-1.0 / math.sqrt(2.0), abs=1e-15)
        assert m.a21 == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert m.a22 == 0.0


def test_a_matrix_unimodular_on_random_input():
    rng = random.Random(7)
    for _ in range(1000):
        k = rng.uniform(0.01, math.pi - 0.01)
        prev = rng.randint(1, 5)
        cur = rng.randint(1, 5)
        assert abs(a_matrix(k, prev, cur).det() - 1.0) < 1e-10


def test_a_matrix_singular_energy():
    for k in (0.0, math.pi, 2 * math.pi, -math.pi):
        with pytest.raises(SingularEnergy):
            a_matrix(k, 1, 2)


def test_a_matrix_depends_on_k_only_through_cos():
    rng = random.Random(21)
    for _ in range(200):
        k = rng.uniform(0.01, math.pi - 0.01)
        k2 = math.acos(math.cos(k))
        assert a_matrix(k, 1, 2) == a_matrix(k2, 1, 2)
        assert a_matrix(k, 2, 1) == a_matrix(k2, 2, 1)
    # distinct cosines give distinct matrices
    assert a_matrix(1.0, 1, 2) != a_matrix(1.5, 1, 2)


def test_canonical_cos_stable_under_branch_fold():
    rng = random.Random(5)
    for _ in range(2000):
        k = rng.uniform(1e-6, math.pi - 1e-6)
        assert canonical_cos(math.acos(math.cos(k))) == canonical_cos(k)
        assert abs(canonical_cos(k) - math.cos(k)) < 1e-14


def test_canonical_cos_snaps_to_cancellation_energy():
    # the float pi/2 leaves a ~6e-17 cosine residue; the exponent is
    # log-sensitive to it, so a query that close means exactly pi/2
    assert canonical_cos(math.pi / 2) == 0.0
    assert canonical_cos(math.pi / 2 + 1e-13) == 0.0
    assert canonical_cos(math.pi / 2 + 1e-10) != 0.0


def test_canonical_cos_takes_the_minimum_of_the_cycle(monkeypatch):
    # libm's cos(acos(x)) is usually x itself, so the cycle rule only runs
    # under a stub: energies 1..4 have cosines x0..x3, and cos(acos(.))
    # walks the tail x0 -> x1 into the 2-cycle x2 <-> x3.  The tail holds
    # both the smallest and the largest value, and the cycle's minimum x3
    # is not where the walk enters it, so only the minimum of the cycle
    # itself is the same double from every entry point.
    base = 0.3
    ulp = math.ulp(base)
    xs = [base, base + 4 * ulp, base + 2 * ulp, base + ulp]
    follow = {xs[0]: xs[1], xs[1]: xs[2], xs[2]: xs[3], xs[3]: xs[2]}
    cosines = {1.0 + i: x for i, x in enumerate(xs)} | {5.0: 5e-13, 6.0: -5e-13}
    cosines |= {100.0 + i: follow[x] for i, x in enumerate(xs)}  # cos(acos(x_i))
    stub = SimpleNamespace(
        isfinite=math.isfinite, cos=cosines.__getitem__, acos=lambda x: 100.0 + xs.index(x)
    )
    canonical_cos.cache_clear()
    monkeypatch.setattr(cocycle_module, "math", stub)
    try:
        assert [canonical_cos(k) for k in (1.0, 2.0, 3.0, 4.0)] == [xs[3]] * 4
        assert canonical_cos(5.0) == canonical_cos(6.0) == 0.0  # snapped before any acos
    finally:
        canonical_cos.cache_clear()


@pytest.mark.parametrize("k", [math.inf, -math.inf, math.nan])
def test_non_finite_energy_is_rejected(k):
    # a nan fails every tolerance comparison and would pass as cos k = 1,
    # and sin(inf) is a math domain error: each entry point names k instead
    word = Word((1, 2, 1), -1)
    calls = [
        lambda: check_energy(k),
        lambda: canonical_cos(k),
        lambda: a_matrix(k, 1, 2),
        lambda: solve_difference(k, word, 1.0, 0.0),
        lambda: monodromy_trace(PeriodicPoint.from_letters((1, 2)), k),
        lambda: lyapunov_mc(GOLDEN_MEASURE, k, 1000, 2, 0),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"k = {k} is not a finite energy"):
            call()


# ---------------------------------------------------------- cocycle_product


def test_product_empty_is_identity():
    sm = cocycle_product(1.0, Word((1,), -1))
    assert sm.mat == Mat2(1.0, 0.0, 0.0, 1.0)
    assert sm.log_scale == 0.0


def test_product_constant_word_trace():
    # constant-letter steps are elliptic rotations: trace of the n-step
    # product is 2 cos(n k) (diagonalize [[2c, -1], [1, 0]])
    k = math.pi / 3
    for n in range(1, 11):
        word = Word((1,) * (n + 1), -1)
        tr = cocycle_product(k, word).reconstruct().trace()
        assert tr == pytest.approx(2.0 * math.cos(n * k), abs=1e-9)
        assert abs(tr) <= 2.0 + 1e-9


def test_product_alternating_word_at_half_pi():
    sm = cocycle_product(math.pi / 2, Word((1, 2, 1), -1))
    m = sm.reconstruct()
    assert m.a11 == pytest.approx(-2.0, abs=1e-10)
    assert m.a22 == pytest.approx(-0.5, abs=1e-10)
    assert abs(m.a12) < 1e-10
    assert abs(m.a21) < 1e-10


def test_product_unimodular_and_normalized():
    rng = random.Random(3)
    for _ in range(100):
        word = random_word(rng, rng.randint(2, 60))
        k = rng.uniform(0.05, math.pi - 0.05)
        sm = cocycle_product(k, word)
        entries = [sm.mat.a11, sm.mat.a12, sm.mat.a21, sm.mat.a22]
        assert max(abs(e) for e in entries) == 1.0
        # log |det| of the represented matrix exp(log_scale) * mat
        log_det = math.log(abs(sm.mat.det())) + 2.0 * sm.log_scale
        assert abs(log_det) < 1e-10 * max(1.0, abs(sm.log_scale))


def test_cocycle_law():
    # product over -1..m+n-1 equals (shifted tail product) . (head product)
    rng = random.Random(11)
    for _ in range(50):
        m_len = rng.randint(1, 12)
        n_len = rng.randint(1, 12)
        word = random_word(rng, m_len + n_len + 1)
        k = rng.uniform(0.05, math.pi - 0.05)
        whole = cocycle_product(k, word)
        head = cocycle_product(k, word.window(-1, m_len - 1))
        tail = cocycle_product(k, shift(word, m_len))
        composed = scaled_mul(tail, head)
        scale = math.exp(composed.log_scale - whole.log_scale)
        for a, b in zip(whole.mat, composed.mat):
            assert a == pytest.approx(scale * b, abs=1e-8)


# ------------------------------------------------------------- periodic orbits


def test_monodromy_conjugation_along_orbit():
    # M(p) = A(T^{n-1} p) ... A(p) and T^n p = p give
    # M(Tp) A(p) = A(p) M(p): one step conjugates the monodromy at p into
    # the monodromy at Tp
    for letters in ((1, 2), (1, 1, 2), (1, 2, 1, 2, 2), (1, 3, 2, 2)):
        p = PeriodicPoint.from_letters(letters)
        n = p.period
        rotated = shift(p.window(-1, n), 1)  # a window of Tp over -2..n-1
        for k in (0.3, 0.7, math.pi / 2, 2.0, 2.9):
            m_p = cocycle_product(k, p.window(-1, n - 1)).reconstruct()
            m_tp = cocycle_product(k, rotated.window(-1, n - 1)).reconstruct()
            step = a_matrix(k, p.letter(-1), p.letter(0))
            lhs = mat_mul(m_tp, step)
            rhs = mat_mul(step, m_p)
            scale = max(abs(x) for x in lhs)
            for x, y in zip(lhs, rhs):
                assert x == pytest.approx(y, abs=1e-12 * scale)


# --------------------------------------------------------- solve_difference


def test_recursion_plane_wave():
    # on constant multiplicities u(n) = cos(nk) solves the recursion
    k = 0.9
    word = Word((1,) * 13, -1)
    values = solve_difference(k, word, 1.0, math.cos(-k))
    for n, v in zip(range(-1, 13), values):
        assert v == pytest.approx(math.cos(n * k), abs=1e-10)


def test_recursion_zero_data():
    word = Word((1, 2, 1, 1), -1)  # covers -1..2, so values run over -1..3
    assert solve_difference(1.3, word, 0.0, 0.0) == [0.0] * 5


def test_recursion_matches_cocycle_route():
    # oracle for the scalar prefactor: (u(n), u(n-1)) equals
    # sqrt(w_{-1} / w_{n-1}) A_n(w) (u0, um1)
    rng = random.Random(41)
    for _ in range(50):
        n = rng.randint(1, 30)
        word = sample_window(GOLDEN_MEASURE, -1, n - 1, rng.randint(0, 10**6))
        k = rng.uniform(0.05, math.pi - 0.05)
        u0 = rng.uniform(-2, 2)
        um1 = rng.uniform(-2, 2)
        values = solve_difference(k, word, u0, um1)
        a_n = cocycle_product(k, word).reconstruct()
        pref = math.sqrt(word.letter(-1) / word.letter(n - 1))
        top = pref * (a_n.a11 * u0 + a_n.a12 * um1)
        bottom = pref * (a_n.a21 * u0 + a_n.a22 * um1)
        scale = max(1.0, abs(top), abs(bottom))
        assert values[n + 1] == pytest.approx(top, abs=1e-10 * scale)
        assert values[n] == pytest.approx(bottom, abs=1e-10 * scale)


def test_matrix_helpers_reject_degenerate_input():
    with pytest.raises(ValueError, match="letters must be positive integers"):
        a_matrix(1.0, 0, 1)
    with pytest.raises(ValueError, match="letters must be positive integers"):
        a_matrix(1.0, 2, -1)
    with pytest.raises(ValueError, match="zero matrix"):
        scaled_from(Mat2(0.0, 0.0, 0.0, 0.0), 1.0)


def test_products_need_a_window_covering_minus_one():
    # both routes start from index -1: a window from 0 on, or one ending
    # before -1, has no first step
    for word in (Word((1, 2, 1), 0), Word((1, 2), -4)):
        with pytest.raises(ValueError, match="word must cover index -1"):
            cocycle_product(1.0, word)
        with pytest.raises(ValueError, match="word must cover index -1"):
            solve_difference(1.0, word, 1.0, 0.0)
