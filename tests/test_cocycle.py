"""Transfer-matrix layer: unimodularity, products, Moebius action,
holonomies, eigendirections and the three-term recursion, each checked
against hand algebra or an independent route."""

import cmath
import math
import random

import pytest

from sftlab import (
    INFINITY,
    Mat2,
    NotInStableSet,
    NotInUnstableSet,
    ParabolicOrCentral,
    PeriodicPoint,
    ProjectivePoint,
    SingularEnergy,
    Word,
    a_matrix,
    canonical_cos,
    cocycle_product,
    eigendirections,
    lyapunov_mc,
    mat_inv,
    mat_mul,
    mobius,
    monodromy_trace,
    projective,
    sample_window,
    scaled_mul,
    shift,
    solve_difference,
    stable_holonomy,
    stationary_markov,
    unstable_holonomy,
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


# ------------------------------------------------------------------ mobius


def test_mobius_identity():
    for xi in (projective(0.3 + 0.4j), projective(-2.0), INFINITY):
        assert mobius(Mat2(1, 0, 0, 1), xi) == xi


def test_mobius_fixed_point_of_constant_matrix():
    # [[2 cos k, -1], [1, 0]] fixes e^{ik}: 2 cos k - e^{-ik} = e^{ik}
    for k in (0.4, math.pi / 3, 2.0):
        m = a_matrix(k, 1, 1)
        xi = projective(cmath.exp(1j * k))
        out = mobius(m, xi)
        assert abs(out.value - xi.value) < 1e-12


def test_mobius_rotation_fixes_i():
    out = mobius(Mat2(0, -1, 1, 0), projective(1j))
    assert abs(out.value - 1j) < 1e-15


def test_mobius_infinity_conventions():
    m = Mat2(2.0, 1.0, 4.0, 3.0)
    assert mobius(m, INFINITY).value == pytest.approx(0.5)
    assert mobius(Mat2(1.0, 1.0, 0.0, 1.0), INFINITY) == INFINITY
    assert mobius(Mat2(0.0, -1.0, 1.0, 0.0), projective(0.0)) == INFINITY


def test_mobius_compatible_with_multiplication():
    rng = random.Random(13)
    for _ in range(1000):
        m = Mat2(*(rng.uniform(-2, 2) for _ in range(4)))
        n = Mat2(*(rng.uniform(-2, 2) for _ in range(4)))
        if abs(m.det()) < 1e-3 or abs(n.det()) < 1e-3:
            continue
        xi = projective(complex(rng.uniform(-3, 3), rng.uniform(-3, 3)))
        lhs = mobius(mat_mul(m, n), xi)
        rhs = mobius(m, mobius(n, xi))
        assert lhs.isclose(rhs, tol=1e-12)


# -------------------------------------------------------------- holonomies


def test_stable_holonomy_same_point_is_identity():
    w = Word((1, 2, 1, 1), -1)
    h = stable_holonomy(1.0, w, w)
    for x, y in zip(h, (1.0, 0.0, 0.0, 1.0)):
        assert x == pytest.approx(y, abs=1e-14)


def test_stable_holonomy_differs_at_minus_one():
    k = math.pi / 3
    w = Word((1, 1, 2, 1), -1)
    w2 = Word((2, 1, 2, 1), -1)
    h = stable_holonomy(k, w, w2)
    expected = mat_mul(mat_inv(a_matrix(k, 2, 1)), a_matrix(k, 1, 1))
    assert h == expected
    assert abs(h.det() - 1.0) < 1e-12


def test_stable_holonomy_matches_limit_definition():
    # [A_n(w2)]^{-1} A_n(w) stabilizes at n0 = 1 because the cocycle reads
    # only coordinates -1 and 0
    k = 0.8
    rng = random.Random(17)
    tail = random_word(rng, 10, 0)
    w = Word((1,) + tail.letters, -1)
    w2 = Word((2,) + tail.letters, -1)
    h = stable_holonomy(k, w, w2)
    for n in range(1, 11):
        a_n = cocycle_product(k, w.window(-1, n - 1)).reconstruct()
        a_n2 = cocycle_product(k, w2.window(-1, n - 1)).reconstruct()
        limit = mat_mul(mat_inv(a_n2), a_n)
        for x, y in zip(h, limit):
            assert x == pytest.approx(y, abs=1e-8)


def test_stable_holonomy_rejects_forward_disagreement():
    w = Word((1, 1, 2), -1)
    w2 = Word((1, 2, 2), -1)
    with pytest.raises(NotInStableSet):
        stable_holonomy(1.0, w, w2)


def test_unstable_holonomy_is_identity():
    w = Word((1, 2, 1, 1, 2), -3)
    w2 = Word((1, 2, 1, 1, 1), -3)  # differs only at index 1 > 0
    assert unstable_holonomy(1.0, w, w2) == Mat2(1.0, 0.0, 0.0, 1.0)
    assert unstable_holonomy(1.0, w, w) == Mat2(1.0, 0.0, 0.0, 1.0)


def test_unstable_holonomy_matches_backward_limit():
    # backward products A_{-n}(T^n .) read only coordinates <= 0, so the
    # limit quotient is exactly Id for windows agreeing there
    k = 1.1
    w = Word((1, 2, 1, 1, 2), -3)
    w2 = Word((1, 2, 1, 1, 1), -3)  # differs at index 1
    for n in (1, 2):
        # A_{-n}(w) = [A_n(T^{-n} w)]^{-1}, built from coordinates <= 0 only,
        # so [A_{-n}(w2)]^{-1} A_{-n}(w) = head2 . head^{-1} with head == head2
        head = cocycle_product(k, shift(w, -n).window(-1, n - 1)).reconstruct()
        head2 = cocycle_product(k, shift(w2, -n).window(-1, n - 1)).reconstruct()
        q = mat_mul(head2, mat_inv(head))
        for x, y in zip(q, (1.0, 0.0, 0.0, 1.0)):
            assert x == pytest.approx(y, abs=1e-12)
    with pytest.raises(NotInUnstableSet):
        unstable_holonomy(k, Word((1, 1), -1), Word((2, 1), -1))


# -------------------------------------------------------- eigendirections


def test_eigendirections_elliptic_constant_matrix():
    k = math.pi / 3
    s, u = eigendirections(a_matrix(k, 1, 1))
    assert abs(s.value - cmath.exp(1j * k)) < 1e-12
    assert abs(u.value - cmath.exp(-1j * k)) < 1e-12
    assert s.value.imag > 0


def test_eigendirections_diagonal_matrix():
    s, u = eigendirections(Mat2(-2.0, 0.0, 0.0, -0.5))
    assert s == INFINITY
    assert u.value == 0.0


def test_eigendirections_parabolic():
    with pytest.raises(ParabolicOrCentral) as info:
        eigendirections(Mat2(1.0, 1.0, 0.0, 1.0))
    assert info.value.direction == INFINITY
    assert not info.value.central


def test_eigendirections_central():
    with pytest.raises(ParabolicOrCentral) as info:
        eigendirections(Mat2(-1.0, 0.0, 0.0, -1.0))
    assert info.value.central


def test_eigendirections_satisfy_fixed_point_equation():
    # both outputs solve c s^2 + (d - a) s - b = 0 (invariance under the
    # Moebius action); also pins the meaning of d as the lower-right entry
    rng = random.Random(29)
    checked = 0
    while checked < 200:
        # random unimodular matrix: pick a, b, c and solve a d - b c = 1
        a = rng.uniform(-2, 2)
        b = rng.uniform(-2, 2)
        c = rng.uniform(-2, 2)
        if abs(a) < 0.1 or abs(c) < 1e-6:
            continue
        m = Mat2(a, b, c, (1.0 + b * c) / a)
        if abs(m.trace() ** 2 - 4.0) < 1e-3:
            continue
        s, u = eigendirections(m)
        for root in (s.value, u.value):
            res = m.a21 * root * root + (m.a22 - m.a11) * root - m.a12
            assert abs(res) < 1e-9
        checked += 1


def test_eigendirections_are_mobius_fixed_points():
    m = a_matrix(2.0, 1, 2)  # hyperbolic at this energy
    s, u = eigendirections(m)
    assert mobius(m, s).isclose(s, tol=1e-10)
    assert mobius(m, u).isclose(u, tol=1e-10)


def test_eigendirection_transport_along_orbit():
    # A(p) maps the s-direction of the monodromy at p to the s-direction of
    # the monodromy at Tp (inside a band, where s is the upper one)
    k = 0.7
    p = PeriodicPoint.from_letters((1, 1, 2))
    m0 = cocycle_product(k, p.window(-1, 2)).reconstruct()
    rotated = shift(p.window(-1, 5), 1)  # windows of Tp
    m1 = cocycle_product(k, rotated.window(-1, 2)).reconstruct()
    assert abs(m0.trace()) < 2.0  # elliptic here, conjugate pair
    s0, _ = eigendirections(m0)
    s1, _ = eigendirections(m1)
    step = a_matrix(k, p.letter(-1), p.letter(0))
    assert mobius(step, s0).isclose(s1, tol=1e-10)


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
