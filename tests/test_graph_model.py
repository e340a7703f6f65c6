"""Continuous edge layer: boundary-value solution, derivative formulas,
Kirchhoff balance, and its equivalence with the vertex recursion."""

import math
import random

import pytest

from sftlab import (
    EdgeSolution,
    SingularEnergy,
    VertexData,
    Word,
    edge_derivatives,
    kirchhoff_residual,
    sample_window,
    solve_difference,
    stationary_markov,
    validate_spec,
    verify_corollary,
)

GOLDEN = validate_spec(2, [(2, 2)])
GOLDEN_MEASURE = stationary_markov(GOLDEN, [[0.5, 0.5], [1.0, 0.0]])


def test_edge_derivatives_cosine_solution():
    # phi(x) = cos(kx): phi'(0) = 0, phi'(1) = -k sin k
    for k in (0.4, 1.0, 2.8):
        e = EdgeSolution(k, 1.0, math.cos(k))
        d0, d1 = edge_derivatives(e)
        assert d0 == pytest.approx(0.0, abs=1e-12)
        assert d1 == pytest.approx(-k * math.sin(k), abs=1e-12)


def test_edge_derivatives_sine_solution():
    # phi(x) = sin(kx): phi'(0) = k, phi'(1) = k cos k
    for k in (0.4, 1.0, 2.8):
        e = EdgeSolution(k, 0.0, math.sin(k))
        d0, d1 = edge_derivatives(e)
        assert d0 == pytest.approx(k, abs=1e-12)
        assert d1 == pytest.approx(k * math.cos(k), abs=1e-12)


def test_singular_energy_rejected():
    with pytest.raises(SingularEnergy):
        EdgeSolution(math.pi, 1.0, 0.0)
    with pytest.raises(SingularEnergy):
        EdgeSolution(0.0, 1.0, 0.0)


def test_edge_solution_satisfies_equation():
    # -phi'' = k^2 phi via central differences, endpoints exact
    rng = random.Random(61)
    h = 1e-4
    for _ in range(100):
        k = rng.uniform(0.1, 3.0)
        if abs(math.sin(k)) < 1e-3:
            continue
        e = EdgeSolution(k, rng.uniform(-2, 2), rng.uniform(-2, 2))
        assert e.value(0.0) == e.phi0
        assert e.value(1.0) == e.phi1
        for x in (0.25, 0.5, 0.75):
            second = (e.value(x + h) - 2.0 * e.value(x) + e.value(x - h)) / (h * h)
            target = -k * k * e.value(x)
            assert second == pytest.approx(target, rel=1e-6, abs=1e-6)


def test_vertex_data_length_check():
    with pytest.raises(ValueError):
        VertexData(Word((1, 2), -1), (1.0, 2.0))


def test_kirchhoff_plane_wave_on_constant_word():
    k = 0.9
    word = Word((1,) * 12, -1)
    values = tuple(math.cos(n * k) for n in range(-1, 12))
    res = kirchhoff_residual(VertexData(word, values), k)
    assert len(res) == 11
    assert max(abs(r) for r in res) < 1e-10


def test_kirchhoff_recursion_data_balances():
    rng = random.Random(71)
    for _ in range(20):
        word = sample_window(GOLDEN_MEASURE, -1, 30, rng.randint(0, 10**6))
        k = rng.uniform(0.1, math.pi - 0.1)
        values = solve_difference(k, word, rng.uniform(-1, 1), rng.uniform(-1, 1))
        res = kirchhoff_residual(VertexData(word, tuple(values)), k)
        assert max(abs(r) for r in res) < 1e-10


def test_kirchhoff_detects_perturbation():
    word = sample_window(GOLDEN_MEASURE, -1, 30, 17)
    k = 1.0
    values = list(solve_difference(k, word, 1.0, 0.3))
    values[1 - word.first_index] += 1e-3  # perturb u(1), an interior vertex
    res = kirchhoff_residual(VertexData(word, tuple(values)), k)
    # vertex 1 and its neighbors feel the perturbation linearly
    offset = 1 - (word.first_index + 1)
    assert abs(res[offset]) > 1e-4
    assert abs(res[offset - 1]) > 1e-4
    assert abs(res[offset + 1]) > 1e-4


def test_kirchhoff_equivalence_with_difference_equation():
    # the balance at vertex n is (k/sin k) times the three-term functional;
    # after the k-uniform normalization the two sides agree exactly
    rng = random.Random(83)
    word = sample_window(GOLDEN_MEASURE, -1, 20, 3)
    k = 1.3
    values = [rng.uniform(-1, 1) for _ in range(len(word) + 1)]
    data = VertexData(word, tuple(values))
    res = kirchhoff_residual(data, k)
    umax = max(abs(u) for u in values)
    c = math.cos(k)
    for i, n in enumerate(range(word.first_index + 1, word.last_index + 1)):
        wn = word.letter(n)
        wn1 = word.letter(n - 1)
        direct = (
            wn * data.value_at(n + 1)
            + wn1 * data.value_at(n - 1)
            - (wn + wn1) * c * data.value_at(n)
        ) / umax
        assert res[i] == pytest.approx(direct, rel=1e-9, abs=1e-12)


def test_verify_corollary_true_for_recursion_data():
    rng = random.Random(91)
    for _ in range(10):
        word = sample_window(GOLDEN_MEASURE, -1, 40, rng.randint(0, 10**6))
        assert verify_corollary(word, 1.0, rng.uniform(-2, 2), rng.uniform(-2, 2))


def test_verify_corollary_false_for_non_solutions():
    word = sample_window(GOLDEN_MEASURE, -1, 40, 5)
    values = list(solve_difference(1.0, word, 1.0, 0.5))
    values[10] += 1e-3
    res = kirchhoff_residual(VertexData(word, tuple(values)), 1.0)
    assert max(abs(r) for r in res) > 1e-4


def test_verify_corollary_zero_data():
    word = Word((1, 2, 1, 1, 2), -1)
    assert verify_corollary(word, 1.0, 0.0, 0.0)


def test_vertex_value_outside_window():
    data = VertexData(Word((1, 2), -1), (1.0, 2.0, 3.0))
    assert data.value_at(-1) == 1.0 and data.value_at(1) == 3.0
    for n in (-2, 2):
        with pytest.raises(IndexError, match=f"vertex {n} outside window"):
            data.value_at(n)


def test_kirchhoff_residual_matches_the_per_edge_construction_bit_for_bit():
    # kirchhoff_residual computes sin k and cos k once per call; each residual
    # equals the one built from edge_derivatives(EdgeSolution(...)) per edge
    rng = random.Random(20261020)
    ks = [rng.uniform(0.01, math.pi - 0.01) for _ in range(20)]
    ks += [rng.uniform(math.pi / 2, math.pi) for _ in range(10)]
    ks += [math.pi / 2, math.pi - 1e-6, math.pi - 1e-9, 1e-6]
    for k in ks:
        word = Word(tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 60))), rng.randint(-5, 5))
        u = tuple(rng.uniform(-1e3, 1e3) * rng.choice((1.0, 1e-8)) for _ in range(len(word) + 1))
        w = word.letters
        scale = (k / abs(math.sin(k))) * max(max(map(abs, u)), 1e-300)
        d = [edge_derivatives(EdgeSolution(k, u[i], u[i + 1])) for i in range(len(w))]
        reference = [(w[i] * d[i][0] - w[i - 1] * d[i - 1][1]) / scale for i in range(1, len(w))]
        assert kirchhoff_residual(VertexData(word, u), k) == reference
