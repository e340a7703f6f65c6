"""Config loading, subcommand tables, serialization round-trip and exit
codes."""

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys

import pytest

from sftlab import (
    NotStochastic,
    NotTransitive,
    ParseError,
    SupportViolation,
    UnknownSubcommand,
    cli,
    in_exclusion_window,
)
from sftlab.cli import ResultTable, load_config, main, run_subcommand

GOLDEN_CONFIG = {
    "subshift": {"alphabet_size": 2, "forbidden": [[2, 2]]},
    "markov": {"transition": [[0.5, 0.5], [1.0, 0.0]]},
    "grid": {"count": 5, "k_min": 0.3, "k_max": 2.8},
    "mc": {"n_steps": 2000, "n_samples": 4, "seed": 11},
    "bands": {"grid_points": 301, "tol": 1e-10, "max_period": 3},
    "epsilon": 0.01,
    "exclusion_halfwidth": 0.02,
}

FULL_CONFIG = {
    "subshift": {"alphabet_size": 2, "forbidden": []},
    "markov": {"transition": [[0.5, 0.5], [0.5, 0.5]]},
    "grid": {"count": 3, "k_min": 0.5, "k_max": 2.5},
    "mc": {"n_steps": 2000, "n_samples": 4, "seed": 3},
    "bands": {"grid_points": 301, "tol": 1e-10, "max_period": 2},
    "epsilon": 0.01,
    "exclusion_halfwidth": 0.02,
}


# the shifts and periods of the benchmark's spectra_scan ops; the SHA-256 of
# each CSV on stdout was recorded with the band edges isolated in c itself
# and every periodic point built through the checked public constructor
SPECTRA_SHIFTS = {
    "full": (2, [], [[0.5, 0.5], [0.5, 0.5]]),
    "golden": (2, [[2, 2]], [[0.5, 0.5], [1.0, 0.0]]),
    "three": (3, [[2, 2], [3, 1]], [[1 / 3, 1 / 3, 1 / 3], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]]),
}
SPECTRA_CSV_SHA256 = {
    ("periodic", "full", 14): "7042968b713fa53ba7e8670cb898d8d3e4ff1c3af4420041ff314f25a00170f8",
    ("periodic", "golden", 16): "e3b447f0e2bea37ed3a8b7ac2ef29916a554170eb429e74f73eaedf4c3668902",
    ("periodic", "three", 10): "1daeb0f8c6eb57a7fa4e222d821727cc307ffbe47064fd91ce10dd2b3cb31deb",
    ("bands", "full", 6): "78c06f7a737c97c173fe1064e69200c2465ab44c36454106eac0de3e2553c8f5",
    ("bands", "golden", 8): "b5012bdc397186645a71519e9bfa9255cb5f5d55ae47fc4c2f96b09d9a54e734",
    ("bands", "three", 5): "3a41f51e8c64e120212abed8b49d5208e4a454dcd48456c17b83cbb933f7158e",
    ("candidates", "golden", 8): "3a74b250dbd7a3e001d052a4dedbbaabea17b474862c387ffb499749deff4624",
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_load_config_valid(tmp_path):
    config = load_config(write_config(tmp_path, GOLDEN_CONFIG))
    assert config.spec.alphabet_size == 2
    assert config.measure.stationary == pytest.approx([2 / 3, 1 / 3], abs=1e-12)
    assert config.grid.points()[0] == 0.3
    assert config.mc.seed == 11


def test_load_config_support_violation(tmp_path):
    bad = json.loads(json.dumps(GOLDEN_CONFIG))
    bad["markov"]["transition"] = [[1.0, 0.0], [1.0, 0.0]]
    with pytest.raises(SupportViolation):
        load_config(write_config(tmp_path, bad))


def test_load_config_not_transitive(tmp_path):
    bad = json.loads(json.dumps(GOLDEN_CONFIG))
    bad["subshift"]["forbidden"] = [[1, 2], [2, 1]]
    with pytest.raises(NotTransitive):
        load_config(write_config(tmp_path, bad))


def test_load_config_parse_errors(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(ParseError):
        load_config(str(path))
    missing = {k: v for k, v in GOLDEN_CONFIG.items() if k != "mc"}
    with pytest.raises(ParseError, match="mc"):
        load_config(write_config(tmp_path, missing))
    bad = json.loads(json.dumps(GOLDEN_CONFIG))
    bad["grid"]["count"] = 0
    with pytest.raises(ParseError, match="grid"):
        load_config(write_config(tmp_path, bad))


def test_load_config_reads_an_int_as_a_float(tmp_path):
    payload = json.loads(json.dumps(GOLDEN_CONFIG))
    payload["epsilon"] = 0
    payload["grid"]["k_min"] = 1
    config = load_config(write_config(tmp_path, payload))
    assert type(config.epsilon) is float and config.epsilon == 0.0
    assert type(config.grid.k_min) is float and config.grid.k_min == 1.0


def test_load_config_rejects_a_non_object(tmp_path, capsys):
    path = write_config(tmp_path, [GOLDEN_CONFIG])
    with pytest.raises(ParseError, match="top level must be an object"):
        load_config(path)
    assert main(["periodic", "--config", path]) == 2
    assert "top level must be an object" in capsys.readouterr().err


# (section or None for the top level, key, bad value, expected message)
BAD_FIELDS = [
    ("grid", "count", "5", r"^grid\.count: expected int, got str$"),
    ("mc", "seed", True, r"^mc\.seed: expected int, got bool$"),
    (None, "epsilon", "0.01", r"^config\.epsilon: expected float, got str$"),
    (None, "markov", [], r"^config\.markov: expected dict, got list$"),
    ("subshift", "forbidden", [[1]], r"^subshift\.forbidden: expected a list"),
    ("subshift", "forbidden", "2,2", r"^subshift\.forbidden: expected a list"),
    ("subshift", "forbidden", [[2, 2.0]], r"^subshift\.forbidden: expected a list"),
    ("subshift", "alphabet_size", 1, r"^subshift: alphabet_size must be at least 2$"),
    ("subshift", "forbidden", [[3, 1]], r"^subshift: forbidden pair"),
    ("mc", "n_steps", 999, r"^mc: need"),
    ("mc", "n_samples", 1, r"^mc: need"),
    ("mc", "seed", -1, r"^mc: need"),
    ("bands", "grid_points", 63, r"^bands: need"),
    ("bands", "tol", 0.0, r"^bands: need"),
    ("bands", "max_period", 0, r"^bands: need"),
    (None, "epsilon", -0.01, r"^epsilon and exclusion_halfwidth must be nonnegative$"),
    (None, "exclusion_halfwidth", -1.0, r"^epsilon and exclusion_halfwidth must be nonnegative$"),
    # JSON true is a Python int equal to 1, so [true, 1] would forbid (1, 1)
    ("subshift", "forbidden", [[True, 1]], r"^subshift\.forbidden: expected a list"),
    ("subshift", "forbidden", [[2, True]], r"^subshift\.forbidden: expected a list"),
]


@pytest.mark.parametrize("section, key, value, match", BAD_FIELDS)
def test_load_config_rejects_bad_fields(tmp_path, section, key, value, match):
    bad = json.loads(json.dumps(GOLDEN_CONFIG))
    (bad if section is None else bad[section])[key] = value
    with pytest.raises(ParseError, match=match):
        load_config(write_config(tmp_path, bad))


# every key of the grid, mc and bands sections with its type, in the order
# load_config checks them
SECTION_KEYS = [
    ("grid", "count", "int"), ("grid", "k_min", "float"), ("grid", "k_max", "float"),
    ("mc", "n_steps", "int"), ("mc", "n_samples", "int"), ("mc", "seed", "int"),
    ("bands", "grid_points", "int"), ("bands", "tol", "float"), ("bands", "max_period", "int"),
]


@pytest.mark.parametrize("section, key, kind", SECTION_KEYS)
def test_load_config_names_a_missing_or_mistyped_section_key(tmp_path, section, key, kind):
    missing = json.loads(json.dumps(GOLDEN_CONFIG))
    del missing[section][key]
    with pytest.raises(ParseError, match=rf"^{section}\.{key}: missing$"):
        load_config(write_config(tmp_path, missing))
    bad = json.loads(json.dumps(GOLDEN_CONFIG))
    bad[section][key] = "1"
    with pytest.raises(ParseError, match=rf"^{section}\.{key}: expected {kind}, got str$"):
        load_config(write_config(tmp_path, bad))


def test_load_config_checks_the_section_keys_in_order(tmp_path):
    bad = json.loads(json.dumps(GOLDEN_CONFIG))
    for section, key, _ in SECTION_KEYS:
        bad[section][key] = "1"
    named = []
    for _ in SECTION_KEYS:
        with pytest.raises(ParseError) as info:
            load_config(write_config(tmp_path, bad))
        section, key = str(info.value).split(":")[0].split(".")
        named.append((section, key))
        bad[section][key] = GOLDEN_CONFIG[section][key]
    assert named == [(section, key) for section, key, _ in SECTION_KEYS]
    load_config(write_config(tmp_path, bad))


# every float field, set to a bare NaN, Infinity or -Infinity token, which
# json.load reads as a float: exit 2 before any computation starts
@pytest.mark.parametrize("section, key", [("grid", "k_min"), ("grid", "k_max"), ("bands", "tol"),
                                          (None, "epsilon"), (None, "exclusion_halfwidth")])
@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_config_floats_exit_2(tmp_path, capsys, section, key, token):
    bad = json.loads(json.dumps(GOLDEN_CONFIG))
    (bad if section is None else bad[section])[key] = float(token)
    path = write_config(tmp_path, bad)
    assert f'"{key}": {token}' in (tmp_path / "config.json").read_text()
    where = "config" if section is None else section
    with pytest.raises(ParseError, match=rf"^{where}\.{key}: expected a finite float, got "):
        load_config(path)
    assert main(["bands", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {where}.{key}: expected a finite")


@pytest.mark.parametrize("entry", [math.nan, math.inf])
def test_non_finite_transition_exits_2(tmp_path, capsys, entry):
    bad = json.loads(json.dumps(GOLDEN_CONFIG))
    bad["markov"]["transition"][0][0] = entry
    path = write_config(tmp_path, bad)
    assert main(["periodic", "--config", path]) == 2
    assert capsys.readouterr().err == "error: transition probabilities must be finite and nonnegative\n"


# json.load reads these as dict, bool, str and None; numpy would read true
# and "0.5" as 1.0 and 0.5, and an object would escape main as a TypeError
@pytest.mark.parametrize(
    "transition",
    [[[{}, 0.5], [1, 0]], [[0.5, 0.5], [True, False]], [["0.5", 0.5], [1, 0]], [[None, 0.5], [1, 0]],
     [[0.5, 0.5], [1.0]], [[0.5, 0.5], 1.0]],
)
def test_non_numeric_transition_exits_2(tmp_path, capsys, transition):
    bad = json.loads(json.dumps(GOLDEN_CONFIG))
    bad["markov"]["transition"] = transition
    path = write_config(tmp_path, bad)
    with pytest.raises(ParseError, match=r"^markov\.transition: expected a list of equal-length rows of numbers$"):
        load_config(path)
    assert main(["periodic", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: markov.transition: ")


# the spec and its transitive closure cost time and memory quadratic in
# alphabet_size (a 4000-letter spec took seconds and a quarter of a GB), so
# a transition with fewer rows or shorter rows is refused before it is built
@pytest.mark.parametrize(
    "alphabet_size, transition, shape",
    [(4000, [[0.5, 0.5], [1.0, 0.0]], "(2, 2)"), (3, [[0.5, 0.5], [1.0, 0.0], [0.5, 0.5]], "(3, 2)")],
)
def test_transition_smaller_than_the_alphabet_exits_2_before_the_spec(
    tmp_path, capsys, monkeypatch, alphabet_size, transition, shape
):
    bad = json.loads(json.dumps(GOLDEN_CONFIG))
    bad["subshift"]["alphabet_size"] = alphabet_size
    bad["markov"]["transition"] = transition
    path = write_config(tmp_path, bad)

    def refuse(*args):
        raise AssertionError("validate_spec called")

    monkeypatch.setattr(cli, "validate_spec", refuse)
    message = f"transition matrix must be {alphabet_size}x{alphabet_size}, got shape {shape}"
    with pytest.raises(NotStochastic, match=f"^{re.escape(message)}$"):
        load_config(path)
    assert main(["periodic", "--config", path]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_periodic_table(tmp_path):
    config = load_config(write_config(tmp_path, GOLDEN_CONFIG))
    table = run_subcommand("periodic", config)
    assert table.columns == ("period", "cycle")
    assert table.rows == [(1, "1"), (2, "1,2"), (3, "1,1,2")]


def test_bands_table_full_shift(tmp_path):
    config = load_config(write_config(tmp_path, FULL_CONFIG))
    table = run_subcommand("bands", config)
    # fixed points carry one full band each; the alternating cycle two bands
    assert [(r[0], r[1], r[2]) for r in table.rows] == [
        (1, "1", 0),
        (1, "2", 0),
        (2, "1,2", 0),
        (2, "1,2", 1),
    ]
    assert table.rows[0][3] == 0.0
    assert table.rows[0][4] == math.pi
    assert table.rows[2][4] == pytest.approx(math.acos(1 / 3), abs=1e-8)


def test_candidates_table(tmp_path):
    config = load_config(write_config(tmp_path, FULL_CONFIG))
    table = run_subcommand("candidates", config)
    assert table.columns == ("interval_index", "k_lo", "k_hi")
    assert len(table.rows) == 2
    assert table.rows[0][1] == 0.0
    assert table.rows[1][2] == math.pi


def test_lyapunov_table(tmp_path):
    config = load_config(write_config(tmp_path, FULL_CONFIG))
    table = run_subcommand("lyapunov", config)
    assert len(table.rows) == 3
    assert [r[0] for r in table.rows] == [0.5, 1.5, 2.5]
    assert all(r[3] == 2000 and r[4] == 4 and r[5] == 3 for r in table.rows)


def test_zeroset_table(tmp_path):
    config = load_config(write_config(tmp_path, FULL_CONFIG))
    table = run_subcommand("zeroset", config)
    assert table.columns == ("k", "value", "stderr", "in_exclusion_window")
    for row in table.rows:
        assert row[1] < config.epsilon


def full_uniform_config(tmp_path, grid, epsilon, mc):
    # FULL_CONFIG with grid (count, k_min, k_max), epsilon and mc
    # (n_steps, n_samples, seed) replaced
    payload = json.loads(json.dumps(FULL_CONFIG))
    payload["grid"] = dict(zip(("count", "k_min", "k_max"), grid))
    payload["mc"] = dict(zip(("n_steps", "n_samples", "seed"), mc))
    payload["epsilon"] = epsilon
    return load_config(write_config(tmp_path, payload))


def test_zeroset_flags_half_pi(tmp_path):
    config = full_uniform_config(tmp_path, (1, math.pi / 2, math.pi / 2), 0.01, (20_000, 8, 31))
    rows = run_subcommand("zeroset", config).rows
    assert len(rows) == 1
    k, value, _, flag = rows[0]
    assert k == math.pi / 2 and value < 0.01 and flag is True


def test_zeroset_epsilon_zero_is_empty(tmp_path):
    config = full_uniform_config(tmp_path, (3, 0.5, math.pi / 2), 0.0, (2000, 8, 31))
    assert run_subcommand("zeroset", config).rows == []


def test_zeroset_annotation(tmp_path):
    # every estimate is below 10, so every grid point is a row: flagged near
    # 0 and pi/2, not at the midpoint 0.7999
    config = full_uniform_config(tmp_path, (3, 0.019, math.pi / 2 + 0.01), 10.0, (2000, 8, 31))
    rows = run_subcommand("zeroset", config).rows
    assert [r[3] for r in rows] == [True, False, True]
    assert [r[0] for r in rows] == config.grid.points() == [0.019, rows[1][0], math.pi / 2 + 0.01]


def test_zeroset_on_an_empty_grid(tmp_path):
    # load_config refuses a grid of count 0, so the loaded grid is replaced
    config = full_uniform_config(tmp_path, (1, 1.0, 1.0), 0.01, (1000, 4, 3))
    config = dataclasses.replace(config, grid=cli.GridSpec(0, 1.0, 1.0))
    assert run_subcommand("zeroset", config).rows == []


def test_zeroset_rows_are_the_lyapunov_rows_below_epsilon(tmp_path):
    # epsilon at the median estimate: the rows strictly below it are kept
    # and the median's own row is not; halfwidth 0.3 flags k = 0.3 only
    config = load_config(write_config(tmp_path, GOLDEN_CONFIG))
    epsilon = sorted(r[1] for r in run_subcommand("lyapunov", config).rows)[2]
    config = dataclasses.replace(config, epsilon=epsilon, exclusion_halfwidth=0.3)
    expected = [
        (k, value, stderr, in_exclusion_window(k, 0.3))
        for k, value, stderr, *_ in run_subcommand("lyapunov", config).rows
        if value < epsilon
    ]
    assert run_subcommand("zeroset", config).rows == expected
    assert [(r[0], r[3]) for r in expected] == [(0.3, True), (2.8, False)]  # the median is k = 0.925


def test_kalinin_table(tmp_path):
    config = load_config(write_config(tmp_path, FULL_CONFIG))
    table = run_subcommand("kalinin", config, k=0.9)
    assert table.columns == ("max_period", "gap")
    assert [r[0] for r in table.rows] == [1, 2]
    assert table.rows[1][1] <= table.rows[0][1] + 1e-12
    with pytest.raises(ParseError):
        run_subcommand("kalinin", config)


def test_verify_graph_table(tmp_path):
    config = load_config(write_config(tmp_path, GOLDEN_CONFIG))
    table = run_subcommand("verify-graph", config, k=1.0, seed=5)
    assert table.columns == ("vertex", "residual")
    assert [r[0] for r in table.rows] == list(range(0, 49))
    assert max(abs(r[1]) for r in table.rows) < 1e-9
    with pytest.raises(ParseError, match="verify-graph requires --k"):
        run_subcommand("verify-graph", config)


def test_verify_graph_negative_seed(tmp_path, capsys):
    path = write_config(tmp_path, GOLDEN_CONFIG)
    with pytest.raises(ParseError, match="--seed"):
        run_subcommand("verify-graph", load_config(path), k=1.0, seed=-1)
    assert main(["verify-graph", "--config", path, "--k", "1", "--seed", "-1"]) == 2
    assert "--seed: need seed >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("k", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("subcommand", ["kalinin", "verify-graph"])
def test_non_finite_k_exits_2(tmp_path, capsys, subcommand, k):
    # a clean error naming k and no table ("--k=-inf", since argparse reads
    # "-inf" as an option)
    path = write_config(tmp_path, GOLDEN_CONFIG)
    assert main([subcommand, "--config", path, f"--k={k}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: k = {float(k)} is not a finite energy\n"


def test_unknown_subcommand(tmp_path):
    config = load_config(write_config(tmp_path, FULL_CONFIG))
    with pytest.raises(UnknownSubcommand):
        run_subcommand("spectrum", config)


def test_csv_round_trip():
    table = ResultTable(
        "demo",
        ("a", "b", "c"),
        [(1, 0.1 + 0.2, "x,y"), (2, math.pi, "z")],
    )
    text = table.to_csv()
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["a", "b", "c"]
    assert float(rows[1][1]) == 0.1 + 0.2
    assert float(rows[2][1]) == math.pi
    assert rows[1][2] == "x,y"


def reject_constant(name):
    raise ValueError(f"non-standard JSON token {name}")


def test_json_mirror():
    table = ResultTable("demo", ("a",), [(0.5,), (1.0,), (math.inf,), (-math.inf,), (math.nan,)])
    payload = json.loads(table.to_json(), parse_constant=reject_constant)
    assert payload["schema"] == "demo"
    assert payload["rows"] == [[0.5], [1.0], ["inf"], ["-inf"], ["nan"]]


def test_main_writes_csv_and_is_deterministic(tmp_path, capsys):
    path = write_config(tmp_path, FULL_CONFIG)
    assert main(["periodic", "--config", path]) == 0
    first = capsys.readouterr().out
    assert main(["periodic", "--config", path]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.splitlines()[0] == "period,cycle"


def shift_config(shift, n_steps=1000, n_samples=2, seed=0):
    size, forbidden, transition = SPECTRA_SHIFTS[shift]
    return {
        "subshift": {"alphabet_size": size, "forbidden": forbidden},
        "markov": {"transition": transition},
        "grid": {"count": 1, "k_min": 1.0, "k_max": 1.0},
        "mc": {"n_steps": n_steps, "n_samples": n_samples, "seed": seed},
        "bands": {"grid_points": 2001, "tol": 1e-10, "max_period": 1},
        "epsilon": 0.01,
        "exclusion_halfwidth": 0.02,
    }


def stdout_sha256(capsys, argv):
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("subcommand, shift, max_period", SPECTRA_CSV_SHA256)
def test_spectra_csv_bytes_are_pinned(tmp_path, capsys, subcommand, shift, max_period):
    path = write_config(tmp_path, shift_config(shift))
    argv = [subcommand, "--config", path, "--max-period", str(max_period)]
    assert stdout_sha256(capsys, argv) == SPECTRA_CSV_SHA256[subcommand, shift, max_period]


# verify-graph on the 3-letter benchmark shift: (k, seed) -> SHA-256 of the
# CSV, recorded with every interior edge's solution built twice
VERIFY_GRAPH_CSV_SHA256 = {
    ("0.7", "0"): "8520d552c936ee90fe3158fc6e580813b1f9a7a2533ace47def0e0b6308e8da7",
    ("1.3", "5"): "c22213a9f882c15b746766cc19ee607d5d38dc329e19c07e955a03cafb740d17",
    ("2.9", "17"): "ad99def67a04a0f3d1f1858be295051349e0024bd545961a9fc8e3428a8c4f3f",
    ("1.5707963267948966", "3"): "ee68d4b66673fb3d218ab358dab70d5d25e439ffbebf8dcd8fe731f49ee0f9d3",
}


@pytest.mark.parametrize("k, seed", VERIFY_GRAPH_CSV_SHA256)
def test_verify_graph_csv_bytes_are_pinned(tmp_path, capsys, k, seed):
    path = write_config(tmp_path, shift_config("three"))
    argv = ["verify-graph", "--config", path, "--k", k, "--seed", seed]
    assert stdout_sha256(capsys, argv) == VERIFY_GRAPH_CSV_SHA256[k, seed]


def test_kalinin_csv_bytes_are_pinned(tmp_path, capsys):
    # recorded with the single-energy estimate computed apart from the grid
    # and the profile as a min per budget, on x86-64 with AVX-512 and
    # numpy 2.4; the Monte-Carlo value goes through numpy's vectorized log,
    # whose last bit may differ on another SIMD target
    path = write_config(tmp_path, shift_config("full", n_steps=2000, n_samples=4, seed=7))
    argv = ["kalinin", "--config", path, "--k", "0.9", "--max-period", "5"]
    assert stdout_sha256(capsys, argv) == "66d66ea330a063e1e22084537d740f13a3e1641278ad8cf933571fdc0ebd716a"


def two_cycle_config(tmp_path):
    # the 2-letter shift whose only orbit is the 2-cycle: no fixed points
    config = shift_config("full")
    config["subshift"]["forbidden"] = [[1, 1], [2, 2]]
    config["markov"]["transition"] = [[0, 1], [1, 0]]
    return write_config(tmp_path, config)


def test_kalinin_on_a_shift_without_fixed_points(tmp_path, capsys):
    # the budget 1 has no periodic point, so its gap is the minimum over
    # the empty set
    path = two_cycle_config(tmp_path)
    assert main(["kalinin", "--config", path, "--k", "1.0", "--max-period", "3"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[:2] == ["max_period,gap", "1,inf"]
    assert len(rows) == 4 and all(math.isfinite(float(r.split(",")[1])) for r in rows[2:])


def test_kalinin_json_is_strict_on_a_shift_without_fixed_points(tmp_path, capsys):
    path = two_cycle_config(tmp_path)
    assert main(["kalinin", "--config", path, "--json", "--k", "1.0", "--max-period", "3"]) == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
    assert payload["rows"][0] == [1, "inf"]
    assert all(math.isfinite(gap) for _, gap in payload["rows"][1:])


def test_main_output_file_and_json(tmp_path, capsys):
    path = write_config(tmp_path, FULL_CONFIG)
    out = tmp_path / "table.json"
    assert main(["candidates", "--config", path, "--json", "--output", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert payload["schema"] == "candidates"


def test_main_output_into_a_missing_directory_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, FULL_CONFIG)
    out = tmp_path / "missing" / "table.csv"
    assert main(["periodic", "--config", path, "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and str(out) in captured.err
    assert not out.parent.exists()


@pytest.mark.parametrize(
    "argv",
    [["bands", "--config=--"], ["periodic", "--config", "config.json", "--output=--"]],
    ids=" ".join,
)
def test_a_dash_dash_flag_value_is_a_usage_error(tmp_path, capsys, monkeypatch, argv):
    # the argparse of Python 3.10 and 3.11 reads --flag=-- as an empty list,
    # which once reached open() (a traceback) or meant stdout
    write_config(tmp_path, FULL_CONFIG)
    monkeypatch.chdir(tmp_path)
    code, out, err = outcome(capsys, main, argv)
    assert (code, out) == (2, "")
    flag = argv[-1].split("=")[0]
    assert err.startswith("usage: sftlab ") and "Traceback" not in err
    assert err.endswith(f"error: argument {flag}: expected one argument\n")
    assert os.listdir(tmp_path) == ["config.json"]


@pytest.mark.parametrize("argv", [["--output", ""], ["--output="]], ids=" ".join)
def test_an_empty_output_path_exits_2(tmp_path, capsys, argv):
    # an empty path is a path that cannot be opened, not a request for stdout
    path = write_config(tmp_path, FULL_CONFIG)
    code, out, err = outcome(capsys, main, ["periodic", "--config", path, *argv])
    assert (code, out) == (2, "")
    assert err.startswith("error:")


def test_main_exit_code_config_error(tmp_path, capsys):
    bad = json.loads(json.dumps(GOLDEN_CONFIG))
    bad["markov"]["transition"] = [[1.0, 0.0], [1.0, 0.0]]
    path = write_config(tmp_path, bad)
    assert main(["periodic", "--config", path]) == 2
    assert "error" in capsys.readouterr().err


def test_main_exit_code_missing_file(capsys):
    assert main(["periodic", "--config", "/nonexistent/x.json"]) == 2
    capsys.readouterr()


def test_main_exit_code_numeric_failure(tmp_path, capsys):
    # a grid touching an integer multiple of pi hits the singular energy
    bad = json.loads(json.dumps(FULL_CONFIG))
    bad["grid"] = {"count": 2, "k_min": 0.5, "k_max": math.pi}
    path = write_config(tmp_path, bad)
    assert main(["lyapunov", "--config", path]) == 3
    assert "error" in capsys.readouterr().err


def run_module(*args):
    return subprocess.run([sys.executable, "-m", "sftlab", *args], capture_output=True)


def test_module_entry_point(tmp_path):
    path = write_config(tmp_path, FULL_CONFIG)
    proc = run_module("periodic", "--config", path)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == b"period,cycle"
    path = write_config(tmp_path, shift_config("three"), name="three.json")
    proc = run_module("verify-graph", "--config", path, "--k", "2.9", "--seed", "17")
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == VERIFY_GRAPH_CSV_SHA256["2.9", "17"]
    proc = run_module()
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"usage: sftlab ")


def test_console_script_reads_sys_argv(tmp_path, capsys, monkeypatch):
    # the [project.scripts] entry calls main() with no argv
    path = write_config(tmp_path, shift_config("three"))
    argv = ["verify-graph", "--config", path, "--k", "1.3", "--seed", "5"]
    monkeypatch.setattr(sys, "argv", ["/usr/local/bin/sftlab", *argv])
    assert stdout_sha256(capsys, None) == VERIFY_GRAPH_CSV_SHA256["1.3", "5"]
    monkeypatch.setattr(sys, "argv", ["/usr/local/bin/sftlab"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: sftlab ")


def outcome(capsys, call, argv):
    # the return value or SystemExit code, stdout and stderr of call(argv)
    try:
        result = call(argv)
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


def test_main_calls_in_one_process_are_independent(tmp_path, capsys):
    # each argv gives the same exit code, stdout and stderr whether it runs
    # first or after the others
    path = write_config(tmp_path, FULL_CONFIG)  # bands.max_period 2
    sequence = [
        ["periodic", "--config", path, "--max-period", "3"],
        ["periodic", "--config", path],
        ["verify-graph", "--config", path, "--k", "1.0", "--seed", "5"],
        ["verify-graph", "--config", path, "--k", "1.0"],
        ["candidates", "--config", path, "--json"],
        ["candidates", "--config", path],
        ["verify-graph", "--config", path],
        ["--help"],
    ]
    forward = [outcome(capsys, main, argv) for argv in sequence]
    backward = [outcome(capsys, main, argv) for argv in sequence[::-1]]
    assert backward[::-1] == forward
    assert [code for code, _, _ in forward] == [0, 0, 0, 0, 0, 0, 2, 0]
    assert forward[1][1] == 'period,cycle\n1,1\n1,2\n2,"1,2"\n'
    assert forward[2][1] != forward[3][1]
    assert forward[4][1].startswith("{") and forward[5][1].startswith("interval_index,")
    assert forward[6][2].startswith("usage: sftlab verify-graph ")
    assert forward[6][2].endswith("error: the following arguments are required: --k\n")
    assert forward[7][1].startswith("usage: sftlab ")


# SHA-256 of `sftlab --help` and of each `sftlab NAME --help` at COLUMNS=80,
# recorded before the arguments were built from cli._OPTIONS
# (argparse's help format as of Python 3.10 and 3.11)
HELP_SHA256 = {
    "--help": "d80479570af6a06cf6f5f8b4da66b80d740f1871157a027e1e03c832d2bb1e0a",
    "periodic": "7e5adf5f71eac0c2c805e1e95866352eee64f71c6379a890817af2725c1e63dd",
    "bands": "898fe4cd6413c0679032c6eac10778239b380ebda0df8d8782f625453ecb10a8",
    "lyapunov": "c9a85a15952a22afb6c856f08f4bf3ff0c162bb50b8296a7450d17c320fee8b0",
    "zeroset": "c6c698b425be56c68383d81b31ed31a46be71d927da4595d1c7e80c08ea05441",
    "candidates": "c09d9177f4b127fbc2e0b0b180a8ba91570eb7689b226db3fd6b3eb331c97763",
    "kalinin": "1bc83520482758e92cdc6444fac0e2902d6739838b2a72ac7f60cbf911bda399",
    "verify-graph": "503c4bd5d782b9385051c5ac392c6f17b1fb83789664ac9462efa368e066f9fe",
}


def test_help_text_is_pinned(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for argv in [["--help"], *[[name, "--help"] for name in cli.SUBCOMMANDS]]:
        code, out, err = outcome(capsys, main, argv)
        assert (code, err) == (0, ""), argv
        assert hashlib.sha256(out.encode()).hexdigest() == HELP_SHA256[argv[0]], argv


PARSER_ARGVS = [
    [],
    ["--help"],
    ["-h", "periodic"],
    ["nope"],
    ["-1", "periodic", "--config", "c"],
    ["--config", "c", "periodic"],
    ["--", "periodic", "--config", "c"],
    ["periodic"],
    ["periodic", "--config"],
    ["periodic", "--config", "c", "--max-period", "x"],
    ["periodic", "--config", "c", "--k", "1"],
    ["periodic", "--config", "c", "bands"],
    ["bands", "--config", "periodic", "--json", "--output", "o"],
    ["candidates", "--conf", "c", "--max", "4"],
    ["lyapunov", "--config=c"],
    ["zeroset", "-h"],
    ["kalinin", "--config", "c"],
    ["kalinin", "--config", "c", "--k", "0.5", "--max-period", "3"],
    ["verify-graph", "--config", "c", "--k", "-1.5", "--seed", "7"],
    ["verify-graph", "--config", "c", "--k", "1", "--seed", "1.5"],
    *[[name, "--help"] for name in cli.SUBCOMMANDS],
    # errors, help and dash-led values, all from the whole CLI
    ["periodic", "--config", "c", "extra"],
    ["verify-graph", "--config", "c", "--k", "1", "--", "x"],
    ["verify-graph", "--config", "c", "--k", "x", "-h"],
    ["kalinin", "--config", "c", "--k", "0.5", "--max-period", "-"],
    ["verify-graph", "--config", "c", "--k", "1", "--"],
    ["verify-graph", "-h", "--config", "c", "--k", "x"],
    ["candidates", "--config", "c", "--json=1"],
    ["zeroset", "--config", "c", "--output"],
    ["verify-graph", "--config", "c", "--k", ""],
    ["bands", "--config=--json", "--json"],
    ["bands", "--config=--"],  # argparse (3.11) reads [], which _Parser refuses
    ["verify-graph", "--config", "c", "--k=-1.5"],
    # clean parses by the whole CLI: a repeated or abbreviated flag
    ["periodic", "--config", "a", "--config", "b"],
    ["bands", "--config=c", "--max-p", "3"],
    ["lyapunov", "--config", "c", "--json", "--json"],
    # clean parses by the plain parse, with argparse's values
    ["verify-graph", "--config", "c", "--k=1.5"],
    ["periodic", "--config="],
    ["verify-graph", "--config", "c", "--k", "1", "--seed", "1_0"],
    ["kalinin", "--config", "c", "--k", " 1.5"],
    ["verify-graph", "--config", "c", "--k", "nan"],
    ["kalinin", "--config", "c", "--k", "1e400"],
    ["periodic", "--config", ""],
    ["zeroset", "--output", "", "--config", "c"],
]


def parsed(capsys, call, argv):
    # outcome() with a namespace as its sorted items, whose repr reads nan
    # as equal to nan
    result, out, err = outcome(capsys, call, argv)
    if isinstance(result, argparse.Namespace):
        result = repr(sorted(vars(result).items()))
    return result, out, err


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=" ".join)
def test_parser_of_one_subcommand_matches_the_whole_cli(capsys, argv):
    # _parse_args parses a clean subcommand argv itself and hands any other
    # to the whole CLI; the result, usage, help and messages are the whole CLI's
    whole = parsed(capsys, cli._build_parser().parse_args, argv)
    assert parsed(capsys, cli._parse_args, argv) == whole


def test_parse_args_matches_the_whole_cli_on_random_argvs(capsys, monkeypatch):
    # one whole-CLI parser serves as the reference and as _parse_args's
    # fallback, so the test checks what the plain parse accepts and returns
    parser = cli._build_parser()
    fallbacks = []

    def build():
        fallbacks.append(1)
        return parser

    monkeypatch.setattr(cli, "_build_parser", build)
    flags = ["--config", "--json", "--output", "--max-period", "--k", "--seed"]
    abbreviations = ["--con", "--jso", "--out", "--max", "--see"]
    values = ["c", "", "3", "-3", "1.5", "x", "nan", "--json", "-h", "--"]
    vocabulary = [*cli.SUBCOMMANDS, *flags, *[f"{flag}=" for flag in flags], *abbreviations, *values]
    rng = random.Random(2028)
    n = 2000
    for _ in range(n):
        argv = [rng.choice(cli.SUBCOMMANDS) if rng.random() < 0.9 else rng.choice(vocabulary)]
        # flags in random order, mostly the subcommand's own with the
        # required ones among them, and mostly values that convert
        own = cli._FLAGS[argv[0]] if argv[0] in cli.SUBCOMMANDS and rng.random() < 0.7 else flags
        chosen = rng.sample(own, rng.randint(0, 3))
        if rng.random() < 0.8:
            chosen = ["--config"] + [f for f in chosen if f != "--config"]
            if argv[0] in ("kalinin", "verify-graph"):
                chosen = ["--k"] + [f for f in chosen if f != "--k"]
        for flag in rng.sample(chosen, len(chosen)):
            form = rng.random()
            value = rng.choice(["c", "3", "1.5"] if rng.random() < 0.9 else values)
            if form < 0.03:
                argv.append(rng.choice(vocabulary))
            elif form < 0.06:
                argv += [rng.choice(abbreviations), value]
            elif flag == "--json" and form < 0.9:
                argv.append(flag)
            elif form < 0.75:
                argv += [flag, value]
            else:
                argv.append(f"{flag}={value}")
        whole = parsed(capsys, parser.parse_args, argv)
        assert parsed(capsys, cli._parse_args, argv) == whole, argv
    # both paths are exercised
    assert n // 5 < len(fallbacks) < n - n // 5


# the options of each benchmark op after --config P --output O
BENCHMARK_ARGS = {
    "periodic": ["--max-period", "14"],
    "bands": ["--max-period", "6"],
    "lyapunov": [],
    "zeroset": [],
    "candidates": ["--max-period", "8"],
    "kalinin": ["--k", "1.5707963267948966"],
    "verify-graph": ["--k", "1.25", "--seed", "7"],
}


def test_a_clean_subcommand_argv_does_not_build_the_whole_cli(monkeypatch):
    def refuse(*args):
        raise AssertionError("built the whole CLI parser")

    whole = cli._build_parser()
    monkeypatch.setattr(cli, "_build_parser", refuse)
    for name in cli.SUBCOMMANDS:
        argv = [name, "--config", "c.json", "--output", "o.csv", *BENCHMARK_ARGS[name]]
        assert cli._parse_args(argv) == whole.parse_args(argv)
    args = cli._parse_args(["verify-graph", "--config", "c", "--k", "1.5", "--seed", "7"])
    assert vars(args) == {
        "subcommand": "verify-graph", "config": "c", "json": False, "output": None, "k": 1.5, "seed": 7,
    }
