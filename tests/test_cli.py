"""Config loading, subcommand tables, serialization round-trip and exit
codes."""

import csv
import hashlib
import io
import json
import math
import re
import subprocess
import sys

import pytest

from sftlab import NotStochastic, NotTransitive, ParseError, SupportViolation, UnknownSubcommand, cli
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
    # refused by the subcommand's own parser, so reported by the whole CLI
    ["periodic", "--config", "c", "extra"],
    ["verify-graph", "--config", "c", "--k", "1", "--", "x"],
    ["verify-graph", "--config", "c", "--k", "x", "-h"],
    ["kalinin", "--config", "c", "--k", "0.5", "--max-period", "-"],
    ["verify-graph", "--config", "c", "--k", "1", "--"],
    # help from it, or a clean parse
    ["verify-graph", "-h", "--config", "c", "--k", "x"],
    ["periodic", "--config", "a", "--config", "b"],
    ["bands", "--config=c", "--max-p", "3"],
]


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=" ".join)
def test_parser_of_one_subcommand_matches_the_whole_cli(capsys, argv):
    # _parse_args parses a subcommand's argv with that subcommand's parser
    # alone; the result, usage, help and messages are those of the whole CLI
    whole = outcome(capsys, cli._build_parser().parse_args, argv)
    assert outcome(capsys, cli._parse_args, argv) == whole


def test_a_clean_subcommand_argv_does_not_build_the_whole_cli(monkeypatch):
    def refuse(*args):
        raise AssertionError("built the whole CLI parser")

    monkeypatch.setattr(cli, "_build_parser", refuse)
    args = cli._parse_args(["verify-graph", "--config", "c", "--k", "1.5", "--seed", "7"])
    assert vars(args) == {
        "subcommand": "verify-graph", "config": "c", "json": False, "output": None, "k": 1.5, "seed": 7,
    }
