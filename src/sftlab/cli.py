"""Config ingestion, subcommand orchestration and bit-stable tabular output.

Config files are JSON with the shape::

    {
      "subshift": {"alphabet_size": 2, "forbidden": [[2, 2]]},
      "markov":   {"transition": [[0.5, 0.5], [1.0, 0.0]]},
      "grid":     {"count": 101, "k_min": 0.05, "k_max": 3.09},
      "mc":       {"n_steps": 100000, "n_samples": 100, "seed": 1234},
      "bands":    {"grid_points": 2001, "tol": 1e-10, "max_period": 6},
      "epsilon": 0.01,
      "exclusion_halfwidth": 0.02
    }

``bands.grid_points`` is validated (>= 64) but ignored: band edges are exact
to ``bands.tol``.  Floats in CSV output carry 17 significant digits, so
tables round-trip exactly and identical configs give byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .cocycle import solve_difference
from .errors import NotStochastic, ParseError, SftlabError, SingularEnergy, UnknownSubcommand
from .graph_model import VertexData, kirchhoff_residual
from .lyapunov import in_exclusion_window, kalinin_profile, lyapunov_mc_grid
from .measure import MarkovMeasure, sample_window, stationary_markov
from .sft import SubshiftSpec, enumerate_periodic_points, validate_spec
from .spectra import band_set, exceptional_candidates

SUBCOMMANDS = ("periodic", "bands", "lyapunov", "zeroset", "candidates", "kalinin", "verify-graph")

VERIFY_GRAPH_WINDOW = (-1, 48)
VERIFY_GRAPH_DATA = (1.0, 0.5)  # (u0, um1)


@dataclass(frozen=True)
class GridSpec:
    count: int
    k_min: float
    k_max: float

    def points(self) -> list[float]:
        return [float(x) for x in np.linspace(self.k_min, self.k_max, self.count)]


@dataclass(frozen=True)
class McParams:
    n_steps: int
    n_samples: int
    seed: int


@dataclass(frozen=True)
class BandParams:
    grid_points: int
    tol: float
    max_period: int


@dataclass(frozen=True)
class RunConfig:
    spec: SubshiftSpec
    measure: MarkovMeasure
    grid: GridSpec
    mc: McParams
    bands: BandParams
    epsilon: float
    exclusion_halfwidth: float


def _get(mapping, key, kind, context):
    if key not in mapping:
        raise ParseError(f"{context}.{key}: missing")
    value = mapping[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ParseError(f"{context}.{key}: expected {kind.__name__}, got {type(value).__name__}")
    if kind is float and not math.isfinite(value):  # json.load reads bare NaN and Infinity
        raise ParseError(f"{context}.{key}: expected a finite float, got {value}")
    return value


def load_config(path: str) -> RunConfig:
    """Parse and validate a config file; all module-level invariants are
    re-checked here so a bad file fails before any computation starts."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: top level must be an object")

    sub = _get(raw, "subshift", dict, "config")
    alphabet_size = _get(sub, "alphabet_size", int, "subshift")
    forbidden = sub.get("forbidden", [])
    if not isinstance(forbidden, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(type(x) is int for x in p) for p in forbidden
    ):
        raise ParseError("subshift.forbidden: expected a list of [i, j] letter pairs")

    markov = _get(raw, "markov", dict, "config")
    transition = _get(markov, "transition", list, "markov")
    if not all(
        isinstance(r, list) and len(r) == len(transition[0]) and all(type(x) in (int, float) for x in r)
        for r in transition
    ):
        raise ParseError("markov.transition: expected a list of equal-length rows of numbers")
    # the spec takes time and memory quadratic in alphabet_size, so a
    # transition too small for it is refused first, as stationary_markov would
    if len(transition) < alphabet_size or any(len(r) < alphabet_size for r in transition):
        size = f"{alphabet_size}x{alphabet_size}"
        raise NotStochastic(f"transition matrix must be {size}, got shape {np.shape(transition)}")
    try:
        spec = validate_spec(alphabet_size, [tuple(p) for p in forbidden])
    except ValueError as exc:
        raise ParseError(f"subshift: {exc}") from exc
    measure = stationary_markov(spec, transition)

    grid_raw = _get(raw, "grid", dict, "config")
    grid = GridSpec(
        _get(grid_raw, "count", int, "grid"),
        _get(grid_raw, "k_min", float, "grid"),
        _get(grid_raw, "k_max", float, "grid"),
    )
    if grid.count < 1 or not (0.0 <= grid.k_min <= grid.k_max <= np.pi):
        raise ParseError("grid: need count >= 1 and 0 <= k_min <= k_max <= pi")

    mc_raw = _get(raw, "mc", dict, "config")
    mc = McParams(
        _get(mc_raw, "n_steps", int, "mc"),
        _get(mc_raw, "n_samples", int, "mc"),
        _get(mc_raw, "seed", int, "mc"),
    )
    if mc.n_steps < 1000 or mc.n_samples < 2 or mc.seed < 0:
        raise ParseError("mc: need n_steps >= 1000, n_samples >= 2, seed >= 0")

    bands_raw = _get(raw, "bands", dict, "config")
    bands = BandParams(
        _get(bands_raw, "grid_points", int, "bands"),
        _get(bands_raw, "tol", float, "bands"),
        _get(bands_raw, "max_period", int, "bands"),
    )
    if bands.grid_points < 64 or bands.tol <= 0.0 or bands.max_period < 1:
        raise ParseError("bands: need grid_points >= 64, tol > 0, max_period >= 1")

    epsilon = _get(raw, "epsilon", float, "config")
    halfwidth = _get(raw, "exclusion_halfwidth", float, "config")
    if epsilon < 0.0 or halfwidth < 0.0:
        raise ParseError("epsilon and exclusion_halfwidth must be nonnegative")

    return RunConfig(spec, measure, grid, mc, bands, epsilon, halfwidth)


@dataclass
class ResultTable:
    """Schema id, column names and scalar rows; serializes with exact float
    round-trip."""

    schema_id: str
    columns: tuple[str, ...]
    rows: list[tuple]

    def _cell(self, value) -> str:
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return format(value, ".17g")
        return str(value)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        # csv writes an int or a str as str() does; bools and floats need _cell
        cell = self._cell
        writer.writerows([v if type(v) in (int, str) else cell(v) for v in row] for row in self.rows)
        return buf.getvalue()

    def to_json(self) -> str:
        """Strict JSON: a non-finite float is written as its CSV cell, the
        string ``"inf"``, ``"-inf"`` or ``"nan"``."""
        rows = [
            [self._cell(v) if isinstance(v, float) and not math.isfinite(v) else v for v in row]
            for row in self.rows
        ]
        return json.dumps(
            {"schema": self.schema_id, "columns": list(self.columns), "rows": rows},
            indent=2,
            allow_nan=False,
        )


def _cycle_str(p) -> str:
    return ",".join(map(str, p.cycle.letters))


def run_subcommand(
    name: str,
    config: RunConfig,
    *,
    k: float | None = None,
    seed: int | None = None,
    max_period: int | None = None,
) -> ResultTable:
    """Execute one subcommand and return its table.  ``k``, ``seed`` and
    ``max_period`` override config values where the subcommand uses them."""
    mp = max_period if max_period is not None else config.bands.max_period

    if name == "periodic":
        points = enumerate_periodic_points(config.spec, mp)
        return ResultTable("periodic", ("period", "cycle"), [(p.period, _cycle_str(p)) for p in points])

    if name == "bands":
        rows = []
        for p in enumerate_periodic_points(config.spec, mp):
            b = band_set(p, config.bands.grid_points, config.bands.tol)
            for i, (lo, hi) in enumerate(b.intervals):
                rows.append((p.period, _cycle_str(p), i, lo, hi))
        return ResultTable("bands", ("period", "cycle", "band_index", "k_lo", "k_hi"), rows)

    if name == "candidates":
        cand = exceptional_candidates(config.spec, mp, config.bands.tol)
        rows = [(i, lo, hi) for i, (lo, hi) in enumerate(cand.intervals)]
        return ResultTable("candidates", ("interval_index", "k_lo", "k_hi"), rows)

    mc = config.mc
    if name in ("lyapunov", "zeroset"):
        estimates = lyapunov_mc_grid(config.measure, config.grid.points(), mc.n_steps, mc.n_samples, mc.seed)
        if name == "lyapunov":
            rows = [(e.k, e.value, e.stderr, e.n_steps, e.n_samples, e.seed) for e in estimates]
            return ResultTable(
                "lyapunov", ("k", "value", "stderr", "n_steps", "n_samples", "seed"), rows
            )
        # the grid energies where the exponent may vanish, flagged when they
        # sit in a window around 0, pi/2 or pi
        rows = [
            (e.k, e.value, e.stderr, in_exclusion_window(e.k, config.exclusion_halfwidth))
            for e in estimates
            if e.value < config.epsilon
        ]
        return ResultTable("zeroset", ("k", "value", "stderr", "in_exclusion_window"), rows)

    if name == "kalinin":
        if k is None:
            raise ParseError("kalinin requires --k")
        profile = kalinin_profile(config.measure, k, mp, mc.n_steps, mc.n_samples, mc.seed)
        rows = list(enumerate(profile, start=1))
        return ResultTable("kalinin", ("max_period", "gap"), rows)

    if name == "verify-graph":
        if k is None:
            raise ParseError("verify-graph requires --k")
        if seed is not None and seed < 0:
            raise ParseError(f"--seed: need seed >= 0, got {seed}")
        window_seed = seed if seed is not None else mc.seed
        first, last = VERIFY_GRAPH_WINDOW
        word = sample_window(config.measure, first, last, window_seed)
        u0, um1 = VERIFY_GRAPH_DATA
        values = solve_difference(k, word, u0, um1)
        residuals = kirchhoff_residual(VertexData(word, tuple(values)), k)
        rows = [(first + 1 + i, r) for i, r in enumerate(residuals)]
        return ResultTable("verify-graph", ("vertex", "residual"), rows)

    raise UnknownSubcommand(f"unknown subcommand {name!r}; expected one of {SUBCOMMANDS}")


# flag: (type, or None for the store_true --json; required; help)
_OPTIONS = {
    "--config": (str, True, "path to the JSON config"),
    "--json": (None, False, "emit JSON instead of CSV"),
    "--output": (str, False, "write to a file instead of stdout"),
    "--max-period": (int, False, None),
    "--k": (float, True, None),
    "--seed": (int, False, None),
}


def _flags(name: str) -> list[str]:
    """The flags of subcommand ``name``, in help order."""
    flags = ["--config", "--json", "--output"]
    if name in ("periodic", "bands", "candidates", "kalinin"):
        flags.append("--max-period")
    if name in ("kalinin", "verify-graph"):
        flags.append("--k")
    if name == "verify-graph":
        flags.append("--seed")
    return flags


def _add_arguments(parser: argparse.ArgumentParser, name: str) -> None:
    """The arguments of subcommand ``name``, from :data:`_OPTIONS`."""
    for flag in _flags(name):
        kind, required, text = _OPTIONS[flag]
        if kind is None:
            parser.add_argument(flag, action="store_true", help=text)
        else:
            parser.add_argument(flag, type=kind, required=required, help=text)


class _Parser(argparse.ArgumentParser):
    """An argparse parser that refuses a flag value not of its
    :data:`_OPTIONS` type, as the argparse of Python 3.10 and 3.11 reads
    ``--config=--`` as an empty list.  Subparsers share the class, so the
    subcommand's parser gives the usage and message of a flag without a
    value, and exit code 2."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        for flag, (kind, _, _) in _OPTIONS.items():
            value = getattr(namespace, flag[2:].replace("-", "_"), None)
            if kind is not None and value is not None and not isinstance(value, kind):
                self.error(f"argument {flag}: expected one argument")
        return namespace, extras


def _build_parser() -> argparse.ArgumentParser:
    """The whole CLI: a top-level parser with one subparser per subcommand.
    :func:`_parse_args` builds it only for argv that the plain parse of
    one subcommand refuses, so every usage line, error message and exit
    code comes from here."""
    parser = _Parser(prog="sftlab", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        _add_arguments(subs.add_parser(name), name)
    return parser


def _plain_parse(name: str, tokens: list[str]) -> argparse.Namespace | None:
    """The namespace of ``sftlab NAME *tokens``, or None unless every token
    is an exact flag of ``name`` given once, ``--flag value`` with a value
    not starting with ``-``, or ``--flag=value``; ``--json`` takes no value,
    every value converts and every required flag is given."""
    flags = _flags(name)
    given = {}
    i = 0
    while i < len(tokens):
        flag, eq, value = tokens[i].partition("=")
        if flag not in flags or flag in given:
            return None
        kind = _OPTIONS[flag][0]
        if kind is None:
            if eq:
                return None
            given[flag] = True
        else:
            if not eq:
                i += 1
                if i == len(tokens):
                    return None
                value = tokens[i]
            if value.startswith("-"):
                return None
            try:
                given[flag] = kind(value)
            except ValueError:
                return None
        i += 1
    args = argparse.Namespace(subcommand=name)
    for flag in flags:
        kind, required, _ = _OPTIONS[flag]
        if required and flag not in given:
            return None
        setattr(args, flag[2:].replace("-", "_"), given.get(flag, False if kind is None else None))
    return args


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse argv as the whole CLI (:func:`_build_parser`) does.

    When argv[0] names a subcommand, argparse hands every later token to
    that subcommand's parser, whose arguments :func:`_add_arguments` builds
    from :data:`_OPTIONS`.  :func:`_plain_parse` reads the same table, and
    a token stream it accepts gives argparse's namespace: an exact flag
    always beats an abbreviation; a value that does not start with ``-``
    is never taken for an option; argparse also splits ``--flag=value`` at
    the first ``=``; and both paths call the same type callable and use
    the same defaults.  A value starting with ``-`` is refused in the
    ``=`` form too, since the argparse of Python 3.11 reads ``--config=--``
    as an empty list, which :class:`_Parser` refuses.  Any other argv
    (help, an abbreviation, a negative number, a repeated flag, ``--``, an
    error, or a first token that names no subcommand) is parsed by the
    whole CLI, which prints its own usage and message.

    One whole-CLI parser cached per process would need no second path, but
    a ``sftlab`` process parses once, so the cache saves it nothing, and
    ``bench/run.py`` clears every cache before each op to time each op as
    one such process.  The plain parse of a ``verify-graph`` argv takes
    about 10 us, against about 0.35 ms for an argparse parser of that
    subcommand alone (2-CPU VM, warm, in-process)."""
    if argv and argv[0] in SUBCOMMANDS:
        args = _plain_parse(argv[0], argv[1:])
        if args is not None:
            return args
    return _build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        config = load_config(args.config)
        table = run_subcommand(
            args.subcommand,
            config,
            k=getattr(args, "k", None),
            seed=getattr(args, "seed", None),
            max_period=getattr(args, "max_period", None),
        )
        text = table.to_json() if args.json else table.to_csv()
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except SingularEnergy as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SftlabError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
