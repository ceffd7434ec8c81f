"""Config-driven command-line front end.

Subcommands:

* ``solve <config>``         energies table (+ optional dumps per config)
* ``verify [--seed S]``      randomized closed-form identity report
* ``coefficients <config>``  series-coefficient dump for every solved state
* ``sample <config>``        wavefunction samples on the configured grid

Configs are JSON files with ``potential``, ``mass``, ``quantum``, ``solver``
and ``output`` blocks; see configs/coulomb_demo.json.  Exit codes: 0 success,
1 solver failure (partial results are still written), 2 config error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .eigensolver import SolverConfig, find_eigenvalue
from .errors import BracketError, ConfigurationError, DomainError, WrongStateError
from .identities import DEFAULT_SEED, run_identity_suite
from .mass_expansion import constant_mass, expand_exponential, mass_from_series
from .model import (
    EigenResult,
    MassProfile,
    PotentialSpec,
    QuantumNumbers,
    make_cornell,
    make_coulomb,
    make_linear,
    make_oscillator,
)
from .oracle import channel_spectrum
from .wavefunction import RadialWavefunction, evaluate

__all__ = ["RunConfig", "load_config", "run_solve", "run_verify", "main"]


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field."""


def _number(value, field: str, integer: bool = False):
    """A config number: a JSON number, or with ``integer`` a JSON integer.
    type() rather than isinstance(): JSON true must not pass as 1.  NaN and
    Infinity, which Python's JSON reader accepts, are not JSON numbers."""
    if integer:
        if type(value) is not int:
            raise ConfigError(f"{field}: must be an integer")
        return value
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ConfigError(f"{field}: must be a number")
    return float(value)


def _list(value, field: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{field}: must be a list")
    return value


def _object(value, field: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{field}: must be an object")
    return dict(value)


# kind -> (constructor, its parameters in call order, those it checks)
_POTENTIALS = {
    "coulomb": (make_coulomb, ("z",), "z"),
    "oscillator": (make_oscillator, ("omega",), "omega"),
    "linear": (make_linear, ("b_lin",), "b_lin"),
    "cornell": (make_cornell, ("a", "b_lin", "c"), "a/b_lin"),
    "general": (PotentialSpec, ("v1", "v2", "v3", "alpha", "beta"), "v1/v2/alpha/beta"),
}

# mass kind -> the fields it reads
_MASSES = {"constant": ("m0",), "exponential": ("m0", "lambda"), "series": ("coeffs",)}

_SOLVER_FIELDS = ("e_lo", "e_hi", "truncation_order", "tol_e", "max_iter",
                  "match_radius", "scan_steps", "oracle")


@dataclass(frozen=True)
class QuantumBlock:
    dim: int
    ell: tuple
    n: tuple


@dataclass(frozen=True)
class OutputBlock:
    directory: str = "out"
    formats: tuple = ("csv", "json")
    coefficients: bool = False
    wavefunction_grid: dict | None = None


@dataclass(frozen=True)
class RunConfig:
    """A parsed config: the objects the solve runs on, and where to write."""

    potential: PotentialSpec
    mass: MassProfile
    quantum: QuantumBlock
    solver: SolverConfig
    output: OutputBlock


def _reject_unknown(raw: dict, known, where: str) -> None:
    unknown = sorted(set(raw) - set(known))
    if unknown:
        raise ConfigError(f"{where}.{unknown[0]}: unknown field")


def _require(block: dict, key: str, where: str):
    if key not in block:
        raise ConfigError(f"{where}.{key}: required field is missing")
    return block[key]


def _flag(block: dict, key: str, default: bool, where: str) -> bool:
    """A JSON boolean: bool("false") would be true."""
    value = block.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{where}.{key}: must be true or false")
    return value


def _potential(raw) -> PotentialSpec:
    p = _object(raw, "potential")
    kind = p.pop("kind", None)
    if kind is None:
        raise ConfigError("potential.kind: required field is missing")
    kind = str(kind)
    offset = _number(p.pop("v3_offset", 0.0), "potential.v3_offset")
    if kind not in _POTENTIALS:
        raise ConfigError(f"potential.kind: unknown kind {kind!r}")
    make, names, checked = _POTENTIALS[kind]
    try:
        pot = make(*[
            _number(p.pop(name), f"potential.{name}", name in ("alpha", "beta"))
            for name in names
        ])
    except KeyError as exc:
        raise ConfigError(f"potential: missing parameter {exc.args[0]!r}") from None
    except DomainError as exc:
        raise ConfigError(f"potential.{checked}: {exc}") from None
    if p:
        raise ConfigError(f"potential: unknown parameter(s) {sorted(p)} for kind {kind!r}")
    return replace(pot, v3=pot.v3 + offset) if offset else pot


def _mass(raw) -> MassProfile:
    """The mass profile at its lowest order; parse_config carries it to the
    truncation order once the solver block is read."""
    given = _object(raw, "mass")
    kind = str(given.pop("kind", "constant"))
    m0 = _number(given.get("m0", 1.0), "mass.m0")
    lam = _number(given["lambda"], "mass.lambda") if "lambda" in given else None
    coeffs = [_number(c, "mass.coeffs")
              for c in _list(given.get("coeffs", []), "mass.coeffs")]
    unknown = sorted(set(given) - {"m0", "lambda", "coeffs"})
    if unknown:
        raise ConfigError(f"mass: unknown parameter(s) {unknown}")
    if kind not in _MASSES:
        raise ConfigError(f"mass.kind: unknown kind {kind!r}")
    unused = sorted(set(given) - set(_MASSES[kind]))
    if unused:
        raise ConfigError(f"mass.{unused[0]}: not used by kind {kind!r}")
    try:
        if kind == "constant":
            return constant_mass(m0)
        if kind == "exponential":
            if lam is None:
                raise ConfigError("mass.lambda: required for exponential mass")
            return expand_exponential(m0, lam, 0)
        if not coeffs:
            raise ConfigError("mass.coeffs: required for series mass")
        return mass_from_series(coeffs)
    except DomainError as exc:
        # the constructors check m0 before lambda
        field = "coeffs" if kind == "series" else "lambda" if m0 > 0 else "m0"
        raise ConfigError(f"mass.{field}: {exc}") from None


def _quantum(raw) -> QuantumBlock:
    q = _object(raw, "quantum")
    _reject_unknown(q, ("dim", "ell", "n"), "quantum")

    def integers(key):
        field = f"quantum.{key}"
        return tuple(_number(x, field, integer=True)
                     for x in _list(_require(q, key, "quantum"), field))

    dim = _number(_require(q, "dim", "quantum"), "quantum.dim", integer=True)
    ell, n = integers("ell"), integers("n")
    if dim < 1:
        raise ConfigError("quantum.dim: must be >= 1")
    if min(ell + n, default=0) < 0:
        raise ConfigError("quantum.ell / quantum.n: entries must be >= 0")
    return QuantumBlock(dim, ell, n)


def _solver(raw) -> SolverConfig:
    s = _object(raw, "solver")
    _reject_unknown(s, _SOLVER_FIELDS, "solver")

    def number(key, default, integer=False):
        # a missing field, or null where the default is null, takes the default
        value = s.get(key, default)
        if value is None and default is None:
            return None
        return _number(value, f"solver.{key}", integer)

    bracket = (_number(_require(s, "e_lo", "solver"), "solver.e_lo"),
               _number(_require(s, "e_hi", "solver"), "solver.e_hi"))
    settings = dict(
        truncation_order=number("truncation_order", 64, integer=True),
        tol_e=number("tol_e", SolverConfig.tol_e),
        max_iter=number("max_iter", 200, integer=True),
        match_radius=number("match_radius", None),
    )
    # accepted for older configs and ignored: the brackets come from the
    # collocation spectrum, not from a scan.  A value older versions refused
    # is still refused, so no config changes from invalid to valid.
    scan_steps = number("scan_steps", None, integer=True)
    run_oracle = _flag(s, "oracle", True, "solver")
    if scan_steps is not None and scan_steps < 10:
        raise ConfigError("solver.scan_steps: must be at least 10")
    try:
        return SolverConfig(e_bracket=bracket, run_oracle=run_oracle, **settings)
    except DomainError as exc:
        # SolverConfig's messages start with the offending field's name
        raise ConfigError(f"solver.{exc}") from None


def _wavefunction_grid(grid) -> dict | None:
    where = "output.wavefunction_grid"
    if grid is None:
        return None
    if not isinstance(grid, dict) or "r_max" not in grid or "points" not in grid:
        raise ConfigError(f"{where}: needs r_max and points")
    _reject_unknown(grid, ("r_max", "points"), where)
    if _number(grid["r_max"], f"{where}.r_max") <= 0:
        raise ConfigError(f"{where}.r_max: must be a positive number")
    if _number(grid["points"], f"{where}.points", integer=True) < 2:
        raise ConfigError(f"{where}.points: must be an integer of at least 2")
    return grid


def _output(raw) -> OutputBlock:
    o = _object(raw, "output")
    _reject_unknown(o, [f.name for f in fields(OutputBlock)], "output")
    formats = tuple(_list(o.get("formats", ["csv", "json"]), "output.formats"))
    for fmt in formats:
        if fmt not in ("csv", "json"):
            raise ConfigError(f"output.formats: unknown format {fmt!r}")
    directory = o.get("directory", "out")
    if not isinstance(directory, str):
        raise ConfigError("output.directory: must be a string")
    return OutputBlock(
        directory=directory,
        formats=formats,
        coefficients=_flag(o, "coefficients", False, "output"),
        wavefunction_grid=_wavefunction_grid(o.get("wavefunction_grid")),
    )


def parse_config(data: dict) -> RunConfig:
    """Check every block, in potential, mass, quantum, solver, output order,
    and build each model object once."""
    if not isinstance(data, dict):
        raise ConfigError("top level: config must be a JSON object")
    for name in ("potential", "mass", "quantum", "solver"):
        if name not in data:
            raise ConfigError(f"{name}: required block is missing")
    potential = _potential(data["potential"])
    mass = _mass(data["mass"])
    quantum = _quantum(data["quantum"])
    solver = _solver(data["solver"])
    try:
        mass = mass.extended(solver.truncation_order)
    except DomainError as exc:  # only an exponential series can fail
        raise ConfigError(f"mass.lambda: {exc}") from None
    output = _output(data.get("output", {}))
    return RunConfig(potential, mass, quantum, solver, output)


def load_config(path: str | Path) -> RunConfig:
    try:
        data = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON (line {exc.lineno}): {exc.msg}")
    return parse_config(data)


_RESULT_COLUMNS = ("energy", "nodes", "norm_const", "tail_residual", "oracle_gap")


@dataclass(frozen=True)
class StateRow:
    """One requested state: its result, or the message of its failure.  A
    solved state's message is the oracle's error, if any."""

    q: QuantumNumbers
    result: EigenResult | None = None
    message: str = ""

    @property
    def ok(self) -> bool:
        return self.result is not None

    def state(self) -> dict:
        return {"dim": self.q.dim_n, "ell": self.q.ell, "radial_n": self.q.radial_n}

    def record(self) -> dict:
        """The row of energies.json; energies.csv drops the message."""
        return {
            **self.state(),
            "k": self.q.k,
            # every result column of a failed row reads None
            **{c: getattr(self.result, c, None) for c in _RESULT_COLUMNS},
            "status": "ok" if self.ok else "error",
            "message": self.message,
        }


def _solve_channel(cfg: RunConfig, ell: int) -> dict[int, StateRow]:
    """Every requested radial state of one angular channel, bracketed by one
    collocation spectrum; a state that fails gets an error row naming the
    exception."""
    dim = cfg.quantum.dim
    spectrum = channel_spectrum(
        cfg.potential, cfg.mass, QuantumNumbers(dim, ell, 0), cfg.solver.e_bracket
    )
    states: dict[int, StateRow] = {}
    for n in dict.fromkeys(cfg.quantum.n):
        q = QuantumNumbers(dim, ell, n)
        try:
            result = find_eigenvalue(cfg.potential, cfg.mass, q, cfg.solver, spectrum)
        except (BracketError, WrongStateError, ConfigurationError, DomainError) as exc:
            states[n] = StateRow(q, message=f"{type(exc).__name__}: {exc}")
        else:
            states[n] = StateRow(q, result, result.oracle_error or "")
    return states


def solve_states(cfg: RunConfig) -> list[StateRow]:
    """Solve all (ell, n) rows requested by the config, in config order."""
    rows: list[StateRow] = []
    for ell in cfg.quantum.ell:
        try:
            channel = _solve_channel(cfg, ell)
        except (BracketError, ConfigurationError, DomainError) as exc:
            channel = {
                n: StateRow(QuantumNumbers(cfg.quantum.dim, ell, n),
                            message=f"channel failed: {exc}")
                for n in cfg.quantum.n
            }
        rows.extend(channel[n] for n in cfg.quantum.n)
    return rows


def _fmt_csv(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _write(outdir: Path, stem: str, formats, columns, lines, payload) -> None:
    """``stem``.csv, the ``columns`` header and one line per tuple of
    ``lines`` (read only for csv), and ``stem``.json from ``payload``, in
    the requested formats."""
    if "csv" in formats:
        text = [",".join(columns)]
        text.extend(",".join(_fmt_csv(v) for v in line) for line in lines)
        (outdir / f"{stem}.csv").write_text("\n".join(text) + "\n")
    if "json" in formats:
        (outdir / f"{stem}.json").write_text(json.dumps(payload, indent=2) + "\n")


_ENERGY_COLUMNS = ("dim", "ell", "radial_n", "k", *_RESULT_COLUMNS, "status")


def write_energies(rows: list[StateRow], outdir: Path, formats) -> None:
    records = [r.record() for r in rows]
    lines = ([rec[c] for c in _ENERGY_COLUMNS] for rec in records)
    _write(outdir, "energies", formats, _ENERGY_COLUMNS, lines, records)


def write_coefficients(rows: list[StateRow], outdir: Path, formats) -> None:
    ok = [(r.state(), r.result.solution.coeffs) for r in rows if r.ok]
    lines = ((*state.values(), i, a) for state, coeffs in ok
             for i, a in enumerate(coeffs))
    payload = [{**state, "coefficients": list(coeffs)} for state, coeffs in ok]
    _write(outdir, "coefficients", formats, ("dim", "ell", "radial_n", "i", "a_i"),
           lines, payload)


def write_wavefunctions(rows: list[StateRow], grid: dict, outdir: Path, formats) -> None:
    points = int(grid["points"])
    radii = np.linspace(0.0, float(grid["r_max"]), points)
    samples = []
    for res, state in ((r.result, r.state()) for r in rows if r.ok):
        wave = RadialWavefunction.from_solution(res.solution.scaled(res.norm_const))
        # radii ascend, so the trusted ones come first; the rest read None
        trusted = radii[radii <= wave.eval_cutoff]
        vals = evaluate(wave, trusted).tolist() + [None] * (points - trusted.size)
        samples.append((state, vals))
    lines = ((*state.values(), x, v) for state, vals in samples
             for x, v in zip(radii, vals) if v is not None)
    r = [float(x) for x in radii]
    payload = [{**state, "r": r, "R": vals} for state, vals in samples]
    _write(outdir, "wavefunctions", formats, ("dim", "ell", "radial_n", "r", "R"),
           lines, payload)


# subcommand -> the artifacts it writes
_ARTIFACTS = {"solve": ("energies",), "coefficients": ("coefficients",),
              "sample": ("wavefunctions",)}


def run_solve(config_path: str, artifacts: tuple = ("energies",)) -> int:
    """Solve per config and write the requested artifact files."""
    try:
        cfg = load_config(config_path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    outdir = Path(cfg.output.directory)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = solve_states(cfg)

    wanted = set(artifacts)
    if "energies" in wanted:
        write_energies(rows, outdir, cfg.output.formats)
        # the config's optional dumps come with the energies
        if cfg.output.coefficients:
            wanted.add("coefficients")
        if cfg.output.wavefunction_grid is not None:
            wanted.add("wavefunctions")
    if "coefficients" in wanted:
        write_coefficients(rows, outdir, cfg.output.formats)
    if "wavefunctions" in wanted:
        grid = cfg.output.wavefunction_grid or {"r_max": 10.0, "points": 201}
        write_wavefunctions(rows, grid, outdir, cfg.output.formats)

    failures = [r for r in rows if not r.ok]
    for r in failures:
        print(
            f"state dim={r.q.dim_n} ell={r.q.ell} n={r.q.radial_n} failed: {r.message}",
            file=sys.stderr,
        )
    return 1 if failures else 0


def run_verify(seed: int = DEFAULT_SEED) -> int:
    """Randomized closed-form identity report; nonzero exit on any failure."""
    results = run_identity_suite(seed)
    print(f"identity verification (seed={seed})")
    ok = True
    for r in results:
        verdict = "PASS" if r.passed else "FAIL"
        print(
            f"  {verdict}  {r.name:40s} max deviation {r.max_deviation:.3e} "
            f"(tolerance {r.tolerance:g}, {r.trials} trials)"
        )
        ok = ok and r.passed
    print("all identities passed" if ok else "IDENTITY FAILURE")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pdmradial",
        description="Bound states of the N-dimensional position-dependent-mass "
        "radial Schrodinger equation via series recurrences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("solve", help="solve energies per config").add_argument("config")
    sub.add_parser("verify", help="run the closed-form identity suite").add_argument(
        "--seed", type=int, default=DEFAULT_SEED)
    sub.add_parser("coefficients", help="dump series coefficients").add_argument("config")
    sub.add_parser("sample", help="dump wavefunction samples").add_argument("config")

    args = parser.parse_args(argv)
    if args.command == "verify":
        return run_verify(args.seed)
    return run_solve(args.config, _ARTIFACTS[args.command])


if __name__ == "__main__":
    raise SystemExit(main())
