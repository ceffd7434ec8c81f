"""Config-driven command-line front end.

Subcommands:

* ``solve <config>``         energies table (+ optional dumps per config)
* ``verify [--seed S]``      randomized closed-form identity report
* ``coefficients <config>``  series-coefficient dump for every solved state
* ``sample <config>``        wavefunction samples on the configured grid

Configs are JSON files with ``potential``, ``mass``, ``quantum``, ``solver``
and ``output`` blocks; see configs/coulomb_demo.json.  Exit codes: 0 success,
1 solver failure or a state left out of the coefficient dump (partial
results are still written), 2 config error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .eigensolver import SolverConfig, solve
from .errors import DomainError
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
from .oracle import channel_spectra
from .recurrence import _series
from .tail import leg_values
from .wavefunction import evaluate

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

_SOLVER_FIELDS = ("e_lo", "e_hi", "truncation_order", "scan_steps", "oracle")


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
    """The mass profile, checked at the degree of P; parse_config checks its
    series at the truncation order once the solver block is read."""
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
            return MassProfile([m0])
        if kind == "exponential":
            if lam is None:
                raise ConfigError("mass.lambda: required for exponential mass")
            mass = MassProfile([m0], lam)  # refuses m0 <= 0 before lam < 0
            if not lam > 0:
                raise DomainError("exponential mass requires lam > 0")
            return mass
        if not coeffs:
            raise ConfigError("mass.coeffs: required for series mass")
        return MassProfile(coeffs)
    except DomainError as exc:
        # MassProfile checks m0 before lambda
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
    order = number("truncation_order", 64, integer=True)
    # accepted for older configs and ignored: the brackets come from the
    # collocation spectrum, not from a scan.  A value older versions refused
    # is still refused, so no config changes from invalid to valid.
    scan_steps = number("scan_steps", None, integer=True)
    run_oracle = _flag(s, "oracle", True, "solver")
    if scan_steps is not None and scan_steps < 10:
        raise ConfigError("solver.scan_steps: must be at least 10")
    try:
        return SolverConfig(bracket, truncation_order=order, run_oracle=run_oracle)
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
        mass.series(solver.truncation_order)
    except DomainError as exc:  # a constant mass never fails here
        field = "lambda" if mass.lam > 0 else "coeffs"
        raise ConfigError(f"mass.{field}: {exc}") from None
    output = _output(data.get("output", {}))
    return RunConfig(potential, mass, quantum, solver, output)


def load_config(path: str | Path) -> RunConfig:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except IsADirectoryError:
        raise ConfigError(f"config path is a directory: {path}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file is not UTF-8 (byte {exc.start}): {path}") from None
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

    def describe(self) -> str:
        return f"state dim={self.q.dim_n} ell={self.q.ell} n={self.q.radial_n}"

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


def _failed(q: QuantumNumbers, exc: Exception, prefix: str = "") -> StateRow:
    return StateRow(q, message=f"{prefix}{type(exc).__name__}: {exc}")


def solve_states(cfg: RunConfig) -> list[StateRow]:
    """Solve all (ell, n) rows requested by the config, in config order:
    every channel bracketed by its collocation spectrum, then every state of
    every channel in one ``solve``.  A state that fails gets an error row
    naming the exception, and a channel whose spectrum fails an error row
    for each of its states."""
    pot, mass, solver, dim = cfg.potential, cfg.mass, cfg.solver, cfg.quantum.dim
    ells, ns = list(dict.fromkeys(cfg.quantum.ell)), list(dict.fromkeys(cfg.quantum.n))
    spectra = channel_spectra(pot, mass, [QuantumNumbers(dim, ell, 0) for ell in ells],
                              solver.e_bracket)
    rows: dict[tuple[int, int], StateRow] = {}
    states = []
    for ell, spectrum in zip(ells, spectra):
        if isinstance(spectrum, Exception):
            for n in ns:
                rows[ell, n] = _failed(QuantumNumbers(dim, ell, n), spectrum,
                                       "channel failed: ")
            continue
        states += [(QuantumNumbers(dim, ell, n), spectrum) for n in ns]
    for (q, _), result in zip(states, solve(pot, mass, states, solver)):
        rows[q.ell, q.radial_n] = (_failed(q, result) if isinstance(result, Exception)
                                   else StateRow(q, result, result.oracle_error or ""))
    return [rows[ell, n] for ell in cfg.quantum.ell for n in cfg.quantum.n]


def _fmt_csv(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _json(obj, pad: str = "", seen: dict | None = None) -> str:
    """``json.dumps(obj, indent=2)`` for a tree of lists and str-keyed dicts.
    With an indent the standard library encodes in Python; here each list or
    dict that holds no container is one call of its C encoder, with the
    newline and indent in the item separator, and a list object met again
    at the same depth reuses its text (every state's samples share one r)."""
    if not isinstance(obj, (list, dict)) or not obj:
        return json.dumps(obj)
    seen = {} if seen is None else seen
    key, inner, is_dict = (id(obj), pad), pad + "  ", isinstance(obj, dict)
    if key not in seen:
        values = obj.values() if is_dict else obj
        if any(isinstance(v, (list, dict)) for v in values):
            items = ([f"{json.dumps(k)}: {_json(v, inner, seen)}" for k, v in obj.items()]
                     if is_dict else [_json(v, inner, seen) for v in obj])
            body = (",\n" + inner).join(items)
        else:
            body = json.dumps(obj, separators=(",\n" + inner, ": "))[1:-1]
        left, right = "{}" if is_dict else "[]"
        seen[key] = f"{left}\n{inner}{body}\n{pad}{right}"
    return seen[key]


def _write(outdir: Path, stem: str, formats, columns, lines, payload) -> None:
    """``stem``.csv, the ``columns`` header and the text ``lines`` (read
    only for csv), and ``stem``.json from ``payload``, in the requested
    formats."""
    if "csv" in formats:
        text = "\n".join([",".join(columns), *lines]) + "\n"
        (outdir / f"{stem}.csv").write_text(text)
    if "json" in formats:
        (outdir / f"{stem}.json").write_text(_json(payload) + "\n")


_ENERGY_COLUMNS = ("dim", "ell", "radial_n", "k", *_RESULT_COLUMNS, "status")


def write_energies(rows: list[StateRow], outdir: Path, formats) -> None:
    records = [r.record() for r in rows]
    lines = (",".join(_fmt_csv(rec[c]) for c in _ENERGY_COLUMNS) for rec in records)
    _write(outdir, "energies", formats, _ENERGY_COLUMNS, lines, records)


def _block(state: dict, cells, values) -> str:
    """A state's CSV lines: its leading cells, dim,ell,radial_n, before each
    of the ``cells``, whose %.12g slots take the ``values``."""
    pre = "".join(f"{v}," for v in state.values())
    return (pre + ("\n" + pre).join(cells)) % tuple(values)


def write_coefficients(rows: list[StateRow], cfg: RunConfig, outdir: Path) -> list[str]:
    """Each solved state's coefficients a_0 .. a_order in r, order the
    config's truncation order, regenerated at its energy in the x of its
    series (which stopped where its terms at r_match were negligible); a
    state with an a_i out of the float range is left out, and a message
    for it returned."""
    ok, refused = [], []
    order = cfg.solver.truncation_order
    for row in (r for r in rows if r.ok):
        x_exp = row.result.solution.x_exp
        sol = _series(cfg.potential, cfg.mass, row.q, row.result.energy, order, x_exp)
        with np.errstate(over="ignore"):  # refused below
            a = np.ldexp(sol.coeffs, -x_exp * np.arange(sol.coeffs.size))
        bad = np.flatnonzero(~np.isfinite(a))
        if bad.size:
            refused.append(f"{row.describe()} coefficients leave the float range "
                           f"at a_{bad[0]} (truncation_order {order})")
        else:
            ok.append((row.state(), a.tolist()))
    cells = [f"{i},%.12g" for i in range(max((len(c) for _, c in ok), default=0))]
    lines = (_block(s, cells[: len(c)], c) for s, c in ok)
    payload = [{**state, "coefficients": coeffs} for state, coeffs in ok]
    _write(outdir, "coefficients", cfg.output.formats,
           ("dim", "ell", "radial_n", "i", "a_i"), lines, payload)
    return refused


def write_wavefunctions(rows: list[StateRow], grid: dict, outdir: Path, formats) -> None:
    """Each solved state's normalized eigenfunction (``EigenResult``): the
    series on r <= r_match and the inward leg beyond, each in one pass for
    every state."""
    radii = np.linspace(0.0, float(grid["r_max"]), int(grid["points"]))
    solved = [(r.result, r.state()) for r in rows if r.ok]
    far = leg_values([(res.inward, radii[radii > res.inward.edges[0]])
                      for res, _ in solved])
    near = evaluate([(res.solution.scaled(res.norm_const), radii[radii <= res.inward.edges[0]])
                     for res, _ in solved])
    samples = [(state, np.concatenate((v, res.norm_const * res.p_sigma * beyond)).tolist())
               for (res, state), v, beyond in zip(solved, near, far)]
    r = radii.tolist()
    cells = [f"{x:.12g},%.12g" for x in r]
    lines = (_block(s, cells, v) for s, v in samples)
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
        outdir = Path(cfg.output.directory)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as exc:  # a file is in the way
            raise ConfigError(f"output.directory: cannot make {str(outdir)!r}: "
                              f"{exc.strerror}") from None
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    rows = solve_states(cfg)

    wanted = set(artifacts)
    if "energies" in wanted:
        write_energies(rows, outdir, cfg.output.formats)
        # the config's optional dumps come with the energies
        if cfg.output.coefficients:
            wanted.add("coefficients")
        if cfg.output.wavefunction_grid is not None:
            wanted.add("wavefunctions")
    refused = []
    if "coefficients" in wanted:
        refused = write_coefficients(rows, cfg, outdir)
    if "wavefunctions" in wanted:
        grid = cfg.output.wavefunction_grid or {"r_max": 10.0, "points": 201}
        write_wavefunctions(rows, grid, outdir, cfg.output.formats)

    failures = [f"{r.describe()} failed: {r.message}" for r in rows if not r.ok]
    for line in failures + refused:
        print(line, file=sys.stderr)
    return 1 if failures or refused else 0


def run_verify(seed: int | None = None) -> int:
    """Randomized closed-form identity report, with the suite's default
    seed when ``seed`` is None; nonzero exit on any failure.  The suite is
    imported here: no other subcommand loads it."""
    from .identities import DEFAULT_SEED, run_identity_suite

    seed = DEFAULT_SEED if seed is None else seed
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
        "--seed", type=int, default=None)
    sub.add_parser("coefficients", help="dump series coefficients").add_argument("config")
    sub.add_parser("sample", help="dump wavefunction samples").add_argument("config")

    args = parser.parse_args(argv)
    if args.command == "verify":
        return run_verify(args.seed)
    return run_solve(args.config, _ARTIFACTS[args.command])


if __name__ == "__main__":
    raise SystemExit(main())
