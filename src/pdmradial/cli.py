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
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .eigensolver import SolverConfig, find_eigenvalue
from .errors import BracketError, ConfigurationError, DomainError, WrongStateError
from .identities import DEFAULT_SEED, run_identity_suite
from .mass_expansion import constant_mass, expand_exponential, mass_from_series
from .model import (
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


@dataclass(frozen=True)
class PotentialBlock:
    kind: str
    params: dict

    def build(self) -> PotentialSpec:
        p = dict(self.params)
        offset = _number(p.pop("v3_offset", 0.0), "potential.v3_offset")
        if self.kind not in _POTENTIALS:
            raise ConfigError(f"potential.kind: unknown kind {self.kind!r}")
        make, names, checked = _POTENTIALS[self.kind]
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
            raise ConfigError(
                f"potential: unknown parameter(s) {sorted(p)} for kind {self.kind!r}"
            )
        if offset:
            pot = replace(pot, v3=pot.v3 + offset)
        return pot


@dataclass(frozen=True)
class MassBlock:
    kind: str
    m0: float = 1.0
    lam: float | None = None
    coeffs: tuple = ()

    def build(self, order: int) -> MassProfile:
        try:
            if self.kind == "constant":
                return constant_mass(self.m0, order)
            if self.kind == "exponential":
                if self.lam is None:
                    raise ConfigError("mass.lambda: required for exponential mass")
                return expand_exponential(self.m0, self.lam, order)
            if self.kind == "series":
                if not self.coeffs:
                    raise ConfigError("mass.coeffs: required for series mass")
                return mass_from_series(list(self.coeffs))
        except DomainError as exc:
            # the constructors check m0 before lambda
            field = ("coeffs" if self.kind == "series"
                     else "lambda" if self.m0 > 0 else "m0")
            raise ConfigError(f"mass.{field}: {exc}") from None
        raise ConfigError(f"mass.kind: unknown kind {self.kind!r}")


@dataclass(frozen=True)
class QuantumBlock:
    dim: int
    ell: tuple
    n: tuple


@dataclass(frozen=True)
class SolverBlock:
    e_lo: float
    e_hi: float
    truncation_order: int = 64
    tol_e: float = 1e-10
    max_iter: int = 200
    match_radius: float | None = None
    # accepted for older configs and ignored: the brackets come from the
    # collocation spectrum, not from a scan.  A value older versions refused
    # is still refused, so no config changes from invalid to valid.
    scan_steps: int | None = None
    oracle: bool = True

    def build(self) -> SolverConfig:
        if self.scan_steps is not None and self.scan_steps < 10:
            raise ConfigError("solver.scan_steps: must be at least 10")
        try:
            return SolverConfig(
                e_bracket=(self.e_lo, self.e_hi),
                match_radius=self.match_radius,
                truncation_order=self.truncation_order,
                tol_e=self.tol_e,
                max_iter=self.max_iter,
                run_oracle=self.oracle,
            )
        except DomainError as exc:
            # SolverConfig's messages start with the offending field's name
            raise ConfigError(f"solver.{exc}") from None


@dataclass(frozen=True)
class OutputBlock:
    directory: str = "out"
    formats: tuple = ("csv", "json")
    coefficients: bool = False
    wavefunction_grid: dict | None = None


@dataclass(frozen=True)
class RunConfig:
    potential: PotentialBlock
    mass: MassBlock
    quantum: QuantumBlock
    solver: SolverBlock
    output: OutputBlock

    def to_dict(self) -> dict:
        d = asdict(self)
        d["potential"] = {"kind": self.potential.kind, **self.potential.params}
        mass = {"kind": self.mass.kind, "m0": self.mass.m0}
        if self.mass.lam is not None:
            mass["lambda"] = self.mass.lam
        if self.mass.coeffs:
            mass["coeffs"] = list(self.mass.coeffs)
        d["mass"] = mass
        d["quantum"] = {
            "dim": self.quantum.dim,
            "ell": list(self.quantum.ell),
            "n": list(self.quantum.n),
        }
        d["output"] = {
            "directory": self.output.directory,
            "formats": list(self.output.formats),
            "coefficients": self.output.coefficients,
        }
        if self.output.wavefunction_grid is not None:
            d["output"]["wavefunction_grid"] = dict(self.output.wavefunction_grid)
        return d


def _reject_unknown(raw: dict, block: type, where: str) -> None:
    unknown = sorted(set(raw) - {f.name for f in fields(block)})
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


def _wavefunction_grid(grid) -> dict | None:
    where = "output.wavefunction_grid"
    if grid is None:
        return None
    if not isinstance(grid, dict) or "r_max" not in grid or "points" not in grid:
        raise ConfigError(f"{where}: needs r_max and points")
    if _number(grid["r_max"], f"{where}.r_max") <= 0:
        raise ConfigError(f"{where}.r_max: must be a positive number")
    if _number(grid["points"], f"{where}.points", integer=True) < 2:
        raise ConfigError(f"{where}.points: must be an integer of at least 2")
    return grid


def parse_config(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("top level: config must be a JSON object")
    for name in ("potential", "mass", "quantum", "solver"):
        if name not in data:
            raise ConfigError(f"{name}: required block is missing")

    pot_raw = _object(data["potential"], "potential")
    kind = pot_raw.pop("kind", None)
    if kind is None:
        raise ConfigError("potential.kind: required field is missing")
    potential = PotentialBlock(kind=str(kind), params=pot_raw)
    potential.build()  # validate eagerly

    mass_raw = _object(data["mass"], "mass")
    mkind = str(mass_raw.pop("kind", "constant"))
    mass = MassBlock(
        kind=mkind,
        m0=_number(mass_raw.pop("m0", 1.0), "mass.m0"),
        lam=(_number(mass_raw.pop("lambda"), "mass.lambda")
             if "lambda" in mass_raw else None),
        coeffs=tuple(_number(c, "mass.coeffs")
                     for c in _list(mass_raw.pop("coeffs", []), "mass.coeffs")),
    )
    if mass_raw:
        raise ConfigError(f"mass: unknown parameter(s) {sorted(mass_raw)}")
    mass.build(order=8)  # validate eagerly

    q_raw = _object(data["quantum"], "quantum")
    _reject_unknown(q_raw, QuantumBlock, "quantum")

    def integers(key):
        field = f"quantum.{key}"
        return tuple(_number(x, field, integer=True)
                     for x in _list(_require(q_raw, key, "quantum"), field))

    quantum = QuantumBlock(
        dim=_number(_require(q_raw, "dim", "quantum"), "quantum.dim", integer=True),
        ell=integers("ell"),
        n=integers("n"),
    )
    if quantum.dim < 1:
        raise ConfigError("quantum.dim: must be >= 1")
    if any(l < 0 for l in quantum.ell) or any(n < 0 for n in quantum.n):
        raise ConfigError("quantum.ell / quantum.n: entries must be >= 0")

    s_raw = _object(data["solver"], "solver")
    _reject_unknown(s_raw, SolverBlock, "solver")

    def number(key, default, integer=False):
        # a missing field, or null where the default is null, takes the default
        value = s_raw.get(key, default)
        if value is None and default is None:
            return None
        return _number(value, f"solver.{key}", integer)

    solver = SolverBlock(
        e_lo=_number(_require(s_raw, "e_lo", "solver"), "solver.e_lo"),
        e_hi=_number(_require(s_raw, "e_hi", "solver"), "solver.e_hi"),
        truncation_order=number("truncation_order", 64, integer=True),
        tol_e=number("tol_e", 1e-10),
        max_iter=number("max_iter", 200, integer=True),
        match_radius=number("match_radius", None),
        scan_steps=number("scan_steps", None, integer=True),
        oracle=_flag(s_raw, "oracle", True, "solver"),
    )
    solver.build()  # validate eagerly

    o_raw = _object(data.get("output", {}), "output")
    _reject_unknown(o_raw, OutputBlock, "output")
    formats = tuple(_list(o_raw.get("formats", ["csv", "json"]), "output.formats"))
    for fmt in formats:
        if fmt not in ("csv", "json"):
            raise ConfigError(f"output.formats: unknown format {fmt!r}")
    directory = o_raw.get("directory", "out")
    if not isinstance(directory, str):
        raise ConfigError("output.directory: must be a string")
    output = OutputBlock(
        directory=directory,
        formats=formats,
        coefficients=_flag(o_raw, "coefficients", False, "output"),
        wavefunction_grid=_wavefunction_grid(o_raw.get("wavefunction_grid")),
    )

    return RunConfig(potential, mass, quantum, solver, output)


def load_config(path: str | Path) -> RunConfig:
    try:
        data = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON (line {exc.lineno}): {exc.msg}")
    return parse_config(data)


@dataclass
class StateRow:
    dim: int
    ell: int
    radial_n: int
    k: int
    energy: float | None = None
    nodes: int | None = None
    norm_const: float | None = None
    tail_residual: float | None = None
    oracle_gap: float | None = None
    status: str = "ok"
    message: str = ""
    solution: object = None


def _solve_channel(pot, mass, cfg: RunConfig, ell: int) -> dict[int, StateRow]:
    """Every requested radial state of one angular channel, bracketed by one
    collocation spectrum; a state that fails gets an error row naming the
    exception."""
    sb = cfg.solver
    base = sb.build()
    dim = cfg.quantum.dim
    spectrum = channel_spectrum(
        pot, mass, QuantumNumbers(dim, ell, 0), (sb.e_lo, sb.e_hi)
    )
    states: dict[int, StateRow] = {}
    for n in dict.fromkeys(cfg.quantum.n):
        q = QuantumNumbers(dim, ell, n)
        row = StateRow(dim=dim, ell=ell, radial_n=n, k=q.k)
        try:
            result = find_eigenvalue(pot, mass, q, base, spectrum)
        except (BracketError, WrongStateError, ConfigurationError, DomainError) as exc:
            row.status, row.message = "error", f"{type(exc).__name__}: {exc}"
        else:
            row.energy = result.energy
            row.nodes = result.nodes
            row.norm_const = result.norm_const
            row.tail_residual = result.tail_residual
            row.oracle_gap = result.oracle_gap
            row.message = result.oracle_error or ""
            row.solution = result.solution
        states[n] = row
    return states


def solve_states(cfg: RunConfig) -> list[StateRow]:
    """Solve all (ell, n) rows requested by the config, in config order."""
    pot = cfg.potential.build()
    mass = cfg.mass.build(order=cfg.solver.truncation_order)
    rows: list[StateRow] = []
    for ell in cfg.quantum.ell:
        try:
            channel = _solve_channel(pot, mass, cfg, ell)
        except (BracketError, ConfigurationError, DomainError) as exc:
            channel = {
                n: StateRow(
                    dim=cfg.quantum.dim,
                    ell=ell,
                    radial_n=n,
                    k=cfg.quantum.dim + 2 * ell,
                    status="error",
                    message=f"channel failed: {exc}",
                )
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


_ENERGY_COLUMNS = (
    "dim,ell,radial_n,k,energy,nodes,norm_const,tail_residual,oracle_gap,status"
)


def write_energies(rows: list[StateRow], outdir: Path, formats) -> None:
    if "csv" in formats:
        lines = [_ENERGY_COLUMNS]
        for r in rows:
            lines.append(
                ",".join(
                    _fmt_csv(v)
                    for v in (
                        r.dim, r.ell, r.radial_n, r.k, r.energy, r.nodes,
                        r.norm_const, r.tail_residual, r.oracle_gap, r.status,
                    )
                )
            )
        (outdir / "energies.csv").write_text("\n".join(lines) + "\n")
    if "json" in formats:
        payload = [
            {
                "dim": r.dim,
                "ell": r.ell,
                "radial_n": r.radial_n,
                "k": r.k,
                "energy": r.energy,
                "nodes": r.nodes,
                "norm_const": r.norm_const,
                "tail_residual": r.tail_residual,
                "oracle_gap": r.oracle_gap,
                "status": r.status,
                "message": r.message,
            }
            for r in rows
        ]
        (outdir / "energies.json").write_text(json.dumps(payload, indent=2) + "\n")


def write_coefficients(rows: list[StateRow], outdir: Path, formats) -> None:
    ok = [r for r in rows if r.status == "ok"]
    if "csv" in formats:
        lines = ["dim,ell,radial_n,i,a_i"]
        for r in ok:
            for i, a in enumerate(r.solution.coeffs):
                lines.append(f"{r.dim},{r.ell},{r.radial_n},{i},{a:.12g}")
        (outdir / "coefficients.csv").write_text("\n".join(lines) + "\n")
    if "json" in formats:
        payload = [
            {
                "dim": r.dim,
                "ell": r.ell,
                "radial_n": r.radial_n,
                "coefficients": list(r.solution.coeffs),
            }
            for r in ok
        ]
        (outdir / "coefficients.json").write_text(json.dumps(payload, indent=2) + "\n")


def write_wavefunctions(
    rows: list[StateRow], grid: dict, outdir: Path, formats
) -> None:
    r_max = float(grid["r_max"])
    points = int(grid["points"])
    radii = np.linspace(0.0, r_max, points)
    ok = [r for r in rows if r.status == "ok"]
    samples = []
    for row in ok:
        wave = RadialWavefunction.from_solution(row.solution.scaled(row.norm_const))
        # radii ascend, so the trusted ones come first; the rest read None
        trusted = radii[radii <= wave.eval_cutoff]
        vals = evaluate(wave, trusted).tolist() + [None] * (points - trusted.size)
        samples.append((row, vals))
    if "csv" in formats:
        lines = ["dim,ell,radial_n,r,R"]
        for row, vals in samples:
            for x, v in zip(radii, vals):
                if v is None:
                    continue
                lines.append(
                    f"{row.dim},{row.ell},{row.radial_n},{x:.12g},{v:.12g}"
                )
        (outdir / "wavefunctions.csv").write_text("\n".join(lines) + "\n")
    if "json" in formats:
        payload = [
            {
                "dim": row.dim,
                "ell": row.ell,
                "radial_n": row.radial_n,
                "r": [float(x) for x in radii],
                "R": vals,
            }
            for row, vals in samples
        ]
        (outdir / "wavefunctions.json").write_text(
            json.dumps(payload, indent=2) + "\n"
        )


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
    if "coefficients" in wanted or (
        "energies" in wanted and cfg.output.coefficients
    ):
        write_coefficients(rows, outdir, cfg.output.formats)
    if "wavefunctions" in wanted or (
        "energies" in wanted and cfg.output.wavefunction_grid is not None
    ):
        grid = cfg.output.wavefunction_grid or {"r_max": 10.0, "points": 201}
        write_wavefunctions(rows, grid, outdir, cfg.output.formats)

    failures = [r for r in rows if r.status != "ok"]
    for r in failures:
        print(
            f"state dim={r.dim} ell={r.ell} n={r.radial_n} failed: {r.message}",
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

    p_solve = sub.add_parser("solve", help="solve energies per config")
    p_solve.add_argument("config")

    p_verify = sub.add_parser("verify", help="run the closed-form identity suite")
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p_coeff = sub.add_parser("coefficients", help="dump series coefficients")
    p_coeff.add_argument("config")

    p_sample = sub.add_parser("sample", help="dump wavefunction samples")
    p_sample.add_argument("config")

    args = parser.parse_args(argv)
    if args.command == "solve":
        return run_solve(args.config)
    if args.command == "verify":
        return run_verify(args.seed)
    if args.command == "coefficients":
        return run_solve(args.config, artifacts=("coefficients",))
    if args.command == "sample":
        return run_solve(args.config, artifacts=("wavefunctions",))
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
