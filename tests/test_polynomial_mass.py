"""A polynomial mass m = P(r) solves its own equation: m'/m = P'/P is exact
at every radius and to every order of its series, so the levels match an
independent shooting solve and do not depend on how P is written."""

import json
from pathlib import Path

import pytest

from pdmradial.cli import main, run_solve
from pdmradial.eigensolver import SolverConfig, find_eigenvalue
from pdmradial.model import MassProfile, QuantumNumbers, make_cornell

REPO = Path(__file__).resolve().parent.parent
CONFIG = REPO / "configs" / "polynomial_mass_demo.json"
GOLDEN = REPO / "tests" / "golden" / "polynomial_mass_energies"
COEFFICIENTS = REPO / "tests" / "golden" / "polynomial_mass_coefficients"

# problem -> (Cornell c, P, window); Cornell a = 1, b = 0.2, N = 3, l = 0
PROBLEMS = {
    "A": (-3.0, [1.0, 0.1], (-3.6, -1.0)),
    "B": (-2.0, [1.0, 0.2, 0.01], (-2.6, -1.0)),
}
# levels n = 0, 1 of each problem from a DOP853 shooting solve (scipy
# solve_ivp at rtol 3e-14, brentq) of R'' = G R' + F R with the exact
# G = P'/P, a two-term Frobenius start and the WKB decay at the outer end;
# moving the match radius in by 20% and the outer end from a WKB exponent
# of 20 to 26 moves each level by at most 3e-16 relative
POLYMASS_REFERENCE = {
    "A": (-3.3192152889808972, -2.464465326227208),
    "B": (-2.396754601037625, -1.5386890020611514),
}


def _level(problem, n, poly=None):
    c, given, window = PROBLEMS[problem]
    return find_eigenvalue(make_cornell(1.0, 0.2, c), MassProfile(poly or given),
                           QuantumNumbers(3, 0, n),
                           SolverConfig(e_bracket=window, run_oracle=True))


@pytest.mark.parametrize("problem", ["A", "B"])
@pytest.mark.parametrize("n", [0, 1])
def test_levels_match_the_shooting_reference(problem, n):
    # with m'/m kept to the degree of P only, the ground states missed by
    # 1.7e-3 (A) and 5.7e-4 (B), and the oracle agreed with the wrong level
    res = _level(problem, n)
    assert res.nodes == n
    assert abs(res.energy / POLYMASS_REFERENCE[problem][n] - 1.0) < 1e-11
    assert res.oracle_gap < 1e-11 * abs(res.energy)


@pytest.mark.parametrize("problem", ["A", "B"])
def test_zero_padding_changes_no_energy_bit(problem):
    _, given, _ = PROBLEMS[problem]
    for n in (0, 1):
        assert _level(problem, n, given + [0.0] * 40).energy == _level(problem, n).energy


def test_demo_golden_energies_match_the_reference():
    rows = json.loads(GOLDEN.with_suffix(".json").read_text())
    assert [r["status"] for r in rows] == ["ok", "ok"]
    for row, ref in zip(rows, POLYMASS_REFERENCE["B"]):
        assert abs(row["energy"] / ref - 1.0) < 1e-11


def _demo_config(tmp_path):
    """The demo config, writing into tmp_path / "out"."""
    data = json.loads(CONFIG.read_text())
    data["output"]["directory"] = str(tmp_path / "out")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    return str(config)


def test_demo_reproduces_its_golden_files(tmp_path):
    assert run_solve(_demo_config(tmp_path)) == 0
    for suffix in (".csv", ".json"):
        got = (tmp_path / "out" / f"energies{suffix}").read_bytes()
        assert got == GOLDEN.with_suffix(suffix).read_bytes(), suffix


@pytest.mark.parametrize("suffix", [".csv", ".json"])
def test_demo_coefficients_match_their_golden_files(tmp_path, suffix):
    # the only demo whose m'/m series runs to full order, so the recurrence's
    # M' and T tables sum as many terms as the series has
    assert main(["coefficients", _demo_config(tmp_path)]) == 0
    got = (tmp_path / "out" / f"coefficients{suffix}").read_bytes()
    assert got == COEFFICIENTS.with_suffix(suffix).read_bytes()
