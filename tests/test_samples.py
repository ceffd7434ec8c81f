"""Wavefunction samples, as the command line writes them, against
references computed without the series: the closed forms of the Coulomb
and oscillator demos, and frozen DOP853 samples of the exp-mass Cornell
problem (``expmass_dop853_samples.json``, which says how they were made)."""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from pdmradial import cli
from pdmradial.errors import ExtrapolationWarning

from test_cli import DEMO_CONFIG, EXPMASS_CONFIG, OSCILLATOR_CONFIG, write_config
from test_eigensolver import BENCHMARK_CENTRES

EXPMASS_REFERENCE = json.loads(
    (Path(__file__).parent / "expmass_dop853_samples.json").read_text())["R"]


def _laguerre(n, alpha, x):
    """The generalized Laguerre polynomial L_n^(alpha) at x, by its
    three-term recurrence."""
    prev, cur = np.zeros_like(x), np.ones_like(x)
    for j in range(n):
        prev, cur = cur, ((2 * j + 1 + alpha - x) * cur - (j + alpha) * prev) / (j + 1)
    return cur


def coulomb_closed_form(dim, ell, n, r):
    """Normalized R of the Coulomb problem with z = m0 = 1:
    N rho^((k-1)/2) e^(-rho/2) L_n^(k-2)(rho), rho = 2 b r."""
    k = dim + 2 * ell
    b = 1.0 / (n + (k - 1) / 2.0)
    rho = 2.0 * b * r
    n2 = 2.0 * b * math.exp(math.lgamma(n + 1) - math.lgamma(n + k - 1)) / (2 * n + k - 1)
    return math.sqrt(n2) * rho ** ((k - 1) / 2.0) * np.exp(-rho / 2.0) * _laguerre(
        n, k - 2, rho)


def oscillator_closed_form(dim, ell, n, r):
    """Normalized R of V = r^2 - 20 with m0 = 1, beta = sqrt(2):
    N r^((k-1)/2) e^(-beta r^2 / 2) L_n^(k/2-1)(beta r^2)."""
    k = dim + 2 * ell
    beta = math.sqrt(2.0)
    n2 = 2.0 * beta ** (k / 2.0) * math.exp(math.lgamma(n + 1) - math.lgamma(n + k / 2.0))
    x = beta * r * r
    return math.sqrt(n2) * r ** ((k - 1) / 2.0) * np.exp(-x / 2.0) * _laguerre(
        n, k / 2.0 - 1.0, x)


def _samples(tmp_path, data, command="sample"):
    """The wavefunctions.json that ``command`` writes for a config dict."""
    data = {**data, "output": {**data["output"], "directory": str(tmp_path / "out")}}
    assert cli.main([command, str(write_config(tmp_path, data))]) == 0
    return json.loads((tmp_path / "out" / "wavefunctions.json").read_text())


def _worst(waves, reference):
    """The largest |R - reference| over each state's grid, relative to the
    reference's max |R|, by state."""
    worst = {}
    for w in waves:
        ref = reference(w["dim"], w["ell"], w["radial_n"], np.array(w["r"]))
        worst[w["ell"], w["radial_n"]] = float(
            np.max(np.abs(np.array(w["R"]) - ref)) / np.max(np.abs(ref)))
    return worst


def test_coulomb_cli_grid_against_the_closed_form(tmp_path):
    # the demo on the sample command's default grid, 201 points to r = 10
    waves = _samples(tmp_path, json.loads(DEMO_CONFIG.read_text()))
    assert [w["r"] for w in waves] == [np.linspace(0.0, 10.0, 201).tolist()] * 3
    worst = _worst(waves, coulomb_closed_form)
    assert max(worst.values()) < 1e-9, worst


def test_oscillator_demo_against_the_closed_form(tmp_path):
    waves = _samples(tmp_path, json.loads(OSCILLATOR_CONFIG.read_text()), "solve")
    worst = _worst(waves, oscillator_closed_form)
    assert len(worst) == 9 and max(worst.values()) < 1e-9, worst


@pytest.mark.parametrize("data", [json.loads(EXPMASS_CONFIG.read_text()),
                                  BENCHMARK_CENTRES["expmass_cornell"][0]],
                         ids=["demo", "centre"])
def test_expmass_against_dop853(tmp_path, data):
    # the samples past r_match come from the inward leg; those of the
    # truncated series were up to 4.6e-4 of max |R| off on the demo
    waves = _samples(tmp_path, data)
    assert [w["r"] for w in waves] == [np.linspace(0.0, 10.0, 201).tolist()] * len(waves)
    worst = _worst(waves, lambda dim, ell, n, r: np.array(EXPMASS_REFERENCE[f"{ell},{n}"]))
    assert max(worst.values()) < 1e-9, worst


def test_expmass_centre_has_the_reference_sign_near_its_far_end(tmp_path):
    # l = 1, n = 2 at r = 9.65: the truncated series read -2.63 there
    waves = _samples(tmp_path, BENCHMARK_CENTRES["expmass_cornell"][0])
    (wave,) = [w for w in waves if (w["ell"], w["radial_n"]) == (1, 2)]
    i = wave["r"].index(9.65)
    reference = EXPMASS_REFERENCE["1,2"][i]
    assert reference > 0.2 and math.copysign(1.0, wave["R"][i]) == 1.0


@pytest.mark.parametrize("config", sorted(DEMO_CONFIG.parent.glob("*.json")),
                         ids=lambda p: p.stem)
def test_every_demo_solves_and_samples_without_extrapolating(tmp_path, config):
    # no ExtrapolationWarning from any command, and every sample a number
    data = json.loads(config.read_text())
    data["output"]["directory"] = str(tmp_path / "out")
    path = str(write_config(tmp_path, data))
    with warnings.catch_warnings():
        warnings.simplefilter("error", ExtrapolationWarning)
        for command in ("solve", "coefficients", "sample"):
            assert cli.main([command, path]) == 0
    waves = json.loads((tmp_path / "out" / "wavefunctions.json").read_text())
    assert waves and not any(None in w["R"] for w in waves)
