"""The batched scan against brackets frozen before it was batched.

``tests/golden/scan_brackets.json`` holds every bracket and node label that
``scan_spectrum`` returned, one energy at a time, on both demo configs and
on the centre problems of the three benchmark workloads.  The batched scan
must give the same brackets, bit for bit, with the same labels.
"""

import json
import math
from pathlib import Path

import pytest

from pdmradial import cli
from pdmradial.eigensolver import scan_spectrum
from pdmradial.model import QuantumNumbers

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden" / "scan_brackets.json"


def _centre(potential, mass, quantum, solver):
    return {"potential": potential, "mass": mass, "quantum": quantum,
            "solver": solver,
            "output": {"directory": "unused", "formats": ["csv"]}}


V3 = -20.0  # oscillator offset at the centre (omega = m0 = 1)


def problems() -> dict:
    """Name -> parsed config of every frozen problem."""
    coulomb = {"kind": "coulomb", "z": 1.0}
    unit_mass = {"kind": "constant", "m0": 1.0}
    centres = {
        "coulomb_oracle": _centre(
            coulomb, unit_mass, {"dim": 3, "ell": [0, 1], "n": [0, 1, 2]},
            {"e_lo": -0.6, "e_hi": -0.027, "truncation_order": 64,
             "scan_steps": 160, "oracle": True}),
        "coulomb_oracle_dim2": _centre(
            coulomb, unit_mass, {"dim": 2, "ell": [0, 1], "n": [0, 1]},
            {"e_lo": -2.4, "e_hi": -0.06, "truncation_order": 64,
             "scan_steps": 160, "oracle": True}),
        "expmass_cornell": _centre(
            {"kind": "cornell", "a": 1.0, "b_lin": 0.2, "c": -3.0},
            {"kind": "exponential", "m0": 1.0, "lambda": 0.2},
            {"dim": 3, "ell": [0, 1], "n": [0, 1, 2]},
            {"e_lo": -3.4, "e_hi": -0.8, "truncation_order": 64,
             "scan_steps": 60, "oracle": True}),
        "oscillator_series": _centre(
            {"kind": "oscillator", "omega": 1.0, "v3_offset": V3}, unit_mass,
            {"dim": 3, "ell": [0, 1, 2], "n": [0, 1, 2]},
            {"e_lo": V3 + 0.5, "e_hi": V3 + 11.3, "truncation_order": 128,
             "scan_steps": 120, "oracle": False}),
    }
    out = {p.stem: cli.load_config(p) for p in sorted((ROOT / "configs").glob("*.json"))}
    out.update({name: cli.parse_config(c) for name, c in centres.items()})
    return out


def scan_all() -> dict:
    """Problem:ell -> [[e_a, e_b, label], ...] for every channel."""
    found = {}
    for name, cfg in problems().items():
        pot = cfg.potential.build()
        mass = cfg.mass.build(order=cfg.solver.truncation_order)
        sb = cfg.solver
        for ell in cfg.quantum.ell:
            brackets = scan_spectrum(
                pot, mass, QuantumNumbers(cfg.quantum.dim, ell, 0),
                (sb.e_lo, sb.e_hi), sb.scan_steps, sb.build(),
            )
            found[f"{name}:ell={ell}"] = [[ea, eb, n] for (ea, eb), n in brackets]
    return found


@pytest.fixture(scope="module")
def scanned():
    return scan_all()


def test_every_channel_is_frozen(scanned):
    assert sorted(scanned) == sorted(json.loads(GOLDEN.read_text()))


@pytest.mark.parametrize("channel", sorted(json.loads(GOLDEN.read_text())))
def test_brackets_and_labels_unchanged(scanned, channel):
    frozen = json.loads(GOLDEN.read_text())[channel]
    assert frozen, "every frozen channel holds at least one bracket"
    assert scanned[channel] == frozen
    for ea, eb, _ in frozen:
        assert math.isfinite(ea) and ea < eb < 0
