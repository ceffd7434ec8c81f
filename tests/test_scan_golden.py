"""The collocation cells against the brackets of the retired energy scan.

``tests/golden/scan_brackets.json`` holds every bracket and node label that
the series-mismatch scan, since replaced by the collocation cells, found on
both demo configs and on the centre problems of the three benchmark
workloads.  Each frozen bracket holds one sign change of the series
mismatch, labelled by the node count of its midpoint.  The channel's
collocation spectrum must label the same states: level n lies in the frozen
bracket labelled n, and the window holds as many levels as there are
frozen brackets.  The cell of each requested state must hold exactly one
level and one sign change of the mismatch.
"""

import json
import math
from pathlib import Path

import pytest

import numpy as np

import pdmradial.eigensolver as es_mod
from pdmradial import cli
from pdmradial.eigensolver import _build_geometry, _mismatch, find_eigenvalue
from pdmradial.model import QuantumNumbers
from pdmradial.oracle import channel_spectrum

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
            {"e_lo": -0.6, "e_hi": -0.027, "truncation_order": 64, "oracle": True}),
        "coulomb_oracle_dim2": _centre(
            coulomb, unit_mass, {"dim": 2, "ell": [0, 1], "n": [0, 1]},
            {"e_lo": -2.4, "e_hi": -0.06, "truncation_order": 64, "oracle": True}),
        "expmass_cornell": _centre(
            {"kind": "cornell", "a": 1.0, "b_lin": 0.2, "c": -3.0},
            {"kind": "exponential", "m0": 1.0, "lambda": 0.2},
            {"dim": 3, "ell": [0, 1], "n": [0, 1, 2]},
            {"e_lo": -3.4, "e_hi": -0.8, "truncation_order": 64, "oracle": True}),
        "oscillator_series": _centre(
            {"kind": "oscillator", "omega": 1.0, "v3_offset": V3}, unit_mass,
            {"dim": 3, "ell": [0, 1, 2], "n": [0, 1, 2]},
            {"e_lo": V3 + 0.5, "e_hi": V3 + 11.3, "truncation_order": 128,
             "oracle": False}),
    }
    out = {p.stem: cli.load_config(p) for p in sorted((ROOT / "configs").glob("*.json"))}
    out.update({name: cli.parse_config(c) for name, c in centres.items()})
    return out


def spectra() -> dict:
    """Problem:ell -> (parsed config, ell, the channel's collocation spectrum)."""
    out = {}
    for name, cfg in problems().items():
        for ell in cfg.quantum.ell:
            out[f"{name}:ell={ell}"] = (cfg, ell, channel_spectrum(
                cfg.potential, cfg.mass, QuantumNumbers(cfg.quantum.dim, ell, 0),
                cfg.solver.e_bracket,
            ))
    return out


@pytest.fixture(scope="module")
def solved():
    return spectra()


FROZEN = json.loads(GOLDEN.read_text())


def test_every_channel_is_frozen(solved):
    assert sorted(solved) == sorted(FROZEN)


# The scan labelled each bracket by the node count at its midpoint, which
# can miss: it labelled the oscillator's l = 2 ground state 1, and the
# command line corrected that with a second solve.  Bracket position -> label.
MISLABELLED = {"oscillator_series:ell=2": {0: 1}}


@pytest.mark.parametrize("channel", sorted(FROZEN))
def test_brackets_and_labels_unchanged(solved, channel):
    frozen = FROZEN[channel]
    assert frozen, "every frozen channel holds at least one bracket"
    _, _, spectrum = solved[channel]
    e_lo, e_hi = spectrum.window
    levels = spectrum.levels
    assert np.count_nonzero((levels >= e_lo) & (levels <= e_hi)) == len(frozen)
    wrong = MISLABELLED.get(channel, {})
    for n, (ea, eb, label) in enumerate(frozen):
        assert math.isfinite(ea) and ea < eb < 0
        # level n is the only level in the n-th frozen bracket
        inside = np.flatnonzero((levels >= ea) & (levels <= eb))
        assert inside.tolist() == [n], (n, ea, eb)
        assert label == wrong.get(n, n)
        (lo, hi), _ = spectrum.cell(n)
        assert lo <= ea and eb <= hi  # the cell is wider than the scan step


@pytest.mark.parametrize("channel", sorted(FROZEN))
def test_each_cell_holds_one_level_and_one_sign_change(solved, channel):
    cfg, ell, spectrum = solved[channel]
    pot, mass, solver = cfg.potential, cfg.mass, cfg.solver
    for n in cfg.quantum.n:
        q = QuantumNumbers(cfg.quantum.dim, ell, n)
        (lo, hi), e_c = spectrum.cell(n)
        assert lo < e_c < hi
        inside = spectrum.levels[(spectrum.levels >= lo) & (spectrum.levels <= hi)]
        assert inside.tolist() == [e_c]
        geom = _build_geometry(pot, mass, q, solver, (lo, hi), e_c)
        values = [_mismatch(e, pot, mass, q, solver, geom)
                  for e in np.linspace(lo, hi, 33)]
        assert np.count_nonzero(np.diff(np.sign(values))) == 1, (n, values)


@pytest.mark.parametrize("channel", sorted(FROZEN))
def test_the_narrow_bracket_holds_every_root(solved, channel, monkeypatch):
    # Brent runs once per state, on the level +- _NARROW |E|: it never
    # falls back to the whole cell
    cfg, ell, spectrum = solved[channel]
    calls = []
    brentq = es_mod.brentq

    def counting(f, a, b, **kwargs):
        calls.append((a, b))
        return brentq(f, a, b, **kwargs)

    monkeypatch.setattr(es_mod, "brentq", counting)
    for n in cfg.quantum.n:
        q = QuantumNumbers(cfg.quantum.dim, ell, n)
        calls.clear()
        find_eigenvalue(cfg.potential, cfg.mass, q, cfg.solver, spectrum)
        (lo, hi), e_c = spectrum.cell(n)
        half = es_mod._NARROW * abs(e_c)
        assert calls == [(max(lo, e_c - half), min(hi, e_c + half))], n
