"""The per-config placement of every state's inward leg.

``eigensolver.place_legs`` finds the turning points, tail radii and cuts of
every state of a config in one pass, and ``tail.make_leg`` builds one
state's leg from its cuts.  Each value must have the bits of the per-state
formula that this module keeps as its reference (the geometry as it was
computed one state at a time), must not depend on the other states of the
pass, and a state that fails must fail alone, with the message it failed
with one state at a time.
"""

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pdmradial.tail as tail_mod
from pdmradial import cli
from pdmradial.eigensolver import place_legs, search_root
from pdmradial.errors import BracketError, DomainError
from pdmradial.model import QuantumNumbers, _gauss_legendre, b_from_energy
from pdmradial.oracle import channel_spectra
from pdmradial.tail import _NODES, _operators, make_leg
from test_eigensolver import BENCHMARK_CENTRES
from test_sweep import _problems

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "configs").glob("*.json"))


# the reference: the geometry of one state, computed on its own


def _ref_arrays(pot, mass, q, r):
    m, g, dg = mass.terms_at(r)
    v = np.asarray(pot.value(r), float)
    f0 = (-g * (q.dim_n - 1) / (2.0 * r) + (q.k - 1) * (q.k - 3) / (4.0 * r * r)
          + 2.0 * m * v)
    return g, f0 + (0.25 * g * g - 0.5 * dg), 2.0 * m


def _ref_turning_radius(pot, e):
    probes = np.geomspace(1e-4, 1e7, 500)
    neg = np.nonzero(pot.value(probes) - e <= 0)[0]
    if neg.size == 0:
        return 0.0
    last = int(neg[-1])
    if last == probes.size - 1:
        return float(probes[-1])
    lo, hi = float(probes[last]), float(probes[last + 1])
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if pot.value(mid) - e <= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _ref_tail_radius(pot, mass, e, r_turn, target=14.0):
    b = b_from_energy(e, mass.m0)
    r = max(r_turn, 1e-3)
    cap = max(6.0 * r_turn, 40.0 / b)
    radii, steps = [r], []
    while r < cap:
        dr = 0.01 * max(r, 0.1)
        steps.append(dr)
        r += dr
        radii.append(r)
    x = np.asarray(radii[:-1])
    q2 = 2.0 * np.asarray(mass.mass_at(x), float) * (pot.value(x) - e)
    total = np.cumsum(np.sqrt(np.where(q2 > 0, q2, 0.0)) * np.asarray(steps))
    reached = np.flatnonzero(total >= target)
    return radii[int(reached[0]) + 1] if reached.size else radii[-1]


def _ref_cuts(pot, mass, q, r_match, r_far, e_ref):
    r = np.linspace(r_match, r_far, 1025)
    _, w0, m2 = _ref_arrays(pot, mass, q, r)
    k = np.sqrt(np.maximum(w0 - m2 * e_ref, 0.0))
    growth = np.concatenate(([0.0], np.cumsum(0.5 * (k[1:] + k[:-1]) * np.diff(r))))
    pieces = max(1, math.ceil(growth[-1] / 25.0))
    marks = growth[-1] * np.arange(1, pieces) / pieces
    return np.concatenate(([r_match], np.interp(marks, growth, r), [r_far]))


def _ref_geometry(pot, mass, q, cell):
    """(r_match, r_far, cuts) of the state in ``cell``."""
    e_lo, e_hi = cell
    b_mid = b_from_energy(0.5 * (e_lo + e_hi), mass.m0)
    r_match = 1.5 / b_mid
    r_turn = _ref_turning_radius(pot, e_hi)
    r_far = max(r_match + 10.0 / b_mid, 1.2 * r_turn,
                _ref_tail_radius(pot, mass, e_hi, r_turn))
    return r_match, r_far, _ref_cuts(pot, mass, q, r_match, r_far, e_lo)


def _bits(a):
    a = np.asarray(a, float)
    return a.shape, a.tobytes()


def _assert_leg_has_the_reference_bits(pot, mass, q, cell, cuts):
    r_match, r_far, ref_cuts = _ref_geometry(pot, mass, q, cell)
    assert _bits(cuts) == _bits(ref_cuts)
    leg = make_leg(pot, mass, q, cuts)
    assert _bits([leg.r_match, leg.r_far]) == _bits([r_match, r_far])
    x, (val, d2, *_) = _operators(_NODES)
    t, w = _gauss_legendre(_NODES)
    m_match = mass.mass_at(r_match)
    assert len(leg.pieces) == ref_cuts.size - 1
    for piece, left, right in zip(leg.pieces, ref_cuts[:-1], ref_cuts[1:]):
        scale = 2.0 / (right - left)
        _, w0, m2 = _ref_arrays(pot, mass, q, left + (x + 1.0) / scale)
        s2 = np.asarray(mass.mass_at(left + (right - left) * t), float) / m_match
        assert _bits([piece.left, piece.right, piece.scale]) == _bits([left, right, scale])
        assert _bits(piece.rows0) == _bits(scale * scale * d2 - w0[:, None] * val)
        assert _bits(piece.rows_e) == _bits(m2[:, None] * val)
        assert _bits(piece.weights) == _bits((right - left) * w * s2)
    g, w0, m2 = _ref_arrays(pot, mass, q, np.array([r_match, r_far]))
    assert _bits([leg.g_match, leg.w0_far, leg.m2_far]) == _bits([g[0], w0[1], m2[1]])


def _configs():
    """The four demos and the 25-problem sweep, parsed."""
    for path in DEMOS:
        yield cli.parse_config(json.loads(path.read_text()))
    for data in _problems(25):
        yield cli.parse_config(data)


def _states(cfg):
    """Every requested (q, spectrum) state of a config, as ``solve`` places
    them."""
    dim = cfg.quantum.dim
    ells = list(dict.fromkeys(cfg.quantum.ell))
    spectra = channel_spectra(cfg.potential, cfg.mass,
                              [QuantumNumbers(dim, ell, 0) for ell in ells],
                              cfg.solver.e_bracket)
    return [(QuantumNumbers(dim, ell, n), spectrum)
            for ell, spectrum in zip(ells, spectra)
            if not isinstance(spectrum, Exception)
            for n in dict.fromkeys(cfg.quantum.n)]


def _check_every_state():
    """Assert the reference bits of every state of ``_configs``; the number
    of legs checked and the mass kinds they cover."""
    legs, kinds = 0, set()
    for cfg in _configs():
        pot, mass = cfg.potential, cfg.mass
        states = _states(cfg)
        for (q, spectrum), cuts in zip(states, place_legs(pot, mass, states)):
            try:
                cell, _ = spectrum.cell(q.radial_n)
            except BracketError as exc:
                assert isinstance(cuts, BracketError) and str(cuts) == str(exc)
                continue
            _assert_leg_has_the_reference_bits(pot, mass, q, cell, cuts)
            legs += 1
            kinds.add("exponential" if mass.lam else
                      "polynomial" if mass.poly.size > 1 else "constant")
    return legs, sorted(kinds)


def test_every_leg_has_the_bits_of_the_per_state_formula():
    legs, kinds = _check_every_state()
    assert legs == 75 and kinds == ["constant", "exponential", "polynomial"]


def test_every_leg_has_the_same_bits_at_two_blas_threads():
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])}
    done = subprocess.run(
        [sys.executable, "-c",
         "import test_geometry as t; print(t._check_every_state()[0])"],
        cwd=ROOT / "tests", env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) == 75


def test_a_state_is_placed_alone_as_with_its_config():
    # every state of the demos and of the sweep, on legs of one to four
    # pieces: alone, with its config, and with its config in another order
    pieces = set()
    for cfg in _configs():
        pot, mass = cfg.potential, cfg.mass
        states = _states(cfg)
        placed = place_legs(pot, mass, states)
        together = [_bits(c) if isinstance(c, np.ndarray) else str(c) for c in placed]
        pieces.update(c.size - 1 for c in placed if isinstance(c, np.ndarray))

        def bits(states):
            return [_bits(c) if isinstance(c, np.ndarray) else str(c)
                    for c in place_legs(pot, mass, states)]

        assert [bits([state])[0] for state in states] == together
        order = list(range(len(states)))
        random.Random(3).shuffle(order)
        assert bits([states[i] for i in order]) == [together[i] for i in order]
        assert bits(states[::-1]) == together[::-1]
    assert pieces == {1, 2, 3, 4}


# Coulomb at m0 = 4 over (-1e308, -0.15): the ground state's cell reaches
# down to -1e308, where b = sqrt(-2 m0 E) overflows and r_match = 1.5/b is 0;
# n = 9 has no level in the window; n = 1 and 2 solve
ISOLATION = {
    "potential": {"kind": "coulomb", "z": 1.0},
    "mass": {"kind": "constant", "m0": 4.0},
    "quantum": {"dim": 3, "ell": [0], "n": [1, 0, 9, 2]},
    "solver": {"e_lo": -1e308, "e_hi": -0.15, "truncation_order": 64, "oracle": True},
    "output": {"directory": "unused"},
}


def test_a_failed_state_leaves_the_others_bits():
    cfg = cli.parse_config(ISOLATION)
    pot, mass = cfg.potential, cfg.mass
    states = _states(cfg)
    placed = place_legs(pot, mass, states)
    domain, bracket = placed[1], placed[2]
    assert isinstance(domain, DomainError)
    assert str(domain) == "r_match must be positive (the origin is singular)"
    assert isinstance(bracket, BracketError)
    assert str(bracket).startswith("state n=9 not found in the window (-1e+308, -0.15):")
    # the solved states, placed with and without the failed ones between
    solved = [states[0], states[3]]
    assert ([_bits(c) for c in (placed[0], placed[3])]
            == [_bits(c) for c in place_legs(pot, mass, solved)])
    for (q, spectrum), cuts in zip(solved, place_legs(pot, mass, solved)):
        cell, _ = spectrum.cell(q.radial_n)
        _assert_leg_has_the_reference_bits(pot, mass, q, cell, cuts)
        root = search_root(pot, mass, q, cfg.solver, spectrum, cuts)
        (alone,) = place_legs(pot, mass, [(q, spectrum)])
        assert root.energy == search_root(pot, mass, q, cfg.solver, spectrum,
                                          alone).energy
        assert root.energy == pytest.approx(-2.0 / (q.radial_n + 1) ** 2, rel=1e-13)
    # the rows of solve: the same texts, and the solved rows' bits
    rows = cli.solve_states(cfg)
    assert [r.message for r in rows[1:3]] == [
        "DomainError: r_match must be positive (the origin is singular)",
        f"BracketError: {bracket}"]
    alone = cli.solve_states(cli.parse_config(
        {**ISOLATION, "quantum": {"dim": 3, "ell": [0], "n": [1, 2]}}))
    assert [r.record() for r in (rows[0], rows[3])] == [r.record() for r in alone]
    assert all(r.ok for r in alone)


@pytest.mark.parametrize("workload, searches", [
    ("coulomb_oracle", 11), ("expmass_cornell", 6), ("oscillator_series", 9)])
def test_one_turning_point_search_per_energy_of_a_config(workload, searches,
                                                        monkeypatch):
    # a round of the workload's centre configs searches each distinct upper
    # cell energy of a config once, and the window's top once, for r_max
    # and for the state at the top of the window together
    calls = []
    search = tail_mod._turning_radius

    def counting(pot, e, diff):
        calls.append(e)
        return search(pot, e, diff)

    monkeypatch.setattr(tail_mod, "_turning_radius", counting)
    total = 0
    for data in BENCHMARK_CENTRES[workload]:
        cfg = cli.parse_config(data)
        tops = {cfg.solver.e_bracket[1]}
        for q, spectrum in _states(cfg):
            try:
                tops.add(spectrum.cell(q.radial_n)[0][1])
            except BracketError:
                continue
        calls.clear()
        cli.solve_states(cfg)
        assert sorted(calls) == sorted(tops)
        total += len(calls)
    assert total == searches
