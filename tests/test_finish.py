"""The finishing pass over many roots at once gives every state the bits of
its own solve, and a state that fails in it fails alone."""

import functools
import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import pdmradial
from pdmradial import cli
from pdmradial.eigensolver import find_eigenvalue, finish, search_root, solve
from pdmradial.errors import BracketError, DomainError, WrongStateError
from pdmradial.model import QuantumNumbers
from pdmradial.oracle import channel_spectrum
from pdmradial.tail import place_legs
from test_sweep import _problems

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# every column of a result that a caller reads
_COLUMNS = ("energy", "nodes", "norm_const", "p_sigma", "tail_residual",
            "oracle_gap", "oracle_error")


def _bits(result):
    return tuple(getattr(result, c) for c in _COLUMNS)


def _configs():
    """The four demo configs and the sweep's 25-problem draw."""
    demos = [json.loads(p.read_text()) for p in sorted(CONFIGS.glob("*.json"))]
    return demos + list(_problems(25))


@functools.cache
def batched_against_alone():
    """(states, mismatches, digest): every state of ``_configs`` solved by
    ``cli.solve_states``, which finishes each config in one pass, against
    ``find_eigenvalue`` of the state alone, with a digest of every row."""
    states, mismatches, digest = 0, [], hashlib.sha256()
    for data in _configs():
        cfg = cli.parse_config({**data, "output": {"directory": "unused"}})
        for row in cli.solve_states(cfg):
            try:
                alone = _bits(find_eigenvalue(cfg.potential, cfg.mass, row.q, cfg.solver))
            except (BracketError, DomainError, WrongStateError) as exc:
                alone = f"{type(exc).__name__}: {exc}"
            got = (_bits(row.result) if row.ok
                   else row.message.removeprefix("channel failed: "))
            states += 1
            if got != alone:
                mismatches.append((row.describe(), got, alone))
            digest.update(repr((row.q, got)).encode())
    return states, mismatches, digest.hexdigest()


def test_batched_finish_gives_every_state_its_own_bits():
    states, mismatches, _ = batched_against_alone()
    assert states == 75 + 3 + 4 + 9 + 2
    assert mismatches == []


def test_batched_finish_at_two_blas_threads():
    # the node counts' products stack every root: at two BLAS threads the
    # rows are still each state's own, and the same as at this process's
    script = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from test_finish import batched_against_alone\n"
        "states, mismatches, digest = batched_against_alone()\n"
        "assert mismatches == [], mismatches\n"
        "print(states, digest)\n"
    )
    src = str(Path(pdmradial.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="2",
               OMP_NUM_THREADS="2", MKL_NUM_THREADS="2")
    done = subprocess.run([sys.executable, "-c", script, str(Path(__file__).parent)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    states, _, digest = batched_against_alone()
    assert done.stdout.split() == [str(states), digest]


def _demo_roots():
    """The roots of the Coulomb demo's three states, and its config."""
    cfg = cli.parse_config(json.loads((CONFIGS / "coulomb_demo.json").read_text()))
    q0 = QuantumNumbers(cfg.quantum.dim, 0, 0)
    spectrum = channel_spectrum(cfg.potential, cfg.mass, q0, cfg.solver.e_bracket)
    states = [(replace(q0, radial_n=n), spectrum) for n in (0, 1, 2)]
    cuts = place_legs(cfg.potential, cfg.mass,
                      [(q, spectrum.cell(q.radial_n)[0]) for q, _ in states])
    return [search_root(cfg.potential, cfg.mass, q, cfg.solver, spectrum, c)
            for (q, _), c in zip(states, cuts)], cfg


def test_failing_states_leave_the_others_untouched():
    # a wrong node count and a norm that overflows, each between solved
    # states: each fails alone, with its own error, and every solved state
    # has the bits of its root finished alone
    (r0, r1, r2), _ = _demo_roots()
    sol = r1.solution
    wrong = replace(r1, solution=replace(sol, quantum=replace(sol.quantum, radial_n=2)))
    huge = replace(r0, solution=r0.solution.scaled(1e200))
    roots = [r0, wrong, r1, r2, huge, r0]
    out = finish(roots)
    assert isinstance(out[1], WrongStateError)
    assert (out[1].expected, out[1].found) == (2, 1)
    assert isinstance(out[4], DomainError)
    assert str(out[4]).startswith("the norm integral of the state at E=")
    for i in (0, 2, 3, 5):
        (alone,) = finish([roots[i]])
        assert _bits(out[i]) == _bits(alone)
    assert [out[i].nodes for i in (0, 2, 3, 5)] == [0, 1, 2, 0]
    # and each error is the one its root alone gives
    for i in (1, 4):
        (alone,) = finish([roots[i]])
        assert type(alone) is type(out[i]) and str(alone) == str(out[i])
    assert finish([]) == []


def test_a_series_short_of_its_order_fails_alone():
    # the exp-mass demo's l = 1, n = 1 series needs 25 terms and the other
    # states' at most 24: at truncation_order 24 the search refuses that
    # root, and solve puts the refusal in the state's place while the other
    # states keep the bits they have without it
    cfg = cli.parse_config(json.loads((CONFIGS / "expmass_cornell_demo.json").read_text()))
    pot, mass, dim = cfg.potential, cfg.mass, cfg.quantum.dim
    short = replace(cfg.solver, truncation_order=24)
    spectra = [channel_spectrum(pot, mass, QuantumNumbers(dim, ell, 0), short.e_bracket)
               for ell in (0, 1)]
    states = [(QuantumNumbers(dim, ell, n), spectra[ell])
              for ell, n in ((0, 0), (0, 1), (1, 0), (1, 1))]
    q, spectrum = states[3]
    (cuts,) = place_legs(pot, mass, [(q, spectrum.cell(1)[0])])
    with pytest.raises(DomainError) as info:
        search_root(pot, mass, q, short, spectrum, cuts)
    refused = str(info.value)
    energy = re.fullmatch(
        rf"truncation_order 24 is too low for r_match={float(cuts[0])!r}: "
        r"the series at E=(\S+) has not converged there", refused).group(1)
    full = solve(pot, mass, states, cfg.solver)
    assert abs(float(energy) - full[3].energy) < 1e-9 * abs(full[3].energy)
    out = solve(pot, mass, states, short)
    assert isinstance(out[3], DomainError) and str(out[3]) == refused
    alone = [solve(pot, mass, [state], short)[0] for state in states[:3]]
    assert [_bits(res) for res in out[:3]] == [_bits(res) for res in alone]
    assert [res.energy for res in out[:3]] == [res.energy for res in full[:3]]


def test_a_coarse_pencil_domain_error_fails_only_its_channels_states(monkeypatch):
    # the oracle's coarser pencil is built on the first check, in the
    # finishing pass: a mass that fails on its grid refuses every state of
    # that channel with its DomainError, as a solve of the state alone
    # does, and the other channel's states keep their bits
    import pdmradial.oracle as oracle_mod

    cfg = cli.parse_config(json.loads((CONFIGS / "expmass_cornell_demo.json").read_text()))
    before = cli.solve_states(cfg)
    (n_check, _), _ = oracle_mod._RESOLUTIONS
    pencil = oracle_mod.collocation_pencil
    message = "the mass is negative on the collocation grid of r_max=1: m=-1 at r=1"

    def failing(pot, mass, q, nodes, r_max):
        if q.ell == 1 and nodes == n_check:
            raise DomainError(message)
        return pencil(pot, mass, q, nodes, r_max)

    monkeypatch.setattr(oracle_mod, "collocation_pencil", failing)
    after = cli.solve_states(cfg)
    assert [row.q for row in after] == [row.q for row in before]
    for old, new in zip(before, after):
        assert old.ok
        if new.q.ell == 1:
            assert not new.ok and new.message == f"DomainError: {message}"
        else:
            assert new.ok and _bits(new.result) == _bits(old.result)
    q = QuantumNumbers(cfg.quantum.dim, 1, 0)
    try:
        find_eigenvalue(cfg.potential, cfg.mass, q, cfg.solver)
    except DomainError as exc:
        assert str(exc) == message
    else:
        raise AssertionError("the state alone solved")
