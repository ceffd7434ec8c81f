"""Exact laws of the radial equation, checked on the solver's energies.

Length scaling: r -> r / s maps V = -a/r + b_lin r + c and the mass
m0 e^(-lam r) with (a, b_lin, c, lam) to (a s, b_lin s^3, c s^2, lam s) and
every energy E to E s^2, so the state solved in the window scaled by s^2
has that energy, to within the solver's convergence.  Constant-mass
k-degeneracy: with m'/m = 0 the dimension N and the angular momentum l
enter only through k = N + 2 l, so (N, l) and (N + 2, l - 1) give the
same rows, bit for bit.  The problems are the exp-mass demo and the
sweep's seeded draw (``tests/test_sweep.py``); the draws of each test are
derandomized.
"""

import json
from pathlib import Path

from hypothesis import given, settings, strategies as st

from pdmradial import cli
from test_sweep import _problems

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# the relative error the scaled energies are held to: Brent converges each
# energy to about 1e-13 relative, and a state's geometry scales with it
_SCALING_RTOL = 5e-14

_EXPMASS_DEMO = json.loads((CONFIGS / "expmass_cornell_demo.json").read_text())
_SWEEP = list(_problems(40))
_CONSTANT_MASS = [data for data in _SWEEP if data["mass"]["kind"] == "constant"]


def _rows(data):
    return cli.solve_states(cli.parse_config({**data, "output": {"directory": "unused"}}))


def _scaled(data, s):
    """``data`` with every length divided by s: the couplings, the mass's
    decay rate and the energy window scaled as the equation asks."""
    pot, mass, solver = data["potential"], data["mass"], data["solver"]
    out = {**data,
           "potential": {**pot, "a": pot["a"] * s, "b_lin": pot["b_lin"] * s**3,
                         "c": pot["c"] * s**2},
           "solver": {**solver, "e_lo": solver["e_lo"] * s**2,
                      "e_hi": solver["e_hi"] * s**2}}
    if mass["kind"] == "exponential":
        out["mass"] = {**mass, "lambda": mass["lambda"] * s}
    return out


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.sampled_from([_EXPMASS_DEMO] + _SWEEP), s=st.floats(0.5, 2.0))
def test_length_scaling_maps_every_energy_to_e_s2(data, s):
    base, scaled = _rows(data), _rows(_scaled(data, s))
    assert [row.q for row in scaled] == [row.q for row in base]
    # no state solves on one side only
    assert [row.ok for row in scaled] == [row.ok for row in base]
    for row, image in zip(base, scaled):
        if row.ok:
            expected = row.result.energy * s * s
            assert abs(image.result.energy - expected) <= _SCALING_RTOL * abs(expected), \
                row.describe()


@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.sampled_from(_CONSTANT_MASS), dim=st.integers(2, 6),
       ell=st.integers(1, 3))
def test_constant_mass_k_degeneracy_is_bit_exact(data, dim, ell):
    def rows(dim, ell):
        quantum = {**data["quantum"], "dim": dim, "ell": [ell]}
        # every column but the state's (N, l), the energy's bits included
        return [{c: v for c, v in row.record().items() if c not in ("dim", "ell")}
                for row in _rows({**data, "quantum": quantum})]

    assert rows(dim, ell) == rows(dim + 2, ell - 1)
