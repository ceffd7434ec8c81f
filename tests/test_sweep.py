"""A seeded sweep of the paper's problem class through the command line's
solve: every state solves or fails alone with a typed error.

The problems are Cornell potentials V = -a/r + b r + c with a constant or an
exponentially decaying mass, drawn from ``random.Random(1)`` in a fixed
order, at truncation orders from 6, which is too low for most match radii,
to 96.
"""

import random
import re

import pdmradial.errors as errors
from pdmradial import cli
from pdmradial.wavefunction import count_nodes
from test_wavefunction import horner_count, recorded_node_counts

# a failed row's message: the error's class name, after the channel prefix
# when the whole channel failed
_FAILED = re.compile(r"(?:channel failed: )?(\w+): ")


def _problems(count):
    """``count`` configs of the paper's class, n = 0..2 in one channel each."""
    rng = random.Random(1)
    for _ in range(count):
        a = rng.uniform(0.2, 2.0)
        b = rng.uniform(0.0, 0.6)
        c = -rng.uniform(1.0, 6.0)
        exponential = rng.random() < 0.5
        lam = rng.uniform(0.02, 0.4)
        dim = rng.randint(2, 6)
        ell = rng.randint(0, 3)
        order = rng.choice([6, 8, 64, 96])
        mass = ({"kind": "exponential", "m0": 1.0, "lambda": lam} if exponential
                else {"kind": "constant", "m0": 1.0})
        yield {
            "potential": {"kind": "cornell", "a": a, "b_lin": b, "c": c},
            "mass": mass,
            "quantum": {"dim": dim, "ell": [ell], "n": [0, 1, 2]},
            "solver": {"e_lo": c - 2.5 * a * a, "e_hi": -0.1,
                       "truncation_order": order, "oracle": True},
            "output": {"directory": "unused"},
        }


def test_every_state_solves_or_fails_with_a_typed_error():
    rows = [row for data in _problems(25)
            for row in cli.solve_states(cli.parse_config(data))]
    assert len(rows) == 75
    for row in rows:
        if row.ok:
            continue
        match = _FAILED.match(row.message)
        assert match, row.message
        named = getattr(errors, match[1], None)
        assert isinstance(named, type) and issubclass(named, Exception), row.message
    # the order-6 and order-8 problems reach the series' trust check
    assert any(row.ok for row in rows)
    assert any("truncation_order" in row.message for row in rows if not row.ok)


def test_node_counts_equal_the_horner_count_on_every_root(monkeypatch):
    # every series the solver counts nodes on in the draw: the product
    # with the cached powers gives the Horner loop's count
    calls, rows = recorded_node_counts(monkeypatch, _problems(25))
    assert len(rows) == 75 and len(calls) >= sum(row.ok for row in rows) > 0
    assert {sol.coeffs.size for sol, _, _ in calls} >= {65, 97}
    for sol, r, samples in calls:
        assert count_nodes(sol, r, samples=samples) == horner_count(sol, r, samples)
