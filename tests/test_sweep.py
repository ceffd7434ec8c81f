"""A seeded sweep of the paper's problem class through the command line's
solve: every state solves or fails alone with a typed error.

The problems are Cornell potentials V = -a/r + b r + c with a constant or an
exponentially decaying mass, drawn from ``random.Random(1)`` in a fixed
order, at truncation orders from 6, which is too low for most match radii,
to 96, and in a second draw at orders 4 to 16 only.
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


def _problems(count, orders=(6, 8, 64, 96)):
    """``count`` configs of the paper's class, n = 0..2 in one channel each,
    at truncation orders drawn from ``orders``."""
    rng = random.Random(1)
    for _ in range(count):
        a = rng.uniform(0.2, 2.0)
        b = rng.uniform(0.0, 0.6)
        c = -rng.uniform(1.0, 6.0)
        exponential = rng.random() < 0.5
        lam = rng.uniform(0.02, 0.4)
        dim = rng.randint(2, 6)
        ell = rng.randint(0, 3)
        order = rng.choice(orders)
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


def _assert_typed_failure(message):
    """A failed row's message names an exception class of pdmradial and,
    after it, the cause."""
    match = _FAILED.match(message)
    assert match and message[match.end():].strip(), message
    named = getattr(errors, match[1], None)
    assert isinstance(named, type) and issubclass(named, Exception), message


def test_every_state_solves_or_fails_with_a_typed_error():
    rows = [row for data in _problems(25)
            for row in cli.solve_states(cli.parse_config(data))]
    assert len(rows) == 75
    for row in rows:
        if not row.ok:
            _assert_typed_failure(row.message)
    # the order-6 and order-8 problems reach the series' convergence rule
    assert any(row.ok for row in rows)
    assert any("truncation_order" in row.message for row in rows if not row.ok)


def test_low_orders_solve_only_on_a_converged_series():
    # at orders 4 to 16 the root's series seldom converges at r_match: a
    # state is written ok only on a series that stopped below its order,
    # with an energy the oracle confirms to 1e-10 or an oracle error on its
    # row; every other state fails with a typed error that names its cause,
    # most with the truncation order too low for the match radius
    rows = [(data["solver"]["truncation_order"], row)
            for data in _problems(60, orders=(4, 6, 8, 12, 16))
            for row in cli.solve_states(cli.parse_config(data))]
    assert len(rows) == 180
    assert {order for order, _ in rows} == {4, 6, 8, 12, 16}
    for order, row in rows:
        if row.ok:
            res = row.result
            assert res.solution.coeffs.size <= order, (order, res.energy)
            assert (row.message.startswith("ResolutionError: ")
                    or res.oracle_gap <= 1e-10 * abs(res.energy)), (order, res.energy)
        else:
            _assert_typed_failure(row.message)
    too_low = [order for order, row in rows
               if row.message.startswith(f"DomainError: truncation_order {order} "
                                         "is too low for r_match=")]
    assert set(too_low) == {4, 6, 8, 12, 16} and len(too_low) > 100


def test_node_counts_equal_the_horner_count_on_every_root(monkeypatch):
    # every series the solver counts nodes on in the draw, each stopped
    # where it converged at r_match, well below its order of 64 or 96: the
    # product with the columns of the cached powers, grown to the longest
    # series and sliced for the others, gives the Horner loop's count
    calls, rows = recorded_node_counts(monkeypatch, _problems(25))
    assert len(rows) == 75 and len(calls) >= sum(row.ok for row in rows) > 0
    sizes = {sol.coeffs.size for sol, _, _ in calls}
    assert len(sizes) > 5 and max(sizes) < 65
    for sol, r, samples in calls:
        assert count_nodes(sol, r, samples=samples) == horner_count(sol, r, samples)
