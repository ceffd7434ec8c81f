"""The records a solve produces hold arrays and compare by identity; the
records that describe a problem compare by value."""

from dataclasses import replace

import numpy as np
import pytest

from pdmradial.eigensolver import SolverConfig, find_eigenvalue, search_root
from pdmradial.model import MassProfile, QuantumNumbers, make_coulomb
from pdmradial.oracle import channel_spectrum
from pdmradial.tail import make_leg, place_legs


@pytest.fixture(scope="module")
def coulomb_ground_state():
    """Two ``find_eigenvalue`` results of the Coulomb 3-D ground state, and
    the root, leg, inward solution, series and spectrum of one search."""
    pot, mass, q = make_coulomb(1.0), MassProfile([1.0]), QuantumNumbers(3, 0, 0)
    cfg = SolverConfig(e_bracket=(-0.6, -0.4))
    spectrum = channel_spectrum(pot, mass, q, cfg.e_bracket)
    (cuts,) = place_legs(pot, mass, [(q, spectrum.cell(0)[0])])
    root = search_root(pot, mass, q, cfg, spectrum, cuts)
    first, second = (find_eigenvalue(pot, mass, q, cfg, spectrum) for _ in range(2))
    return {"first": first, "second": second, "root": root,
            "leg": make_leg(pot, mass, q, cuts), "inward": root.inward,
            "solution": root.solution, "spectrum": spectrum}


def test_results_compare_and_hash_by_identity(coulomb_ground_state):
    records = coulomb_ground_state
    first, second = records["first"], records["second"]
    assert first.energy == second.energy
    assert not first == second and first != second
    assert len({first, second}) == 2
    for name, record in records.items():
        copy = replace(record)
        assert record == record and not record != record, name
        assert record != copy and not record == copy, name
        assert hash(record) == hash(record) != hash(copy), name
        assert {record: name}[record] == name


def test_problem_records_compare_by_value():
    for record in (make_coulomb(1.0), QuantumNumbers(3, 1, 2),
                   SolverConfig(e_bracket=(-0.6, -0.4)), MassProfile([1.0], 0.2)):
        copy = replace(record)
        assert copy is not record and copy == record
    assert MassProfile(np.array([1.0]), 0.2) != MassProfile([1.0], 0.3)
