"""Bound states of the N-dimensional radial Schrodinger equation with
position-dependent mass, for potentials V(r) = -V1 r^-alpha + V2 r^beta + V3.

Energies and radial wavefunctions come from a power-series recurrence about
the origin, quantized by log-derivative matching against an inward tail
integration, and are cross-validated by an independent Chebyshev collocation
eigensolve.
"""

from .eigensolver import SolverConfig, find_eigenvalue
from .model import (
    EigenResult,
    MassProfile,
    PotentialSpec,
    QuantumNumbers,
    SeriesSolution,
    b_from_energy,
    logderiv_from_series,
    make_cornell,
    make_coulomb,
    make_linear,
    make_oscillator,
)
from .oracle import ChannelSpectrum, channel_spectrum
from .recurrence import (
    coefficient_closed_forms_cornell,
    coefficient_closed_forms_expmass,
    coulomb_closed_form_coefficients,
    coulomb_expmass_closed_forms,
    expmass_cornell_coefficients,
    generate_coefficients,
)
from .tail import integrate_radial, leg_cuts, make_leg
from .wavefunction import (
    count_nodes,
    evaluate,
    norm2,
    ode_residual,
)

__version__ = "0.1.0"

__all__ = [
    "PotentialSpec",
    "QuantumNumbers",
    "MassProfile",
    "SeriesSolution",
    "EigenResult",
    "make_cornell",
    "make_coulomb",
    "make_oscillator",
    "make_linear",
    "b_from_energy",
    "logderiv_from_series",
    "generate_coefficients",
    "expmass_cornell_coefficients",
    "coefficient_closed_forms_cornell",
    "coefficient_closed_forms_expmass",
    "coulomb_closed_form_coefficients",
    "coulomb_expmass_closed_forms",
    "evaluate",
    "norm2",
    "ode_residual",
    "count_nodes",
    "SolverConfig",
    "find_eigenvalue",
    "leg_cuts",
    "make_leg",
    "integrate_radial",
    "ChannelSpectrum",
    "channel_spectrum",
]
