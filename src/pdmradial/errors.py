"""Exception and warning types shared across the package."""


class DomainError(ValueError):
    """A parameter is outside the admissible domain (sign, range, or shape)."""


class UnsupportedExponentError(DomainError):
    """Requested a singular-potential exponent the recurrence cannot order explicitly."""


class DegenerateChannelError(DomainError):
    """k = N + 2l hit a value where the recurrence denominators vanish."""


class SeriesDivisionError(DomainError):
    """Formal series division attempted with a degenerate leading coefficient."""


class SingularPointError(DomainError):
    """Operation evaluated at the r = 0 singular point of the radial operator."""


class BracketError(RuntimeError):
    """No bracket for the state: its level lies outside the energy window, or
    the bracket does not enclose a sign change of the matching function."""


class WrongStateError(RuntimeError):
    """Converged eigenfunction has a node count different from the requested state."""

    def __init__(self, expected: int, found: int, energy: float):
        self.expected = expected
        self.found = found
        self.energy = energy
        super().__init__(
            f"converged at E={energy!r} with {found} nodes, expected {expected}"
        )


class ResolutionError(RuntimeError):
    """Resolution check failed: the oracle's two collocation solves disagree."""


class ExtrapolationWarning(UserWarning):
    """Series evaluated beyond its trust region; the result is extrapolative."""
