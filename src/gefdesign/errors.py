"""Exception types shared across the package."""


class GefError(Exception):
    """Base class for every error raised by this package."""


class NonPositiveConstant(GefError):
    """A filter constant that must be strictly positive was not."""


class ExponentTooSmallForErb(GefError):
    """ERB expressions need b_u > 1/2."""


class ApproximationDomain(GefError):
    """The empirical Q_erb approximation needs b_u >= 3/2."""


class NoInteriorPeak(GefError):
    """The sampled magnitude maximum sits on the grid boundary."""


class LevelNotReached(GefError):
    """An n-dB down-crossing is missing on one side of the peak."""

    def __init__(self, n_db, side):
        super().__init__(
            f"{n_db:g} dB level not reached on the {side} side of the peak"
        )
        self.n_db = n_db
        self.side = side


class MissingCharacteristic(GefError):
    """A report lacks a characteristic required for comparison."""


class BracketFailure(GefError):
    """Implicit-equation residual does not change sign over the bracket."""


class InfeasibleSpec(GefError):
    """Specified characteristics do not map to valid filter constants."""


class ErbRequiresBu(GefError):
    """A design row needs Gamma(b_u - 1/2) but the derived b_u <= 1/2."""


class NyquistViolation(GefError):
    """Peak frequency must sit strictly below fs/2."""


class NonIntegerExponent(GefError):
    """The operation needs an integer exponent."""


class SampleRateMismatch(GefError):
    """Signal and filter sample rates differ."""


class OutOfRange(GefError):
    """Value outside the supported domain."""
