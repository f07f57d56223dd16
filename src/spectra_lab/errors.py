"""Exception types shared across the package."""


class SpectraLabError(Exception):
    """Base class for all package-specific errors."""


class UnsupportedGenerators(SpectraLabError):
    """Frequencies outside the generators a layer handles: more than one
    surd, or a surd where only rational frequencies are supported."""


class ZeroFrequency(SpectraLabError):
    """Operation requires a nonzero frequency vector."""


class CapExceeded(SpectraLabError):
    """Resonant congruence closure exceeded the configured node cap."""


class ClassBoundExceeded(CapExceeded):
    """Congruence closure left the class bound 2 m L_m around its seed."""


class ConditionAViolation(SpectraLabError):
    """Frequency set fails Condition A up to the requested order."""


class NonMultiplicationInput(SpectraLabError):
    """Gauge input must be a multiplication symbol (xi-independent)."""


class NonLatticeFrequencies(SpectraLabError):
    """Bloch oracle requires a periodic potential on the integer dual lattice."""


class TruncationCeiling(SpectraLabError):
    """Spectral parameter exceeds the plane-wave truncation reliability ceiling."""


class CoincidingPoints(SpectraLabError):
    """Off-diagonal formula needs x != y."""


class ContourTooClose(SpectraLabError):
    """Integration contour passes too close to an eigenvalue locus."""


class DivergentSeries(SpectraLabError):
    """Resolvent series precondition ||S|| < |z^2 - mu| violated."""


class ConfigError(SpectraLabError):
    """Invalid run configuration; carries the full list of violations."""

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class Malformed(ConfigError):
    pass


class NonHermitianPotential(ConfigError):
    pass


class UnsupportedDimension(ConfigError):
    pass
