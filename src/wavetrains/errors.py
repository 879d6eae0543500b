"""Typed exceptions and warnings shared by every module in the package."""


class WavetrainError(Exception):
    """Base class for all errors raised by this package."""


class NonZeroStart(WavetrainError):
    """A time grid or span does not start at t = 0 (the integral equations
    and all solvers take their initial data there)."""


class NonFiniteValue(WavetrainError):
    """A NaN or infinity appeared during integration or evaluation."""


class TooFewPoints(WavetrainError):
    """Not enough samples for the requested stencil or quadrature rule."""


class InvalidCount(WavetrainError):
    """Grid point count violates a constructor constraint (too small, or
    not a power of two where one is required)."""


class OriginCrossing(WavetrainError):
    """The classical solution passed through the origin of the
    (phi1, phi2) plane; the polar decomposition is undefined there."""


class BranchJump(WavetrainError):
    """Adjacent samples advance the polar phase by >= pi; the time grid is
    too coarse to track the phase branch reliably."""


class NonPositiveC0(WavetrainError):
    """The first integral c0 = phi1*dphi2 - phi2*dphi1 is not strictly
    positive, so the quantum construction (e = sqrt(dtheta)) is not real."""


class GridMismatch(WavetrainError):
    """Two sampled fields do not share the grid (or times) the operation
    requires."""


class NegativeIndex(WavetrainError):
    """A negative quantum number / function index was requested."""


class UnknownPreset(WavetrainError):
    """The requested preset name is not one of the built-in experiments."""


class AliasingRisk(WavetrainError):
    """The split-step kick's local wavenumber k_max x_edge dt at the grid
    edge reaches half of Nyquist, pi/(2 dx): the field would alias (a
    sampling guard; accuracy is certified by closed-form distances)."""


class NormDrift(WavetrainError):
    """The split-step propagator lost or gained more than the allowed norm
    per step (indicates a broken configuration, not physics)."""


class ConfigError(WavetrainError):
    """A run configuration (CLI flags or JSON file) is invalid."""


class TooManySamples(ConfigError):
    """A time or space axis would hold more than ``numerics.MAX_SAMPLES``
    samples; refused before any array is allocated."""


class StabilityRegionWarning(UserWarning):
    """Trap parameters are outside the first-stability heuristic
    (U^2 < 1, V < 1, V <~ U^2); the math still runs but the classical
    motion may be unbounded."""


class NormDeficitWarning(UserWarning):
    """A wavefunction sampled on a grid is visibly non-normalized there
    (grid too small or too coarse for the state)."""
