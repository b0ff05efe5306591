"""Exception types shared across the package."""


class SpecPruneError(Exception):
    """Base class for all package-specific errors."""


class NotPositiveDefinite(SpecPruneError):
    """A Cholesky pivot was non-positive; the caller may retry with a larger ridge."""


class NoConvergence(SpecPruneError):
    """An iterative factorization failed to converge."""


class ShapeMismatch(SpecPruneError):
    """Array shapes are inconsistent. Carries the offending layer index when known."""

    def __init__(self, message, layer=None):
        super().__init__(message if layer is None else f"layer {layer}: {message}")
        self.layer = layer


class FormatError(SpecPruneError):
    """A serialized artifact has a bad magic string, version, or inconsistent shapes."""


class Diverged(SpecPruneError):
    """Training loss became non-finite."""


class InsufficientSamples(SpecPruneError):
    """Too few samples accumulated to finalize statistics."""


class DegenerateSigma(SpecPruneError):
    """The second-moment matrix has a non-positive trace, non-finite entries
    or is not symmetric."""


class StatsMissing(SpecPruneError):
    """Regularized selection was requested without both domain statistics."""


class TopologyError(SpecPruneError):
    """A capture point does not feed exactly one prunable Dense/Conv layer."""


class RankOutOfRange(SpecPruneError):
    """Requested factorization rank is outside the valid range."""


class DegenerateData(SpecPruneError):
    """Activation data is degenerate (e.g. the projected weight matrix is zero)."""


class ConfigError(SpecPruneError):
    """An experiment configuration is invalid. Message includes the field path."""


class PipelineStageError(SpecPruneError):
    """Wraps an error raised inside a pipeline stage with the stage name."""

    def __init__(self, stage, cause):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause
