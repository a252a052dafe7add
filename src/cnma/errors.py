"""Exception types shared across the package."""


class CnmaError(Exception):
    """Base class for all errors raised by this package."""


class DuplicateComponent(CnmaError):
    """A treatment label names the same component more than once."""


class EmptyNetwork(CnmaError):
    """An operation requires at least one study / treatment."""


class NotIdentifiable(CnmaError):
    """The design does not identify what was asked of it: the effects a
    model samples (its columns for them have rank below their number), or a
    contrast between treatments (it lies outside the design's row space)."""


class ZeroCell(CnmaError):
    """A zero event (or zero non-event) cell under the strict conversion policy."""


class EventsExceedTotal(CnmaError):
    """An arm records more events than subjects."""


class NotPositiveDefinite(CnmaError):
    """A covariance matrix is not positive definite."""


class UnknownAnchor(CnmaError):
    """The requested anchor treatment is not in the network, or is multicomponent."""


class UnknownComponent(CnmaError):
    """A treatment references a component missing from the network dictionary."""


class McmcError(CnmaError):
    """Sampler failure: non-finite log posterior, scale collapse, or bad configuration."""
