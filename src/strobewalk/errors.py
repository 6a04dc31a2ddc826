"""Exception types shared across the package."""


class StrobewalkError(Exception):
    """Base class for all errors raised by this package."""


class GraphSpecError(StrobewalkError, ValueError):
    """Unknown generator name or generator parameter out of range."""


class GraphFormatError(StrobewalkError, ValueError):
    """Graph file cannot be parsed or violates a structural invariant."""


class GraphInvariantError(StrobewalkError, ValueError):
    """Graph data violates an invariant (self-loop, duplicate edge, bad index)."""


class StateError(StrobewalkError, ValueError):
    """State vector has the wrong dimension or is not normalized."""


class SpectralError(StrobewalkError, RuntimeError):
    """Eigendecomposition failed or produced out-of-tolerance results."""


class GroupSearchError(StrobewalkError, RuntimeError):
    """Automorphism search exceeded a configured cap."""


class AsymmetricStateError(StrobewalkError, ValueError):
    """Initial state is orthogonal to the symmetric subspace; its uniform
    symmetric component is undefined."""


class NonLocalizedDetectionError(StrobewalkError, ValueError):
    """Quotient construction requires a detection state localized on a node."""


class GraphSizeError(StrobewalkError, ValueError):
    """Graph has more nodes or edges than ``graphs.MAX_NODES`` or ``graphs.MAX_EDGES``."""
