"""Exception types raised across the package."""


class TopologyError(Exception):
    """Base class for invalid or unsupported mesh topology."""


class NonManifoldEdge(TopologyError):
    """An edge is shared by three or more faces."""


class DegenerateFace(TopologyError):
    """A face repeats a vertex."""


class DuplicateFace(TopologyError):
    """The same unordered vertex triple appears twice."""


class PinchVertex(TopologyError):
    """The faces around a vertex do not form a single fan."""


class IsolatedVertex(TopologyError):
    """A vertex belongs to no face."""


class NotABoundaryEdge(TopologyError):
    """A contact edge is missing from the mesh boundary."""


class InternalError(Exception):
    """Base class for internal invariant failures: a bug, not bad input."""


class DualDisconnected(InternalError):
    """The constrained dual graph fell apart."""


class CountMismatch(InternalError):
    """A cell or generator count is off."""


class UnsupportedContactLayout(TopologyError):
    """A contact component covers an entire boundary circle.

    The basis construction needs at least one insulated edge on every
    boundary circle that carries contacts; full-circle contacts change the
    dimension count and are rejected rather than silently miscounted.
    """


class NodeNotInTree(KeyError):
    """Path endpoint is not a member of the tree."""


class EdgeNotOnFace(ValueError):
    """Transport precondition breach: the edge does not bound the face."""


class UnknownEdgeId(KeyError):
    """A cochain references an edge id outside the complex."""


class UsageError(Exception):
    """Command-line options the command cannot honour."""


class MeshTooLargeForOracle(Exception):
    """The verification oracle refuses meshes above its edge cap."""


class OffParseError(Exception):
    """Malformed OFF file; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ContactSpecError(Exception):
    """Malformed contact-edge file; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
