"""Exception types raised across the package, and the oracle's work cap.

``DEFAULT_WORK_CAP`` lives here, beside the refusal it bounds, so that the
command line can show it as the ``--oracle-cap`` default without loading
the oracle; ``oracle`` re-exports it.
"""


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


class NodeNotInTree(InternalError):
    """Path endpoint is not a member of the tree."""


class EdgeNotOnFace(ValueError, InternalError):
    """Transport precondition breach: the edge does not bound the face."""


class UsageError(Exception):
    """Command-line options the command cannot honour."""


# E + sum |support| + sum |witness cycles|.  Sizes near it: BENCH_23.json; refusals: BENCH_24.json.
DEFAULT_WORK_CAP = 2_000_000


class MeshTooLargeForOracle(Exception):
    """The verification oracle refuses inputs whose edges plus the entries of
    the generators and of their witness cycles exceed its cap."""


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
