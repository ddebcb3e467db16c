"""Relative cohomology generators (global loops) on triangulated surfaces.

The pipeline builds a tree-cotree decomposition of the mesh and its dual
graph, transports cocycle values along dual-tree paths, and emits integer
generator representatives partitioned into handle, hole and contact
classes.  An oracle built on its own incidence tables, with exact integer
cocycle checks and sparse ranks modulo a prime, validates the output
independently.
"""

from .cochain import Cochain1, coboundary0, coboundary1, evaluate, is_relative_cocycle
from .dual import DualGraph, build_dual
from .forest import Path, Tree, TreeCotree, build_tree_cotree
from .generators import (
    ComponentMeta,
    Generator,
    GeneratorSet,
    compute_generators,
    contacts,
    handles,
    holes,
)
from .oracle import (
    VerificationReport,
    betti1_relative,
    homology_snf,
    is_orientable,
    verify,
)
from .surface import (
    BoundaryCycle,
    BoundaryPartition,
    ClosedComplex,
    ComponentEmbedding,
    SurfaceComplex,
    boundary_components,
    build_closed_complex,
    build_complex,
    classify_boundary,
    connected_components,
    euler_characteristic,
)
from .transport import TransportResult, transport

__version__ = "0.1.0"

__all__ = [
    "BoundaryCycle",
    "BoundaryPartition",
    "ClosedComplex",
    "Cochain1",
    "ComponentEmbedding",
    "ComponentMeta",
    "DualGraph",
    "Generator",
    "GeneratorSet",
    "Path",
    "SurfaceComplex",
    "TransportResult",
    "Tree",
    "TreeCotree",
    "VerificationReport",
    "betti1_relative",
    "boundary_components",
    "build_closed_complex",
    "build_complex",
    "build_dual",
    "build_tree_cotree",
    "classify_boundary",
    "coboundary0",
    "coboundary1",
    "compute_generators",
    "connected_components",
    "contacts",
    "euler_characteristic",
    "evaluate",
    "handles",
    "holes",
    "homology_snf",
    "is_orientable",
    "is_relative_cocycle",
    "transport",
    "verify",
]
