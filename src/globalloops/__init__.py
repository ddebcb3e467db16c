"""Relative cohomology generators (global loops) on triangulated surfaces.

The pipeline grows a tree-cotree decomposition (a primal and a dual
spanning forest) over the mesh, transports cocycle values along dual-tree
paths, and emits integer generator representatives partitioned into
handle, hole and contact classes.  An oracle validates the output
independently: it checks the edge list against the raw faces, builds its
own incidence from them, and runs exact integer cocycle checks, closed-form
counts of the Betti number and torsion, and a pairing certificate of a
basis over the integers.

The package exports the documented entry points and their result types;
the building blocks live in their submodules.
"""

from .generators import GeneratorSet, compute_generators
from .oracle import VerificationReport, verify
from .surface import BoundaryPartition, SurfaceComplex, build_complex, classify_boundary

__version__ = "0.1.0"

__all__ = [
    "BoundaryPartition",
    "GeneratorSet",
    "SurfaceComplex",
    "VerificationReport",
    "build_complex",
    "classify_boundary",
    "compute_generators",
    "verify",
]
