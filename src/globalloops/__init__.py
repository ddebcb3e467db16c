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
the building blocks live in their submodules.  ``verify`` and
``VerificationReport`` load the oracle on first use, so that importing the
package (and the command line, which runs the oracle only under
``--verify``) does not.
"""

from .generators import GeneratorSet, compute_generators
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


def __getattr__(name):
    if name not in ("verify", "VerificationReport"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import oracle

    value = globals()[name] = getattr(oracle, name)
    return value
