"""Cocycle transport along a dual-tree path.

Starting from value 1 on an edge of the first face, the value is pushed
across each face of the path so that the running face sums stay zero, and
finally onto a target edge of the last face.  For a self-pair (start equals
target) the transported value must come back as +1; otherwise the loop is
orientation-reversing and the zero cochain is returned.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cochain import Cochain1
from .errors import CountMismatch, EdgeNotOnFace
from .forest import Path
from .surface import SurfaceComplex


@dataclass
class TransportResult:
    cochain: Cochain1
    consistent: bool


def transport(
    complex: SurfaceComplex, path: Path, start_edge: int, end_edge: int
) -> TransportResult:
    """Build a candidate 1-cocycle from a dual path and an edge pair.

    The path nodes must all be face nodes, with start_edge on the first face
    and end_edge on the last.  All transported values are +1 or -1; the
    start edge always carries +1.  A failed self-pair yields the zero
    cochain with consistent=False.
    """
    faces = path.nodes
    first, last = faces[0], faces[-1]
    if first >= complex.num_faces or last >= complex.num_faces:
        raise EdgeNotOnFace(f"path endpoints {first}, {last} are not face nodes")
    if complex.incidence(first, start_edge) == 0:
        raise EdgeNotOnFace(f"edge {start_edge} is not on face {first}")
    if complex.incidence(last, end_edge) == 0:
        raise EdgeNotOnFace(f"edge {end_edge} is not on face {last}")

    coeffs = {start_edge: 1}
    prev_edge = start_edge
    value = 1
    for i, eid in enumerate(path.edges):
        face = faces[i]
        # Signs are +-1, so the sign ratio is just their product.
        value = -complex.incidence(face, eid) * complex.incidence(face, prev_edge) * value
        if eid == start_edge or eid == end_edge:
            raise CountMismatch("tree path revisits the transported edge pair")
        coeffs[eid] = value
        prev_edge = eid

    carried = (
        -complex.incidence(last, end_edge) * complex.incidence(last, prev_edge) * value
    )
    if end_edge == start_edge:
        # The initial +1 plus the carried value: cancellation means the loop
        # reverses orientation and no cocycle exists along it.
        if carried != 1:
            return TransportResult(cochain=Cochain1(), consistent=False)
        return TransportResult(cochain=Cochain1(coeffs), consistent=True)
    coeffs[end_edge] = carried
    return TransportResult(cochain=Cochain1(coeffs), consistent=True)
