"""Cocycle transport along a dual-tree path, in closed form.

Transport puts +1 on a start edge of the first face and pushes the value
across each face of the dual-tree path so that every face sum along the way
is zero, then carries it onto an end edge of the last face.  The dual
forest's face orientation ``sigma`` and parent-edge sign ``tau`` (see
``forest.py``) give every value without visiting the faces in order.  With
c = -sigma(first) inc(first, start):

* an upward path edge, from a face a to its parent, carries c tau(a),
* a downward path edge, from the parent of a face b to b, carries -c tau(b),
* the end edge carries c sigma(last) inc(last, end).

A self-pair (start = end = e, between faces f1 and f2) must come back as
+1; it comes back as -1, the loop through e reversing orientation, exactly
when sigma(f1) inc(f1, e) sigma(f2) inc(f2, e) = +1.  These are the paper's
twisted edges (E_M_II), which ``is_twisted`` finds in O(1) before any path
is walked: its faces and signs are O(1) reads of the complex's half-edge
tables, as is every ``SurfaceComplex.incidence`` that ``transport`` reads.
"""

from __future__ import annotations

from .errors import CountMismatch, EdgeNotOnFace, NodeNotInTree
from .forest import DualTree
from .surface import SurfaceComplex


def is_twisted(complex: SurfaceComplex, dual: DualTree, edge: int) -> bool:
    """True when the loop that crosses interior ``edge`` once and closes
    through the dual tree reverses orientation.  Raises EdgeNotOnFace when
    ``edge`` lies on fewer than two faces."""
    if not 0 <= edge < complex.num_edges or complex.is_boundary_edge(edge):
        raise EdgeNotOnFace(f"edge {edge} is not on two faces")
    h = complex.edge_half[edge]
    t = complex.twin[h]
    sign, sigma = complex.sign, dual.sigma
    return sigma[h // 3] * sign[h] * sigma[t // 3] * sign[t] == 1


def transport(
    complex: SurfaceComplex,
    dual: DualTree,
    first: int,
    last: int,
    start_edge: int,
    end_edge: int,
) -> dict[int, int]:
    """Build a candidate 1-cocycle along the dual-tree path from face
    ``first`` to face ``last``, starting at +1 on ``start_edge`` (on the
    first face) and ending on ``end_edge`` (on the last face).

    Every value is +1 or -1.  A self-pair (``end_edge == start_edge``)
    must not be twisted.  Raises NodeNotInTree for faces in different
    trees, EdgeNotOnFace for an end edge off its face, and CountMismatch
    when the tree path crosses either end edge.
    """
    tree_of = dual.tree_of
    if tree_of[first] < 0 or tree_of[first] != tree_of[last]:
        raise NodeNotInTree(f"faces {first} and {last} are not in one dual tree")
    start_sign = complex.incidence(first, start_edge)
    if start_sign == 0:
        raise EdgeNotOnFace(f"edge {start_edge} is not on face {first}")
    end_sign = complex.incidence(last, end_edge)
    if end_sign == 0:
        raise EdgeNotOnFace(f"edge {end_edge} is not on face {last}")

    parent, parent_edge, depth, tau = dual.parent, dual.parent_edge, dual.depth, dual.tau
    up = -dual.sigma[first] * start_sign
    down = -up
    coeffs = {start_edge: 1}
    a, b = first, last
    while a != b:  # the deeper end steps toward the meeting node
        if depth[a] >= depth[b]:
            coeffs[parent_edge[a]] = up * tau[a]
            a = parent[a]
        else:
            coeffs[parent_edge[b]] = down * tau[b]
            b = parent[b]

    steps = depth[first] + depth[last] - 2 * depth[a]
    if len(coeffs) != 1 + steps or (end_edge != start_edge and end_edge in coeffs):
        raise CountMismatch("tree path revisits the transported edge pair")
    carried = up * dual.sigma[last] * end_sign
    if end_edge != start_edge:
        coeffs[end_edge] = carried
    elif carried != 1:
        raise CountMismatch(f"self-pair transport across twisted edge {end_edge}")
    return coeffs
