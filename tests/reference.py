"""Step-by-step references the tests compare the package's fast paths with.

``transport`` is the original face-by-face cocycle transport: it reads
every sign with ``SurfaceComplex.incidence`` and pushes the value across
one face at a time along an explicit ``tree_path``.  The package computes
the same values in closed form from the dual forest's face orientation.
"""

from dataclasses import dataclass

from globalloops.cochain import Cochain1
from globalloops.errors import CountMismatch, EdgeNotOnFace, NodeNotInTree


@dataclass
class Path:
    """Alternating node/edge walk: edges[i] joins nodes[i] and nodes[i+1]."""

    nodes: tuple[int, ...]
    edges: tuple[int, ...]


def tree_path(tree, a, b):
    """The unique path from node a to node b of a parent-pointer forest."""
    if tree.tree_of[a] < 0:
        raise NodeNotInTree(a)
    if tree.tree_of[b] < 0:
        raise NodeNotInTree(b)
    if tree.tree_of[a] != tree.tree_of[b]:
        raise NodeNotInTree(f"nodes {a} and {b} lie in different trees")
    left_nodes, left_edges, right_nodes, right_edges = [], [], [], []
    while tree.depth[a] > tree.depth[b]:
        left_nodes.append(a)
        left_edges.append(tree.parent_edge[a])
        a = tree.parent[a]
    while tree.depth[b] > tree.depth[a]:
        right_nodes.append(b)
        right_edges.append(tree.parent_edge[b])
        b = tree.parent[b]
    while a != b:
        left_nodes.append(a)
        left_edges.append(tree.parent_edge[a])
        a = tree.parent[a]
        right_nodes.append(b)
        right_edges.append(tree.parent_edge[b])
        b = tree.parent[b]
    nodes = left_nodes + [a] + right_nodes[::-1]
    edges = left_edges + right_edges[::-1]
    return Path(nodes=tuple(nodes), edges=tuple(edges))


@dataclass
class TransportResult:
    cochain: Cochain1
    consistent: bool


def transport(complex, path, start_edge, end_edge):
    """Push +1 on start_edge across each face of the path onto end_edge.

    A self-pair whose value comes back as -1 yields the zero cochain with
    consistent=False.
    """
    faces = path.nodes
    first, last = faces[0], faces[-1]
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


def orient(complex, tree):
    """Fill a hand-built dual forest's ``sigma``/``tau`` from their defining
    formulas, reading every sign with ``SurfaceComplex.incidence``."""
    for face in sorted(range(len(tree.parent)), key=tree.depth.__getitem__):
        parent = tree.parent[face]
        if tree.tree_of[face] < 0 or parent < 0:
            continue
        edge = tree.parent_edge[face]
        tree.sigma[face] = (
            -tree.sigma[parent]
            * complex.incidence(parent, edge)
            * complex.incidence(face, edge)
        )
        tree.tau[face] = tree.sigma[face] * complex.incidence(face, edge)
    return tree
