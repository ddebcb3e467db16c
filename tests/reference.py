"""Step-by-step references the tests compare the package's fast paths with.

``transport`` is the original face-by-face cocycle transport: it reads
every sign with ``SurfaceComplex.incidence`` and pushes the value across
one face at a time along an explicit ``tree_path``.  The package computes
the same values in closed form from the dual forest's face orientation.

``build_primal_tree`` and ``classify_boundary`` are the original searches:
a breadth-first search inside every boundary circle, absorbed as a
re-rooted fragment, and a breadth-first search over contact edges that
share a vertex.  The package reads the same trees and contact components
off each circle's traversal order.
"""

import warnings
from collections import deque
from dataclasses import dataclass

from globalloops.cochain import Cochain1
from globalloops.errors import (
    CountMismatch,
    EdgeNotOnFace,
    NodeNotInTree,
    NotABoundaryEdge,
)
from globalloops.forest import Tree
from globalloops.surface import (
    BoundaryCycle,
    BoundaryPartition,
    SurfaceComplex,
    boundary_components,
)


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


def build_primal_tree(
    complex: SurfaceComplex, holes: list[BoundaryCycle]
) -> tuple[Tree, list[int]]:
    """Boundary-first primal spanning forest, one tree per component.

    Returns the forest and the per-circle leftover boundary edges.  When a
    breadth-first search first touches a circle's partial tree, the whole
    fragment is absorbed at once (re-rooted at the touched vertex) so none
    of its edges are lost.
    """
    nv = complex.num_vertices
    fragment_of = [-1] * nv
    fragment_adj: list[dict[int, list[tuple[int, int]]]] = []
    leftovers: list[int] = []
    boundary = set(complex.boundary_edge_ids)

    for k, cyc in enumerate(holes):
        root = min(cyc.vertices)
        comp_edges = set(cyc.edges)
        # BFS restricted to this circle, lower vertex id first.
        adj: dict[int, list[tuple[int, int]]] = {v: [] for v in cyc.vertices}
        for eid in cyc.edges:
            a, b = complex.edges[eid]
            adj[a].append((eid, b))
            adj[b].append((eid, a))
        for v in adj:
            adj[v].sort(key=lambda item: item[1])
        visited = {root}
        used: set[int] = set()
        queue = deque([root])
        tree_adj: dict[int, list[tuple[int, int]]] = {v: [] for v in cyc.vertices}
        while queue:
            u = queue.popleft()
            for eid, w in adj[u]:
                if w not in visited:
                    visited.add(w)
                    used.add(eid)
                    tree_adj[u].append((eid, w))
                    tree_adj[w].append((eid, u))
                    queue.append(w)
        leftover = sorted(comp_edges - used)
        if len(leftover) != 1:
            raise CountMismatch(
                f"boundary circle {k} left {len(leftover)} edges out of its tree"
            )
        leftovers.append(leftover[0])
        for v in cyc.vertices:
            fragment_of[v] = k
        fragment_adj.append(tree_adj)

    tree = Tree(nv)
    queue: deque[int] = deque()

    def absorb(entry: int, parent: int, edge_id: int) -> None:
        # Attach the fragment containing `entry`, re-rooted at `entry`.
        if parent < 0:
            tree.add_root(entry)
        else:
            tree.attach(entry, parent, edge_id)
        queue.append(entry)
        k = fragment_of[entry]
        if k < 0:
            return
        adj = fragment_adj[k]
        inner = deque([entry])
        while inner:
            u = inner.popleft()
            for eid, w in adj[u]:
                if tree.tree_of[w] < 0:
                    tree.attach(w, u, eid)
                    queue.append(w)
                    inner.append(w)

    for root in range(nv):
        if tree.tree_of[root] >= 0:
            continue
        absorb(root, -1, -1)
        while queue:
            u = queue.popleft()
            for eid, w in complex.vertex_edges[u]:
                if eid in boundary or tree.tree_of[w] >= 0:
                    continue
                absorb(w, u, eid)
    return tree, leftovers


def classify_boundary(
    complex: SurfaceComplex, contact_edges: set[int] | frozenset[int] | list[int]
) -> BoundaryPartition:
    """Partition the boundary into contact components and the insulated rest.

    Contact components are connected by edge adjacency (shared vertices)
    within the boundary.  Raises NotABoundaryEdge when a contact edge is not
    on the boundary.
    """
    contact = set(contact_edges)
    boundary = set(complex.boundary_edge_ids)
    for eid in sorted(contact):
        if eid < 0 or eid >= complex.num_edges:
            raise NotABoundaryEdge(f"edge id {eid} is not an edge of the mesh")
        if eid not in boundary:
            raise NotABoundaryEdge(
                f"edge {complex.edges[eid]} (id {eid}) is not a boundary edge"
            )

    holes = boundary_components(complex)

    at_vertex: dict[int, list[int]] = {}
    for eid in contact:
        a, b = complex.edges[eid]
        at_vertex.setdefault(a, []).append(eid)
        at_vertex.setdefault(b, []).append(eid)

    components: list[list[int]] = []
    seen: set[int] = set()
    for seed in sorted(contact):
        if seed in seen:
            continue
        queue = deque([seed])
        seen.add(seed)
        comp = []
        while queue:
            eid = queue.popleft()
            comp.append(eid)
            for v in complex.edges[eid]:
                for other in at_vertex[v]:
                    if other not in seen:
                        seen.add(other)
                        queue.append(other)
        components.append(sorted(comp))
    components.sort(key=lambda comp: min(complex.edges[e][0] for e in comp))

    for j, comp in enumerate(components):
        if len(comp) == 1:
            warnings.warn(
                f"contact component {j} consists of a single edge "
                f"{complex.edges[comp[0]]}; a one-edge port is physically dubious",
                stacklevel=2,
            )

    return BoundaryPartition(
        hole_components=holes,
        contact_components=components,
        contact_edges=contact,
        insulated_edges=boundary - contact,
    )
