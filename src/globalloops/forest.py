"""Tree-cotree split over the whole complex, kept as one mark per edge.

``taken`` holds one byte per edge.  A boundary-first primal spanning forest
sets it on each of its tree edges and on every edge of each boundary circle;
a dual spanning forest then crosses only interior edges still unset, a
face's edges in ascending edge id, and sets each edge it crosses.  The edges
left unset index the candidate generators.  Both forests hold one tree per
connected component, so one pass over the complex serves every component.

Primal roots are taken in ascending vertex id; each primal tree grows
breadth first over interior edges and takes every boundary circle it touches
whole (each boundary vertex has exactly two boundary edges, so a circle is a
simple cycle): n - 1 of a circle's n edges are the tree's path around it,
and the one leftover edge is in neither forest and is not a candidate.  Only
the marks are kept, not the primal tree.  Each dual tree is rooted at the
minimal face of its component.

While the dual forest grows it records, per face, an orientation
``sigma`` (+1 or -1) that agrees across every dual-tree edge:
sigma(root) = +1 and sigma(child) = -sigma(parent) inc(parent, e)
inc(child, e) for the parent edge e, so the two faces of a tree edge
traverse it in opposite directions once reoriented.  ``tau[f]`` is
sigma(f) inc(f, parent edge of f), the reoriented sign of a face on its
parent edge.  Both come from the signed pairs of ``face_edges``; transport
(``transport.py``) reads its values off them in closed form.
"""

from __future__ import annotations

from collections import deque

from .errors import CountMismatch, DualDisconnected
from .surface import BoundaryCycle, SurfaceComplex, euler_characteristic


class Tree:
    """The dual spanning forest: faces by parent pointers, with their
    orientation.

    Its edges are the ``parent_edge`` of the non-root faces; no separate
    edge set is kept.  Walking both endpoints up to their meeting node, the
    deeper one first, visits the unique tree path in O(path length).
    """

    def __init__(self, num_nodes: int):
        self.parent = [-1] * num_nodes
        self.parent_edge = [-1] * num_nodes
        self.depth = [0] * num_nodes
        # Index into ``roots`` of each node's tree; -1 outside the forest.
        self.tree_of = [-1] * num_nodes
        self.roots: list[int] = []
        # Face orientation and its sign on the parent edge.
        self.sigma = [1] * num_nodes
        self.tau = [0] * num_nodes

    def add_root(self, node: int) -> None:
        self.tree_of[node] = len(self.roots)
        self.roots.append(node)

    def attach(self, child: int, parent: int, edge_id: int) -> None:
        self.parent[child] = parent
        self.parent_edge[child] = edge_id
        self.depth[child] = self.depth[parent] + 1
        self.tree_of[child] = self.tree_of[parent]


def build_primal_tree(
    complex: SurfaceComplex, holes: list[BoundaryCycle]
) -> tuple[bytearray, list[int]]:
    """Boundary-first primal spanning forest, one tree per component.

    Returns ``taken``, one byte per edge set on every tree edge and every
    edge of ``holes``, and the roots.  When the breadth-first search over
    the mesh first touches a circle, the circle's other vertices join the
    queue at once, in the order of the path that leaves out ``edges[n // 2]``
    of a circle of n edges (where a breadth-first search from
    ``vertices[0]`` toward ``vertices[1]`` would close up, for odd and even
    n alike): outward from the touched vertex, one vertex per arm in turn,
    the arm toward ``vertices[0]`` first (from ``vertices[0]`` itself, the
    arm through ``vertices[1]``).  That order fixes the rest of the search.
    """
    nv = complex.num_vertices
    circle_of = [-1] * nv
    position = [0] * nv
    for k, cyc in enumerate(holes):
        for i, v in enumerate(cyc.vertices):
            circle_of[v] = k
            position[v] = i
    taken = bytearray(complex.num_edges)
    visited = bytearray(nv)
    roots: list[int] = []
    queue: deque[int] = deque()

    def absorb(entry: int) -> None:
        # Queue `entry` and, when it lies on a circle, the rest of that circle.
        visited[entry] = 1
        queue.append(entry)
        k = circle_of[entry]
        if k < 0:
            return
        verts = holes[k].vertices
        for eid in holes[k].edges:
            taken[eid] = 1
        n, i = len(verts), position[entry]
        up = (n // 2 - i) % n  # steps toward increasing index before the leftover
        arms = [(-1, n - 1 - up), (1, up)]  # (direction, length)
        if not 0 < i <= n // 2:
            arms.reverse()
        for step in range(1, max(up, n - 1 - up) + 1):
            for direction, length in arms:
                if step <= length:
                    v = verts[(i + direction * step) % n]
                    visited[v] = 1
                    queue.append(v)

    for root in range(nv):
        if visited[root]:
            continue
        roots.append(root)
        absorb(root)
        while queue:
            u = queue.popleft()
            # Circles are taken whole, so every boundary edge leads to a
            # visited vertex.
            for eid, w in complex.vertex_edges[u]:
                if not visited[w]:
                    taken[eid] = 1
                    absorb(w)
    return taken, roots


def build_dual_tree(complex: SurfaceComplex, taken: bytearray) -> Tree:
    """Dual spanning forest over the faces across interior edges not yet
    ``taken``; each edge it crosses is marked taken.

    Each tree is rooted at the minimal face it reaches; ``sigma`` and
    ``tau`` are filled in as it grows (see the module docstring).
    """
    tree = Tree(complex.num_faces)
    sigma, tau, parent_edge = tree.sigma, tree.tau, tree.parent_edge
    queue: deque[int] = deque()
    for root in range(complex.num_faces):
        if tree.tree_of[root] >= 0:
            continue
        tree.add_root(root)
        queue.append(root)
        while queue:
            u = queue.popleft()
            sides = sorted(complex.face_edges[u])
            for eid, sign in sides:
                if eid == parent_edge[u]:
                    sigma[u] = tau[u] * sign
                    break
            for eid, sign in sides:
                incident = complex.edge_faces[eid]
                if len(incident) == 1 or taken[eid]:
                    continue
                w = incident[1] if incident[0] == u else incident[0]
                if tree.tree_of[w] < 0:
                    taken[eid] = 1
                    tree.attach(w, u, eid)
                    # sigma(w) inc(w, e) = -sigma(u) inc(u, e) on a tree edge.
                    tau[w] = -sigma[u] * sign
                    queue.append(w)
    return tree


def build_tree_cotree(
    complex: SurfaceComplex, holes: list[BoundaryCycle]
) -> tuple[Tree, list[int]]:
    """The dual forest and the candidate edges, those left untaken, in
    ascending order.

    Raises DualDisconnected when the dual forest needs more roots than the
    primal one, i.e. when the untaken edges split a component.  The
    candidates must number 2C minus the Euler characteristic minus the
    number of boundary circles (one leftover each), for C components, which
    is the per-component count 2 - chi - h summed, and none may be a
    boundary edge; otherwise the forests are inconsistent and
    CountMismatch is raised.
    """
    taken, roots = build_primal_tree(complex, holes)
    dual = build_dual_tree(complex, taken)
    if len(dual.roots) > len(roots):
        raise DualDisconnected(
            "constrained dual graph does not connect all faces of a component"
        )
    candidates = [eid for eid, mark in enumerate(taken) if not mark]
    expected = 2 * len(roots) - euler_characteristic(complex) - len(holes)
    if len(candidates) != expected:
        raise CountMismatch(
            f"{len(candidates)} candidate edges, expected {expected}"
        )
    for eid in candidates:
        if complex.is_boundary_edge(eid):
            raise CountMismatch(f"boundary edge {eid} escaped both trees")
    return dual, candidates
