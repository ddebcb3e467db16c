"""Tree-cotree split over the whole complex: two ``Tree`` forests and one
mark per edge.

``taken`` holds one byte per edge.  A boundary-first primal spanning forest
sets it on each of its tree edges and on every edge of each boundary circle;
a dual spanning forest then crosses only interior edges still unset, a
face's three half-edges in ascending edge id, and sets each edge it
crosses.  The edges left unset index the candidate generators.  Both
forests hold one tree per connected component, so one pass over the
complex serves every component.

Primal roots are taken in ascending vertex id; each primal tree grows
breadth first over interior edges and takes every boundary circle it touches
whole (each boundary vertex has exactly two boundary edges, so a circle is a
simple cycle): n - 1 of a circle's n edges are the tree's path around it,
and the one leftover edge is in neither forest and is not a candidate.  The
primal forest is kept as a ``Tree`` over the vertices, through which the
witness cycles of ``GeneratorSet.cycles`` close.  Each dual tree is rooted
at the minimal face of its component.

While the dual forest grows it records, per face, an orientation
``sigma`` (+1 or -1) that agrees across every dual-tree edge:
sigma(root) = +1 and sigma(child) = -sigma(parent) inc(parent, e)
inc(child, e) for the parent edge e, so the two faces of a tree edge
traverse it in opposite directions once reoriented.  ``tau[f]`` is
sigma(f) inc(f, parent edge of f), the reoriented sign of a face on its
parent edge.  Both are read off the complex's half-edge tables: across
half-edge h of the parent lies the child ``twin[h] // 3``, and the two
incidences on the edge are ``sign[h]`` and ``sign[twin[h]]``.  Transport
(``transport.py``) reads its values off sigma and tau in closed form.
"""

from __future__ import annotations

from collections import deque

from .errors import CountMismatch, DualDisconnected
from .surface import BoundaryCycle, SurfaceComplex, euler_characteristic


class Tree:
    """A spanning forest by parent pointers: the primal one over vertices,
    or the dual one over faces (a ``DualTree``, which adds its orientation).

    Its edges are the ``parent_edge`` of the non-root nodes; no separate
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

    def add_root(self, node: int) -> None:
        self.tree_of[node] = len(self.roots)
        self.roots.append(node)

    def attach(self, child: int, parent: int, edge_id: int) -> None:
        self.parent[child] = parent
        self.parent_edge[child] = edge_id
        self.depth[child] = self.depth[parent] + 1
        self.tree_of[child] = self.tree_of[parent]

    def preorder(self) -> list[int]:
        """Each node's rank in the depth-first preorder that takes trees in
        root order and children in ascending id; the forest must hold every
        node.  An explicit stack keeps it O(nodes)."""
        parent = self.parent
        children: list[list[int]] = [[] for _ in parent]
        # Lists in descending id, so the stack pops children in ascending id.
        for node in range(len(parent) - 1, -1, -1):
            if parent[node] >= 0:
                children[parent[node]].append(node)
        rank, stack = [0] * len(parent), self.roots[::-1]
        for k in range(len(rank)):
            node = stack.pop()
            rank[node] = k
            stack += children[node]
        return rank


class DualTree(Tree):
    """The dual forest over the faces, with its orientation (see the module
    docstring): ``sigma`` per face, and ``tau``, its sign on the parent
    edge."""

    def __init__(self, num_faces: int):
        super().__init__(num_faces)
        self.sigma = [1] * num_faces
        self.tau = [0] * num_faces


def build_primal_tree(
    complex: SurfaceComplex, holes: list[BoundaryCycle]
) -> tuple[bytearray, Tree]:
    """Boundary-first primal spanning forest, one tree per component.

    Returns ``taken``, one byte per edge set on every tree edge and every
    edge of ``holes``, and the forest over the vertices.  When the
    breadth-first search first touches a circle, it takes the path that
    leaves out ``edges[n // 2]`` of a circle of n edges (where a
    breadth-first search from ``vertices[0]`` toward ``vertices[1]`` would
    close up, for odd and even n alike): each vertex hangs from its
    neighbour toward the touched one and joins the queue outward, one per
    arm in turn, the arm toward ``vertices[0]`` first (from ``vertices[0]``
    itself, the arm through ``vertices[1]``).  That order fixes the rest of
    the search.
    """
    nv = complex.num_vertices
    circle_of = [-1] * nv
    position = [0] * nv
    for k, cyc in enumerate(holes):
        for i, v in enumerate(cyc.vertices):
            circle_of[v] = k
            position[v] = i
    taken = bytearray(complex.num_edges)
    primal = Tree(nv)
    tree_of, attach = primal.tree_of, primal.attach
    edges, vertex_edges = complex.edges, complex.vertex_edges
    queue: deque[int] = deque()

    def absorb(entry: int) -> None:
        # Queue `entry` and, when it lies on a circle, the rest of that circle.
        queue.append(entry)
        k = circle_of[entry]
        if k < 0:
            return
        verts, edges = holes[k].vertices, holes[k].edges
        for eid in edges:
            taken[eid] = 1
        n, i = len(verts), position[entry]
        up = (n // 2 - i) % n  # steps toward increasing index before the leftover
        arms = [(-1, n - 1 - up), (1, up)]  # (direction, length)
        if not 0 < i <= n // 2:
            arms.reverse()
        for step in range(1, max(up, n - 1 - up) + 1):
            for direction, length in arms:
                if step <= length:
                    j = (i + direction * step) % n
                    # The parent is the previous vertex on the arm, and
                    # edges[j] joins verts[j] and verts[j + 1].
                    eid = edges[j] if direction < 0 else edges[j - 1]
                    attach(verts[j], verts[(j - direction) % n], eid)
                    queue.append(verts[j])

    for root in range(nv):
        if tree_of[root] >= 0:
            continue
        primal.add_root(root)
        absorb(root)
        while queue:
            u = queue.popleft()
            # Circles are taken whole, so every boundary edge leads to a
            # vertex already in the forest.
            for eid in vertex_edges[u]:
                a, b = edges[eid]
                w = b if a == u else a
                if tree_of[w] < 0:
                    taken[eid] = 1
                    attach(w, u, eid)
                    absorb(w)
    return taken, primal


def build_dual_tree(complex: SurfaceComplex, taken: bytearray) -> DualTree:
    """Dual spanning forest over the faces across interior edges not yet
    ``taken``; each edge it crosses is marked taken.

    Each tree is rooted at the minimal face it reaches; a face's ``sigma``
    and ``tau`` are set when it is attached (see the module docstring).
    """
    tree = DualTree(complex.num_faces)
    sigma, tau, tree_of = tree.sigma, tree.tau, tree.tree_of
    parent, parent_edge, depth = tree.parent, tree.parent_edge, tree.depth
    half, sign, twin = complex.half, complex.sign, complex.twin
    queue: deque[int] = deque()
    for root in range(complex.num_faces):
        if tree_of[root] >= 0:
            continue
        tree.add_root(root)
        queue.append(root)
        while queue:
            u = queue.popleft()
            # The face's three half-edges in ascending edge id.
            i, j, k = 3 * u, 3 * u + 1, 3 * u + 2
            if half[i] > half[j]:
                i, j = j, i
            if half[j] > half[k]:
                j, k = k, j
                if half[i] > half[j]:
                    i, j = j, i
            for h in (i, j, k):
                t = twin[h]
                if t < 0 or taken[half[h]]:
                    continue
                w = t // 3
                if tree_of[w] < 0:
                    # Tree.attach, written out.
                    taken[half[h]] = 1
                    parent[w], parent_edge[w] = u, half[h]
                    depth[w], tree_of[w] = depth[u] + 1, tree_of[u]
                    # sigma(w) inc(w, e) = -sigma(u) inc(u, e) on a tree edge.
                    tau[w] = -sigma[u] * sign[h]
                    sigma[w] = tau[w] * sign[t]
                    queue.append(w)
    return tree


def build_tree_cotree(
    complex: SurfaceComplex, holes: list[BoundaryCycle]
) -> tuple[Tree, DualTree, list[int]]:
    """The primal forest, the dual forest and the candidate edges, those
    left untaken, in ascending order.

    Raises DualDisconnected when the dual forest needs more roots than the
    primal one, i.e. when the untaken edges split a component.  The
    candidates must number 2C minus the Euler characteristic minus the
    number of boundary circles (one leftover each), for C components, which
    is the per-component count 2 - chi - h summed, and none may be a
    boundary edge; otherwise the forests are inconsistent and
    CountMismatch is raised.
    """
    taken, primal = build_primal_tree(complex, holes)
    dual = build_dual_tree(complex, taken)
    if len(dual.roots) > len(primal.roots):
        raise DualDisconnected(
            "constrained dual graph does not connect all faces of a component"
        )
    candidates = [eid for eid, mark in enumerate(taken) if not mark]
    expected = 2 * len(primal.roots) - euler_characteristic(complex) - len(holes)
    if len(candidates) != expected:
        raise CountMismatch(
            f"{len(candidates)} candidate edges, expected {expected}"
        )
    for eid in candidates:
        if complex.is_boundary_edge(eid):
            raise CountMismatch(f"boundary edge {eid} escaped both trees")
    return primal, dual, candidates
