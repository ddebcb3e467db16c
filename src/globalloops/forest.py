"""Tree-cotree split over the whole complex, two ``Tree`` forests and one
mark per edge, and cocycle transport along the dual forest.

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
incidences on the edge are ``sign[h]`` and ``sign[twin[h]]``.

``transport`` puts +1 on a start edge of the first face, pushes it across
each face of the dual-tree path so that every face sum is zero, and
carries it onto an end edge of the last face; sigma and tau give every
value in closed form.  With c = -sigma(first) inc(first, start):

* an upward path edge, from a face a to its parent, carries c tau(a),
* a downward path edge, from the parent of a face b to b, carries -c tau(b),
* the end edge carries c sigma(last) inc(last, end).

A self-pair (start = end = e, between faces f1 and f2) must come back as
+1; it comes back as -1, the loop through e reversing orientation, exactly
when sigma(f1) inc(f1, e) sigma(f2) inc(f2, e) = +1.  These are the paper's
twisted edges (E_M_II), which ``is_twisted`` finds in O(1) before any path
is walked.  Each face and sign that either reads is an O(1) table lookup.
"""

from __future__ import annotations

from collections import deque

from .errors import CountMismatch, DualDisconnected, EdgeNotOnFace, NodeNotInTree
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
    the search.  The arms are slices of the circle rotated to the touched one.
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
    parent, parent_edge, depth = primal.parent, primal.parent_edge, primal.depth
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
        # Rotated to start at the entry, es[s] joins vs[s] and vs[s + 1]; each
        # arm vertex hangs from the one before it on its arm.
        vs, es = verts[i:] + verts[:i], edges[i:] + edges[:i]
        forward, backward = vs[1:up + 1], vs[:up:-1]
        d, t = depth[entry] + 1, tree_of[entry]
        for arm, above, via in ((forward, vs, es), (backward, [entry] + backward, es[:up:-1])):
            for step, v, p, eid in zip(range(d, d + n), arm, above, via):
                parent[v], parent_edge[v], depth[v], tree_of[v] = p, eid, step, t
        first, second = (backward, forward) if 0 < i <= n // 2 else (forward, backward)
        m = min(len(first), len(second))
        turns = [0] * (2 * m)
        turns[0::2], turns[1::2] = first[:m], second[:m]
        queue.extend(turns + first[m:] + second[m:])

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
    candidates, eid = [], taken.find(0)
    while eid >= 0:
        candidates.append(eid)
        eid = taken.find(0, eid + 1)
    expected = 2 * len(primal.roots) - euler_characteristic(complex) - len(holes)
    if len(candidates) != expected:
        raise CountMismatch(
            f"{len(candidates)} candidate edges, expected {expected}"
        )
    for eid in candidates:
        if complex.is_boundary_edge(eid):
            raise CountMismatch(f"boundary edge {eid} escaped both trees")
    return primal, dual, candidates


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
    # The deeper end rises, then both step together; one past a root raises.
    for _ in range(depth[a] - depth[b]):
        coeffs[parent_edge[a]] = up * tau[a]
        a = parent[a]
    for _ in range(depth[b] - depth[a]):
        coeffs[parent_edge[b]] = down * tau[b]
        b = parent[b]
    while a != b:
        coeffs[parent_edge[a]] = up * tau[a]
        coeffs[parent_edge[b]] = down * tau[b]
        a, b = parent[a], parent[b]
        if a < 0 or b < 0:
            raise CountMismatch(f"the walk from faces {first} and {last} passed a root")

    steps = depth[first] + depth[last] - 2 * depth[a]
    if len(coeffs) != 1 + steps or (end_edge != start_edge and end_edge in coeffs):
        raise CountMismatch("tree path revisits the transported edge pair")
    carried = up * dual.sigma[last] * end_sign
    if end_edge != start_edge:
        coeffs[end_edge] = carried
    elif carried != 1:
        raise CountMismatch(f"self-pair transport across twisted edge {end_edge}")
    return coeffs
