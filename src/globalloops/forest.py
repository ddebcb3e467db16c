"""Tree-cotree decomposition over the whole complex: a boundary-first primal
spanning forest and a constrained dual spanning forest that carries a face
orientation.

Both forests hold one tree per connected component, so one pass over the
complex serves every component.  Primal roots are taken in ascending vertex
id; each primal tree grows breadth first over interior edges and takes every
boundary circle it touches whole, as the path of all its edges but one, read
off the circle's traversal order (each boundary vertex has exactly two
boundary edges, so a circle is a simple cycle).  Each dual tree is rooted at
the minimal face of its component and spans its faces by crossing interior
edges that avoid the primal forest, a face's edges in ascending edge id.
The interior edges in neither forest index the candidate generators; the
one leftover edge of each boundary circle is in neither forest and is not a
candidate.

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
from dataclasses import dataclass, field

from .errors import CountMismatch, DualDisconnected
from .surface import BoundaryCycle, SurfaceComplex, euler_characteristic


class Tree:
    """Rooted forest over dense integer node ids, by parent pointers.

    Walking both endpoints up to their meeting node, the deeper one first,
    visits the unique tree path in O(path length).
    """

    def __init__(self, num_nodes: int):
        self.parent = [-1] * num_nodes
        self.parent_edge = [-1] * num_nodes
        self.depth = [0] * num_nodes
        # Index into ``roots`` of each node's tree; -1 outside the forest.
        self.tree_of = [-1] * num_nodes
        self.roots: list[int] = []
        self.edge_ids: set[int] = set()
        # Dual forest only: face orientation and its sign on the parent edge.
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
        self.edge_ids.add(edge_id)


@dataclass
class TreeCotree:
    """Primal and dual spanning forests plus the leftover edge bookkeeping."""

    primal: Tree
    dual: Tree
    leftover_per_hole: list[int]  # one boundary edge per circle, in circle order
    candidate_edges: list[int] = field(default_factory=list)  # sorted, in neither tree


def build_primal_tree(
    complex: SurfaceComplex, holes: list[BoundaryCycle]
) -> tuple[Tree, list[int]]:
    """Boundary-first primal spanning forest, one tree per component.

    Returns the forest and the per-circle leftover boundary edges.  A circle
    of n edges keeps ``edges[n // 2]`` out of the forest, the edge at which
    a breadth-first search from ``vertices[0]`` toward ``vertices[1]`` first
    would close up, for odd and even n alike.  When the breadth-first search
    over the mesh first touches a circle, the rest of the circle is attached
    at once as a path: outward from the touched vertex, one vertex per arm
    in turn, the arm toward ``vertices[0]`` first (from ``vertices[0]``
    itself, the arm through ``vertices[1]``).
    """
    nv = complex.num_vertices
    circle_of = [-1] * nv
    position = [0] * nv
    for k, cyc in enumerate(holes):
        for i, v in enumerate(cyc.vertices):
            circle_of[v] = k
            position[v] = i
    leftovers = [cyc.edges[len(cyc.edges) // 2] for cyc in holes]
    boundary = set(complex.boundary_edge_ids)

    tree = Tree(nv)
    queue: deque[int] = deque()

    def absorb(entry: int, parent: int, edge_id: int) -> None:
        # Attach `entry` and, when it lies on a circle, the rest of that circle.
        if parent < 0:
            tree.add_root(entry)
        else:
            tree.attach(entry, parent, edge_id)
        queue.append(entry)
        k = circle_of[entry]
        if k < 0:
            return
        verts, edges = holes[k].vertices, holes[k].edges
        n, i = len(edges), position[entry]
        up = (n // 2 - i) % n  # steps toward increasing index before the leftover
        arms = [(-1, n - 1 - up), (1, up)]  # (direction, length)
        if not 0 < i <= n // 2:
            arms.reverse()
        for step in range(1, max(up, n - 1 - up) + 1):
            for direction, length in arms:
                if step <= length:
                    j = (i + direction * step) % n
                    edge = edges[j] if direction < 0 else edges[j - 1]
                    tree.attach(verts[j], verts[(j - direction) % n], edge)
                    queue.append(verts[j])

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


def build_dual_tree(complex: SurfaceComplex, primal: Tree) -> Tree:
    """Dual spanning forest over the faces, avoiding primal-forest edges.

    Each component's tree is rooted at its minimal face and crosses only
    interior edges; ``sigma`` and ``tau`` are filled in as it grows (see the
    module docstring).  Raises DualDisconnected when the constrained dual
    graph splits a component, i.e. when it needs more roots than the primal
    forest.
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
                if len(incident) == 1 or eid in primal.edge_ids:
                    continue
                w = incident[1] if incident[0] == u else incident[0]
                if tree.tree_of[w] < 0:
                    tree.attach(w, u, eid)
                    # sigma(w) inc(w, e) = -sigma(u) inc(u, e) on a tree edge.
                    tau[w] = -sigma[u] * sign
                    queue.append(w)
    if len(tree.roots) > len(primal.roots):
        raise DualDisconnected(
            "constrained dual graph does not connect all faces of a component"
        )
    return tree


def build_tree_cotree(
    complex: SurfaceComplex, holes: list[BoundaryCycle]
) -> TreeCotree:
    """Full decomposition of the complex, candidate edges included."""
    primal, leftovers = build_primal_tree(complex, holes)
    tc = TreeCotree(
        primal=primal,
        dual=build_dual_tree(complex, primal),
        leftover_per_hole=leftovers,
    )
    tc.candidate_edges = compute_candidate_edges(complex, tc)
    return tc


def compute_candidate_edges(complex: SurfaceComplex, tc: TreeCotree) -> list[int]:
    """Edges in neither tree, leftovers excluded; they index the candidate
    generators.

    Their number must equal 2C minus the Euler characteristic minus the
    number of boundary circles (one leftover each), for C components; with
    one root per component in each forest this is the per-component count
    2 - chi - h summed.  A mismatch means the trees are inconsistent and
    raises CountMismatch.
    """
    leftovers = set(tc.leftover_per_hole)
    candidates = [
        eid
        for eid in range(complex.num_edges)
        if eid not in tc.primal.edge_ids
        and eid not in tc.dual.edge_ids
        and eid not in leftovers
    ]
    expected = 2 * len(tc.primal.roots) - euler_characteristic(complex) - len(leftovers)
    if len(candidates) != expected:
        raise CountMismatch(
            f"{len(candidates)} candidate edges, expected {expected}"
        )
    for eid in candidates:
        if complex.is_boundary_edge(eid):
            raise CountMismatch(f"boundary edge {eid} escaped both trees")
    return candidates
