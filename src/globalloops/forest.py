"""Tree-cotree decomposition over the whole complex: a boundary-first primal
spanning forest, a constrained dual spanning forest, and unique tree paths.

Both forests hold one tree per connected component, so one pass over the
complex serves every component.  Primal roots are taken in ascending vertex
id; each primal tree is grown breadth first inside every boundary circle of
its component (covering all but one edge of the circle) and then extended
breadth first over the rest of the component.  Each dual tree is rooted at
the minimal face of its component and spans its faces by crossing interior
edges that avoid the primal forest, a face's edges in ascending edge id.
The interior edges in neither forest index the candidate generators; the
one leftover edge of each boundary circle is in neither forest and is not a
candidate.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import CountMismatch, DualDisconnected, NodeNotInTree
from .surface import BoundaryCycle, SurfaceComplex, euler_characteristic


@dataclass
class Path:
    """Alternating node/edge walk: edges[i] joins nodes[i] and nodes[i+1]."""

    nodes: tuple[int, ...]
    edges: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.nodes)


class Tree:
    """Rooted forest over dense integer node ids with parent-pointer paths.

    Path extraction lifts the deeper endpoint to the common level and then
    walks both chains to the meeting node, so each query costs O(path
    length) after the O(size) construction.
    """

    def __init__(self, num_nodes: int):
        self.parent = [-1] * num_nodes
        self.parent_edge = [-1] * num_nodes
        self.depth = [0] * num_nodes
        # Index into ``roots`` of each node's tree; -1 outside the forest.
        self.tree_of = [-1] * num_nodes
        self.roots: list[int] = []
        self.edge_ids: set[int] = set()

    def __contains__(self, node: int) -> bool:
        return self.tree_of[node] >= 0

    def add_root(self, node: int) -> None:
        self.tree_of[node] = len(self.roots)
        self.roots.append(node)

    def attach(self, child: int, parent: int, edge_id: int) -> None:
        self.parent[child] = parent
        self.parent_edge[child] = edge_id
        self.depth[child] = self.depth[parent] + 1
        self.tree_of[child] = self.tree_of[parent]
        self.edge_ids.add(edge_id)

    def path(self, a: int, b: int) -> Path:
        if a not in self:
            raise NodeNotInTree(a)
        if b not in self:
            raise NodeNotInTree(b)
        if self.tree_of[a] != self.tree_of[b]:
            raise NodeNotInTree(f"nodes {a} and {b} lie in different trees")
        left_nodes: list[int] = []
        left_edges: list[int] = []
        right_nodes: list[int] = []
        right_edges: list[int] = []
        while self.depth[a] > self.depth[b]:
            left_nodes.append(a)
            left_edges.append(self.parent_edge[a])
            a = self.parent[a]
        while self.depth[b] > self.depth[a]:
            right_nodes.append(b)
            right_edges.append(self.parent_edge[b])
            b = self.parent[b]
        while a != b:
            left_nodes.append(a)
            left_edges.append(self.parent_edge[a])
            a = self.parent[a]
            right_nodes.append(b)
            right_edges.append(self.parent_edge[b])
            b = self.parent[b]
        nodes = left_nodes + [a] + right_nodes[::-1]
        edges = left_edges + right_edges[::-1]
        return Path(nodes=tuple(nodes), edges=tuple(edges))


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


def build_dual_tree(complex: SurfaceComplex, primal: Tree) -> Tree:
    """Dual spanning forest over the faces, avoiding primal-forest edges.

    Each component's tree is rooted at its minimal face and crosses only
    interior edges.  Raises DualDisconnected when the constrained dual graph
    splits a component, i.e. when it needs more roots than the primal forest.
    """
    tree = Tree(complex.num_faces)
    queue: deque[int] = deque()
    for root in range(complex.num_faces):
        if tree.tree_of[root] >= 0:
            continue
        tree.add_root(root)
        queue.append(root)
        while queue:
            u = queue.popleft()
            for eid, _ in sorted(complex.face_edges[u]):
                incident = complex.edge_faces[eid]
                if len(incident) == 1 or eid in primal.edge_ids:
                    continue
                w = incident[1] if incident[0] == u else incident[0]
                if tree.tree_of[w] < 0:
                    tree.attach(w, u, eid)
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
