"""Tree-cotree decomposition, dual-forest orientation and tree paths."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import meshes
import reference
from reference import face_edges
from globalloops import forest
from globalloops.errors import CountMismatch, DualDisconnected, NodeNotInTree
from globalloops.forest import Tree, build_dual_tree, build_primal_tree, build_tree_cotree
from globalloops.surface import boundary_components
from globalloops.transport import transport


def decompose(K):
    """The dual forest and the candidate edges."""
    return build_tree_cotree(K, boundary_components(K))[1:]


def split(K):
    """(primal tree edges, dual tree edges, circle leftovers, candidates):
    the primal forest's marks less each circle's leftover, the dual forest's
    parent edges, and the untaken edges."""
    holes = boundary_components(K)
    taken, _ = build_primal_tree(K, holes)
    leftovers = [cyc.edges[len(cyc.edges) // 2] for cyc in holes]
    primal = {eid for eid, mark in enumerate(taken) if mark} - set(leftovers)
    _, dual, candidates = build_tree_cotree(K, holes)
    crossed = {dual.parent_edge[f] for f in range(K.num_faces) if dual.parent[f] >= 0}
    return primal, crossed, leftovers, candidates


def test_single_triangle():
    K = meshes.triangle()
    primal, crossed, leftovers, candidates = split(K)
    assert len(primal) == 2
    assert len(leftovers) == 1
    assert crossed == set()  # one face, nothing to cross
    assert candidates == []


def test_annulus_leftovers_one_per_circle():
    K = meshes.annulus(6)
    holes = boundary_components(K)
    primal, crossed, leftovers, candidates = split(K)
    assert len(leftovers) == 2
    for leftover, cyc in zip(leftovers, holes):
        assert leftover in set(cyc.edges)
        assert leftover not in primal | crossed
    assert len(crossed) == K.num_faces - 1
    assert candidates == []


def test_boundary_tree_is_spanning_inside_each_circle():
    K = meshes.pair_of_pants()
    holes = boundary_components(K)
    primal, _, leftovers, _ = split(K)
    for cyc, leftover in zip(holes, leftovers):
        inside = set(cyc.edges) & primal
        assert len(inside) == len(cyc.edges) - 1
        assert leftover not in inside


def test_closed_torus():
    K = meshes.csaszar_torus()
    primal, _, leftovers, candidates = split(K)
    assert len(primal) == K.num_vertices - 1
    assert leftovers == []
    assert len(candidates) == 2


def test_octahedron_dual_tree_size():
    K = meshes.octahedron()
    _, crossed, _, _ = split(K)
    assert len(crossed) == 7


def test_candidate_counts():
    expectations = [
        (meshes.disk(6), 0),
        (meshes.csaszar_torus(), 2),
        (meshes.moebius(6), 1),
        (meshes.klein_minus_disk(), 2),
        (meshes.genus2(), 4),
    ]
    for K, expected in expectations:
        _, candidates = decompose(K)
        assert len(candidates) == expected


def test_edge_partition():
    # Primal tree, dual tree, circle leftovers and candidates split the
    # edges exactly, and the primal tree edges form a spanning forest.
    for K in (
        meshes.annulus(6),
        meshes.moebius(6),
        meshes.pair_of_pants(),
        meshes.genus2(),
        meshes.klein_minus_disk(),
    ):
        primal, crossed, leftovers, candidates = split(K)
        groups = [primal, crossed, set(leftovers), set(candidates)]
        assert sum(len(g) for g in groups) == K.num_edges
        assert set.union(*groups) == set(range(K.num_edges))
        assert candidates == sorted(candidates)
        for eid in candidates:
            assert not K.is_boundary_edge(eid)
        assert len(primal) == K.num_vertices - 1
        root = list(range(K.num_vertices))

        def find(v):
            while root[v] != v:
                v = root[v]
            return v

        for eid in primal:
            a, b = (find(v) for v in K.edges[eid])
            assert a != b
            root[a] = b


def transport_support(K, dual, a, b):
    """Support of a transport from face a to face b minus its two end edges,
    the ends chosen off the tree path (three edges per face leave room)."""
    path_edges = set(reference.tree_path(dual, a, b).edges)
    triples = face_edges(K)
    start = next(e for e, _ in triples[a] if e not in path_edges)
    end = next(e for e, _ in triples[b] if e != start and e not in path_edges)
    support = set(transport(K, dual, a, b, start, end))
    assert {start, end} <= support
    return support - {start, end}


class TestTreePaths:
    # Transport walks the dual-tree path by parent pointers; its support is
    # the path plus the two end edges.
    def test_trivial_path(self):
        K = meshes.annulus(6)
        dual, _ = decompose(K)
        assert transport_support(K, dual, 3, 3) == set()

    def test_adjacent_nodes(self):
        K = meshes.annulus(6)
        dual, _ = decompose(K)
        child = next(
            n for n in range(K.num_faces) if dual.parent[n] >= 0
        )
        parent = dual.parent[child]
        expected = {dual.parent_edge[child]}
        assert transport_support(K, dual, child, parent) == expected
        assert transport_support(K, dual, parent, child) == expected

    def test_matches_breadth_first_search(self):
        # Brute-force BFS over the tree edges is the independent oracle.
        K = meshes.disk(6)
        dual, _ = decompose(K)
        adj = {}
        for node in range(K.num_faces):
            parent = dual.parent[node]
            if parent >= 0 and parent < K.num_faces:
                eid = dual.parent_edge[node]
                adj.setdefault(node, []).append((eid, parent))
                adj.setdefault(parent, []).append((eid, node))
        for a in range(K.num_faces):
            for b in range(K.num_faces):
                back = {a: (None, None)}
                queue = deque([a])
                while queue:
                    u = queue.popleft()
                    for eid, w in adj.get(u, []):
                        if w not in back:
                            back[w] = (u, eid)
                            queue.append(w)
                nodes = [b]
                edges = []
                while nodes[-1] != a:
                    prev, eid = back[nodes[-1]]
                    edges.append(eid)
                    nodes.append(prev)
                expected_nodes = tuple(reversed(nodes))
                expected_edges = tuple(reversed(edges))
                path = reference.tree_path(dual, a, b)
                assert path.nodes == expected_nodes
                assert path.edges == expected_edges
                assert transport_support(K, dual, a, b) == set(expected_edges)

    def test_missing_node_raises(self):
        K = meshes.annulus(6)
        tree = Tree(K.num_faces)
        tree.add_root(0)
        tree.attach(1, 0, 7)
        with pytest.raises(NodeNotInTree):
            transport(K, tree, 0, 2, face_edges(K)[0][0][0], face_edges(K)[2][0][0])

    def test_path_between_trees_raises(self):
        torus = meshes.csaszar_torus()
        K = meshes.disjoint_union(torus, meshes.annulus(6))
        dual, _ = decompose(K)
        far = torus.num_faces
        with pytest.raises(NodeNotInTree):
            transport(K, dual, 0, far, face_edges(K)[0][0][0], face_edges(K)[far][0][0])
        _, primal = build_primal_tree(K, boundary_components(K))
        assert primal.roots == [0, torus.num_vertices]


@pytest.mark.parametrize(
    "K",
    [
        meshes.annulus(6),
        meshes.moebius(6),
        meshes.klein_minus_disk(),
        meshes.random_annulus(3),
        meshes.disjoint_union(meshes.csaszar_torus(), meshes.moebius(6)),
    ],
)
def test_dual_orientation_matches_its_definition(K):
    # sigma and tau, read off sign and twin while the forest grows, equal the
    # defining formulas evaluated with incidence() on the finished forest.
    dual, _ = decompose(K)
    sigma, tau = list(dual.sigma), list(dual.tau)
    reference.orient(K, dual)
    assert (sigma, tau) == (dual.sigma, dual.tau)
    assert {sigma[root] for root in dual.roots} == {1}
    assert set(sigma) <= {-1, 1}


def test_one_tree_per_component():
    torus, moebius = meshes.csaszar_torus(), meshes.moebius(6)
    K = meshes.disjoint_union(torus, moebius, meshes.annulus(6))
    dual, _ = decompose(K)
    offsets_v = [0, torus.num_vertices, torus.num_vertices + moebius.num_vertices]
    offsets_f = [0, torus.num_faces, torus.num_faces + moebius.num_faces]
    assert build_primal_tree(K, boundary_components(K))[1].roots == offsets_v
    assert dual.roots == offsets_f
    # Each face is labelled with its component, numbered as
    # the reference face search numbers them.
    for cid, faces in enumerate(reference.connected_components(K)):
        assert {dual.tree_of[f] for f in faces} == {cid}
    primal, crossed, _, candidates = split(K)
    assert len(primal) == K.num_vertices - 3
    assert len(crossed) == K.num_faces - 3
    # Torus 2, Moebius strip 1, annulus 0.
    assert len(candidates) == 3


def all_taken(K):
    return bytearray([1]) * K.num_edges


def primal_with(monkeypatch, change):
    """Route build_tree_cotree through the real primal forest with its
    marks passed through ``change(taken)``."""
    real = forest.build_primal_tree

    def changed(complex, holes):
        taken, primal = real(complex, holes)
        return change(taken), primal

    monkeypatch.setattr(forest, "build_primal_tree", changed)


def test_split_dual_forest_raises(monkeypatch):
    # Taking every edge leaves each face its own dual tree.
    K = meshes.annulus(6)
    assert build_dual_tree(K, all_taken(K)).roots == list(range(K.num_faces))
    primal_with(monkeypatch, lambda taken: all_taken(K))
    with pytest.raises(DualDisconnected):
        decompose(K)


def test_lost_candidate_raises(monkeypatch):
    # A candidate taken early is left out of both forests and the count.
    K = meshes.csaszar_torus()
    _, (first, _) = decompose(K)

    def take_first(taken):
        taken[first] = 1
        return taken

    primal_with(monkeypatch, take_first)
    with pytest.raises(CountMismatch, match="1 candidate edges, expected 2"):
        decompose(K)


def test_boundary_candidate_raises(monkeypatch):
    # Trading a candidate for a circle's leftover keeps the count right.
    K = meshes.torus_with_hole()
    (cyc,) = boundary_components(K)
    leftover = cyc.edges[len(cyc.edges) // 2]
    _, (first, *_) = decompose(K)

    def trade(taken):
        taken[first], taken[leftover] = 1, 0
        return taken

    primal_with(monkeypatch, trade)
    with pytest.raises(CountMismatch, match=f"boundary edge {leftover} escaped"):
        decompose(K)


samples = st.builds(
    meshes.sample, st.sampled_from(meshes.SAMPLE_KINDS), st.integers(0, 10**6)
)


def reference_marks(K, tree, holes):
    """The reference primal forest ``tree`` as marks: its tree edges and
    every circle edge taken."""
    taken = bytearray(K.num_edges)
    for eid in tree.parent_edge:
        if eid >= 0:
            taken[eid] = 1
    for cyc in holes:
        for eid in cyc.edges:
            taken[eid] = 1
    return taken


@settings(deadline=None, max_examples=100)
@given(samples)
def test_primal_forest_matches_the_circle_search(K):
    # Circle paths read off the traversal order give the forest of the
    # reference's search inside each circle, absorbed re-rooted: the same
    # marks, roots, parents, parent edges, depths and tree labels.
    holes = boundary_components(K)
    taken, primal = build_primal_tree(K, holes)
    tree, _ = reference.build_primal_tree(K, holes)
    assert taken == reference_marks(K, tree, holes)
    for field in ("roots", "parent", "parent_edge", "depth", "tree_of"):
        assert getattr(primal, field) == getattr(tree, field), field


@settings(deadline=None, max_examples=100)
@given(samples)
def test_dual_forest_fields_agree_across_each_tree_edge(K):
    # The dual search writes parent, parent_edge, depth and tree_of itself.
    # Each root heads its own tree at depth 0; each other face hangs one
    # deeper than its parent, in its tree, across an edge of both faces.
    dual, _ = decompose(K)
    parent, parent_edge, depth, tree_of = dual.parent, dual.parent_edge, dual.depth, dual.tree_of
    for k, root in enumerate(dual.roots):
        assert (parent[root], parent_edge[root], depth[root], tree_of[root]) == (-1, -1, 0, k)
    for w in set(range(K.num_faces)) - set(dual.roots):
        u = parent[w]
        assert u >= 0
        assert depth[w] == depth[u] + 1
        assert tree_of[w] == tree_of[u]
        assert set(K.edges[parent_edge[w]]) <= set(K.faces[w]) & set(K.faces[u])


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 12])
def test_circle_leftover_is_the_middle_edge(n):
    # The rim of disk(n) is traversed 1, 2, ..., n: a search from vertex 1
    # closes up on the edge after vertex n // 2 + 1, for odd and even n.
    K = meshes.disk(n)
    (cyc,) = boundary_components(K)
    tree, leftovers = reference.build_primal_tree(K, [cyc])
    assert leftovers == [cyc.edges[n // 2]]
    assert K.edges[leftovers[0]] == (n // 2 + 1, n // 2 + 2)
    assert set(cyc.edges) - set(tree.parent_edge) == set(leftovers)
    # The package takes the whole circle, the leftover included.
    taken, _ = build_primal_tree(K, [cyc])
    assert all(taken[eid] for eid in cyc.edges)
