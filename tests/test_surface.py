"""Complex construction, boundary structure, and components as the dual
forest numbers them."""

import random
import warnings
from itertools import repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import meshes
import reference
from reference import edge_faces, face_edges
from globalloops.forest import build_tree_cotree
from globalloops.generators import compute_generators
from globalloops.surface import (
    SurfaceComplex,
    boundary_components,
    build_complex,
    classify_boundary,
    euler_characteristic,
)
from globalloops.errors import (
    DegenerateFace,
    DuplicateFace,
    IsolatedVertex,
    NonManifoldEdge,
    NotABoundaryEdge,
    PinchVertex,
)


def corpus():
    return [
        meshes.triangle(),
        meshes.two_triangles(),
        meshes.octahedron(),
        meshes.disk(6),
        meshes.annulus(6),
        meshes.csaszar_torus(),
        meshes.moebius(6),
        meshes.klein_minus_disk(),
        meshes.pair_of_pants(),
        meshes.genus2(),
    ]


class TestBuildComplex:
    def test_single_triangle(self):
        K = meshes.triangle()
        assert (K.num_vertices, K.num_edges, K.num_faces) == (3, 3, 1)
        assert all(abs(s) == 1 for _, s in face_edges(K)[0])
        # Face (0, 1, 2) runs along edge (0, 1) from tail to head.
        assert K.incidence(0, K.edge_index[(0, 1)]) == 1

    def test_ids_off_the_edge_list_are_not_boundary_edges(self):
        # -1 would otherwise read the last edge, and E would raise.
        K = meshes.triangle()
        assert all(map(K.is_boundary_edge, range(3)))
        assert not K.is_boundary_edge(-1)
        assert not K.is_boundary_edge(3)

    def test_two_triangles_shared_edge(self):
        K = meshes.two_triangles()
        assert K.num_edges == 5
        shared = K.edge_index[(1, 2)]
        assert len(edge_faces(K)[shared]) == 2
        f0, f1 = edge_faces(K)[shared]
        assert K.incidence(f0, shared) == -K.incidence(f1, shared)
        assert K.incidence(f0, shared) == 1
        assert K.incidence(f1, shared) == -1

    def test_nonmanifold_edge_rejected(self):
        with pytest.raises(NonManifoldEdge):
            build_complex(5, [(0, 1, 2), (0, 1, 3), (1, 0, 4)])

    def test_degenerate_face_rejected(self):
        with pytest.raises(DegenerateFace):
            build_complex(3, [(0, 1, 1)])

    def test_duplicate_face_rejected(self):
        with pytest.raises(DuplicateFace):
            build_complex(4, [(0, 1, 2), (2, 0, 1)])

    def test_isolated_vertex_rejected(self):
        with pytest.raises(IsolatedVertex):
            build_complex(4, [(0, 1, 2)])

    def test_pinch_vertex_rejected(self):
        with pytest.raises(PinchVertex):
            build_complex(5, [(0, 1, 2), (0, 3, 4)])

    def test_pinch_between_closed_fans_rejected(self):
        # Two octahedra sharing vertex 0: both fans there are closed cycles.
        octa = meshes.octahedron()
        shift = [0] + [v + 5 for v in range(1, octa.num_vertices)]
        faces = octa.faces + [tuple(shift[v] for v in f) for f in octa.faces]
        with pytest.raises(PinchVertex, match="vertex 0 joins more than one face fan"):
            build_complex(2 * octa.num_vertices - 1, faces)

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(ValueError):
            build_complex(3, [(0, 1, 5)])

    def test_too_few_coordinates_rejected(self):
        with pytest.raises(ValueError, match="got 2 coordinate triples for 3 vertices"):
            build_complex(3, [(0, 1, 2)], coords=[(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)])

    def test_face_boundary_closes(self):
        # The vertex sum of every face boundary telescopes to zero.
        for K in corpus():
            for triple in face_edges(K):
                sums = {}
                for eid, sign in triple:
                    a, b = K.edges[eid]
                    sums[b] = sums.get(b, 0) + sign
                    sums[a] = sums.get(a, 0) - sign
                assert all(v == 0 for v in sums.values())

    def test_deterministic_construction(self):
        a = meshes.pair_of_pants()
        b = meshes.pair_of_pants()
        assert a.edges == b.edges
        assert (a.half, a.sign, a.twin, a.edge_half) == (b.half, b.sign, b.twin, b.edge_half)


class TestEulerCharacteristic:
    def test_triangle(self):
        assert euler_characteristic(meshes.triangle()) == 1

    def test_seven_vertex_torus(self):
        K = meshes.csaszar_torus()
        assert (K.num_vertices, K.num_edges, K.num_faces) == (7, 21, 14)
        assert euler_characteristic(K) == 0

    def test_octahedron(self):
        assert euler_characteristic(meshes.octahedron()) == 2


class TestBoundaryComponents:
    def test_annulus_has_two_circles(self):
        assert len(boundary_components(meshes.annulus(6))) == 2

    def test_moebius_has_one_circle(self):
        cycles = boundary_components(meshes.moebius(6))
        assert len(cycles) == 1
        assert len(cycles[0].edges) == 12

    def test_closed_torus_has_none(self):
        assert boundary_components(meshes.csaszar_torus()) == []

    def test_cycles_cover_boundary_exactly(self):
        for K in corpus():
            cycles = boundary_components(K)
            seen = [e for cyc in cycles for e in cyc.edges]
            assert sorted(seen) == sorted(K.boundary_edge_ids)
            for cyc in cycles:
                n = len(cyc.vertices)
                assert len(cyc.edges) == n
                for i, eid in enumerate(cyc.edges):
                    pair = {cyc.vertices[i], cyc.vertices[(i + 1) % n]}
                    assert set(K.edges[eid]) == pair


def insulated(K, bp):
    """The insulated edges: the boundary edges outside the contact edges."""
    return set(K.boundary_edge_ids) - bp.contact_edges


class TestClassifyBoundary:
    def test_no_contacts(self):
        K = meshes.annulus(6)
        bp = classify_boundary(K, set())
        assert len(bp.contact_components) == 0
        assert insulated(K, bp) == set(K.boundary_edge_ids)

    def test_full_circle_contact_counts_as_one(self):
        K = meshes.annulus(6)
        inner = set(boundary_components(K)[0].edges)
        bp = classify_boundary(K, inner)
        assert len(bp.contact_components) == 1

    def test_two_arcs_on_a_twelve_cycle(self):
        # Twelve rim edges, contact arcs at positions 0..2 and 6..8; the
        # complement splits into two insulated arcs of three edges each.
        K = meshes.disk(12)
        cyc = boundary_components(K)[0]
        arc1 = {cyc.edges[i] for i in range(3)}
        arc2 = {cyc.edges[i] for i in range(6, 9)}
        bp = classify_boundary(K, arc1 | arc2)
        assert len(bp.contact_components) == 2
        assert sorted(map(sorted, bp.contact_components)) == sorted(
            map(sorted, [arc1, arc2])
        )
        assert len(insulated(K, bp)) == 6
        # The insulated subcomplex is the insulated edges with their ends;
        # each arc meets it in its two interface vertices.
        insulated_vertices = {v for eid in insulated(K, bp) for v in K.edges[eid]}
        assert len(insulated_vertices) == 8
        for arc in (arc1, arc2):
            arc_vertices = {v for eid in arc for v in K.edges[eid]}
            assert len(arc_vertices & insulated_vertices) == 2

    def test_arc_across_the_first_vertex_counts_as_one(self):
        K = meshes.disk(12)
        cyc = boundary_components(K)[0]
        arc = cyc.edges[-2:] + cyc.edges[:2]
        bp = classify_boundary(K, set(arc))
        assert bp.contact_components == [sorted(arc)]
        assert len(insulated(K, bp)) == 8

    def test_interior_edge_rejected(self):
        K = meshes.annulus(6)
        interior = next(
            eid for eid in range(K.num_edges) if not K.is_boundary_edge(eid)
        )
        with pytest.raises(NotABoundaryEdge):
            classify_boundary(K, {interior})

    @pytest.mark.parametrize("past_the_end", [False, True], ids=["minus-one", "past-the-end"])
    def test_contact_id_off_the_edge_list_rejected(self, past_the_end):
        # -1 would otherwise read the last edge, a boundary edge here.
        K = meshes.disk(6)
        assert K.is_boundary_edge(K.num_edges - 1)
        eid = K.num_edges if past_the_end else -1
        with pytest.raises(NotABoundaryEdge, match=f"^edge id {eid} is not an edge of the mesh$"):
            classify_boundary(K, {eid})

    def test_single_edge_contact_warns(self):
        # The partition warns of nothing; the pipeline warns once, naming
        # its caller.
        K = meshes.annulus(6)
        eid = boundary_components(K)[0].edges[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            classify_boundary(K, {eid})
        with pytest.warns(UserWarning, match="one-edge port") as record:
            compute_generators(K, {eid})
        assert [w.filename for w in record] == [__file__]


samples = st.builds(
    meshes.sample, st.sampled_from(meshes.SAMPLE_KINDS), st.integers(0, 10**6)
)


@st.composite
def contacted(draw):
    """A sampled mesh with, on each circle, no contact, a random subset of
    its edges, the whole circle or an arc across its first vertex."""
    K = draw(samples)
    contact = set()
    for cyc in boundary_components(K):
        n = len(cyc.edges)
        kind = draw(st.sampled_from(["none", "subset", "full", "across"]))
        if kind == "subset":
            keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
            contact |= {eid for eid, k in zip(cyc.edges, keep) if k}
        elif kind == "full":
            contact |= set(cyc.edges)
        elif kind == "across":
            before = draw(st.integers(1, n - 1))
            after = draw(st.integers(1, n - before))
            contact |= set(cyc.edges[-before:] + cyc.edges[:after])
    return K, contact


def warned(classify, K, contact):
    """The partition and the number of one-edge-port warnings it came with."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        bp = classify(K, contact)
    return bp, sum("one-edge port" in str(w.message) for w in caught)


@settings(deadline=None, max_examples=100)
@given(contacted())
def test_contact_runs_match_the_search(case):
    # Runs along each circle give the components, in the same order, of the
    # reference's search over contact edges that share a vertex.  The
    # partition warns of nothing; its one-edge components are the ones the
    # reference warns of.
    bp, quiet = warned(classify_boundary, *case)
    expected, one_edge = warned(reference.classify_boundary, *case)
    assert bp.contact_components == expected.contact_components
    assert (quiet, sum(len(comp) == 1 for comp in bp.contact_components)) == (0, one_edge)


def dual_components(K):
    """Face ids of each component, grouped by the dual tree that holds them."""
    _, dual, _ = build_tree_cotree(K, boundary_components(K))
    parts = [[] for _ in dual.roots]
    for fid, cid in enumerate(dual.tree_of):
        parts[cid].append(fid)
    return parts


class TestConnectedComponents:
    def test_two_disjoint_triangles(self):
        K = build_complex(6, [(0, 1, 2), (3, 4, 5)])
        assert dual_components(K) == [[0], [1]]

    def test_annulus_is_connected(self):
        K = meshes.annulus(6)
        assert dual_components(K) == [list(range(K.num_faces))]

    def test_torus_with_moebius(self):
        K = meshes.disjoint_union(meshes.csaszar_torus(), meshes.moebius(6))
        parts = dual_components(K)
        assert parts == [list(range(14)), list(range(14, 26))]
        counts = []
        for face_ids in parts:
            verts = {v for f in face_ids for v in K.faces[f]}
            edges = {eid for f in face_ids for eid, _ in face_edges(K)[f]}
            # No edge reaches a face of another component.
            assert {g for e in edges for g in edge_faces(K)[e]} == set(face_ids)
            counts.append((len(verts), len(edges), len(face_ids)))
        assert counts == [(7, 21, 14), (12, 24, 12)]


# --- the half-edge tables --------------------------------------------------


def table_meshes(kind):
    """The corpus, or three seeds of a sample family (non-orientable ones
    among them), each also with a seeded random half of its faces reversed."""
    if kind == "corpus":
        plain = corpus()
    else:
        plain = [meshes.sample(kind, seed) for seed in range(3 if kind != "mixed_surface" else 1)]
    out = []
    for seed, K in enumerate(plain):
        rng = random.Random(seed)
        flipped = [(a, c, b) if rng.random() < 0.5 else (a, b, c) for a, b, c in K.faces]
        out += [K, build_complex(K.num_vertices, flipped)]
    return out


@pytest.mark.parametrize("kind", ("corpus",) + meshes.SAMPLE_KINDS)
def test_half_edge_tables_match_a_scan_of_the_faces(kind):
    for K in table_meshes(kind):
        # The edges are numbered in edge_index itself, in order.
        assert list(K.edge_index) == K.edges
        assert list(K.edge_index.values()) == list(range(K.num_edges))
        index = {pair: eid for eid, pair in enumerate(K.edges)}
        sides = [(u, w) for a, b, c in K.faces for u, w in ((a, b), (b, c), (c, a))]
        assert K.half == [index[min(u, w), max(u, w)] for u, w in sides]
        halves = [[] for _ in K.edges]
        for h, eid in enumerate(K.half):
            halves[eid].append(h)
        # twin pairs the two half-edges of an edge, on two different faces,
        # and is -1 on an edge with one; edge_half is an edge's lowest.
        for eid, hs in enumerate(halves):
            assert K.edge_half[eid] == min(hs)
            if len(hs) == 1:
                assert K.twin[hs[0]] == -1
            else:
                g, h = hs
                assert (K.twin[g], K.twin[h]) == (h, g)
                assert g // 3 != h // 3
        assert all(K.twin[t] == h for h, t in enumerate(K.twin) if t >= 0)
        # Every face against every edge id, and the ids just off the list.
        ids = range(-1, K.num_edges + 1)
        for fid, (a, b, c) in enumerate(K.faces):
            row = [0] * len(ids)
            for u, w in ((a, b), (b, c), (c, a)):
                row[index[min(u, w), max(u, w)] + 1] = 1 if u < w else -1
            assert list(map(K.incidence, repeat(fid), ids)) == row
        on_one_face = [eid for eid, hs in enumerate(halves) if len(hs) == 1]
        assert K.boundary_edge_ids == on_one_face
        assert on_one_face == [eid for eid, h in enumerate(K.edge_half) if K.twin[h] < 0]
        assert [K.is_boundary_edge(eid) for eid in range(K.num_edges)] == [
            len(hs) == 1 for hs in halves
        ]


# --- the one-pass index against the original --------------------------------

INDEX_KINDS = (
    "random_disk",
    "random_annulus",
    "scrambled",
    "mixed_surface",
    "loops-heavy",
    "verify-small",
)


def valid_input(kind, seed):
    """(vertex count, faces, coordinates or None) of one seeded mesh."""
    if kind in ("loops-heavy", "verify-small"):
        surface = meshes.workloads().make_input(kind, seed).surface
        return surface.num_vertices, surface.faces, surface.coords
    K = meshes.mixed_surface()[0] if kind == "mixed_surface" else meshes.sample(kind, seed)
    return K.num_vertices, K.faces, None


def outcome(build, boundary, vertex_count, faces, coords=None):
    """Every field of the complex, its edge-index order and its boundary
    cycles; or the class and message of what the build raised."""
    try:
        K = build(vertex_count, faces, coords)
    except Exception as exc:
        return type(exc), str(exc)
    return K, list(K.edge_index.items()), boundary(K)


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(INDEX_KINDS), st.integers(0, 10**6), st.booleans())
def test_index_matches_the_original(kind, seed, as_lists):
    # The named-tuple equality compares every field, with tuples and lists
    # kept apart, so the half-edge tables, which the reference reads off its
    # per-face and per-edge tuples, and vertex_edges must match in order and
    # in type; faces given as lists still come out as tuples.
    vertex_count, faces, coords = valid_input(kind, seed)
    if as_lists:
        faces = [list(f) for f in faces]
    new = outcome(build_complex, boundary_components, vertex_count, faces, coords)
    ref = outcome(reference.build_complex, reference.boundary_components, vertex_count, faces, coords)
    assert isinstance(new[0], SurfaceComplex)
    assert new == ref
    # Handles and contacts read an edge's lower face first.
    for incident in edge_faces(new[0]):
        assert list(incident) == sorted(set(incident))


@pytest.mark.parametrize(
    "vertex_count, faces",
    [
        (0, []),
        (1, []),
        (3, [(0, 1, 2)]),
        (3, [[2, 1, 0]]),
        (4, [(3, 1, 2)]),
        (3, [(0, 1, 1)]),
        (2, [(0, 1, 2)]),
        (3, [(0, 1)]),
    ],
)
def test_index_matches_the_original_on_zero_and_one_face(vertex_count, faces):
    # head and apex rotate the flat vertex list and put each face's wrapped
    # corner back by slice, so the shortest lists are the edge cases.
    new = outcome(build_complex, boundary_components, vertex_count, faces)
    ref = outcome(reference.build_complex, reference.boundary_components, vertex_count, faces)
    assert new == ref


FAULTS = (
    "arity",
    "repeat",
    "range",
    "duplicate",
    "third_face",
    "open_pinch",
    "closed_pinch",
    "isolated",
)


def inject(draw, fault, K, vertex_count, faces):
    """One fault in the face list of (a relabelling of) K; returns the new
    vertex count and face list."""
    n = vertex_count
    at = draw(st.integers(0, len(faces)))
    vertex = st.integers(0, n - 1)
    if fault == "arity":
        size = draw(st.sampled_from([0, 1, 2, 4, 5]))
        faces.insert(at, tuple(draw(st.lists(vertex, min_size=size, max_size=size))))
    elif fault == "repeat":
        a, b = draw(vertex), draw(vertex)
        faces.insert(at, draw(st.permutations([a, a, b])))
    elif fault == "range":
        bad = draw(st.sampled_from([-1, n, n + 7]))
        a, b = draw(st.lists(vertex, min_size=2, max_size=2, unique=True))
        faces.insert(at, tuple(draw(st.permutations([a, b, bad]))))
    elif fault == "duplicate":
        # Of a face of K, or of a lone triangle: that copy puts no third
        # face on any edge, so only the same-apex test can catch it.
        if draw(st.booleans()):
            a, b, c = draw(st.sampled_from(K.faces))
        else:
            a, b, c = n, n + 1, n + 2
            faces.insert(draw(st.integers(0, len(faces))), (a, b, c))
            n += 3
        twin = draw(st.sampled_from([(a, b, c), (b, c, a), (c, a, b), (a, c, b), (c, b, a), (b, a, c)]))
        faces.insert(draw(st.integers(0, len(faces))), twin)
    elif fault == "third_face":
        # Fresh apexes until the edge carries three faces.
        u, w = draw(st.sampled_from(K.edges))
        for _ in range(3 - len(edge_faces(K)[K.edge_index[(u, w)]])):
            faces.insert(draw(st.integers(0, len(faces))), (u, w, n))
            n += 1
    elif fault == "open_pinch":
        # A lone triangle at a vertex, on the boundary where there is one.
        rim = sorted({v for eid in K.boundary_edge_ids for v in K.edges[eid]})
        v = draw(st.sampled_from(rim or range(K.num_vertices)))
        faces.insert(at, (v, n, n + 1))
        n += 2
    elif fault == "closed_pinch":
        # An octahedron glued at one vertex, interior where there is one.
        rim = {v for eid in K.boundary_edge_ids for v in K.edges[eid]}
        inner = [v for v in range(K.num_vertices) if v not in rim]
        v = draw(st.sampled_from(inner or range(K.num_vertices)))
        relabel = [v] + list(range(n, n + 5))
        for f in meshes.octahedron().faces:
            faces.insert(draw(st.integers(0, len(faces))), tuple(relabel[u] for u in f))
        n += 5
    else:
        # An unused vertex id in the middle of the range.
        k = draw(st.integers(0, n))
        faces = [tuple(u + (u >= k) for u in f) for f in faces]
        n += 1
    return n, faces


@st.composite
def faulted(draw):
    K = draw(
        st.builds(
            meshes.sample,
            st.sampled_from(("random_annulus", "random_disk", "union", "scrambled")),
            st.integers(0, 10**6),
        )
    )
    vertex_count, faces = K.num_vertices, list(K.faces)
    kinds = draw(st.lists(st.sampled_from(FAULTS), min_size=1, max_size=3))
    for fault in kinds:
        vertex_count, faces = inject(draw, fault, K, vertex_count, faces)
    if draw(st.booleans()):
        faces = [list(f) for f in faces]
    return vertex_count, faces


@settings(deadline=None, max_examples=300)
@given(faulted())
def test_faults_raise_as_the_original(case):
    # The same class and message, so which fault wins when several are
    # present follows the original order: single-face faults in face order,
    # then a third face on an edge, isolated vertices, pinches.
    new = outcome(build_complex, boundary_components, *case)
    ref = outcome(reference.build_complex, reference.boundary_components, *case)
    assert new == ref
