"""Cocycle transport along dual paths, checked against the stepwise reference."""

import functools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import meshes
import reference
from reference import edge_faces, face_edges
from globalloops.errors import CountMismatch, EdgeNotOnFace
from globalloops.forest import DualTree, build_tree_cotree, is_twisted, transport
from globalloops.surface import boundary_components, build_complex


def decompose(K):
    """The dual forest and the candidate edges."""
    return build_tree_cotree(K, boundary_components(K))[1:]


def hand_built(K, links):
    """Dual forest rooted at face 0 with (child, parent, edge) links attached
    in order, its orientation filled in from the defining formulas."""
    tree = DualTree(K.num_faces)
    tree.add_root(0)
    for child, parent, edge in links:
        tree.attach(child, parent, edge)
    return reference.orient(K, tree)


def test_single_face_transport():
    K = meshes.triangle()
    e = K.edge_index[(0, 1)]
    e2 = K.edge_index[(1, 2)]
    result = transport(K, hand_built(K, []), 0, 0, e, e2)
    expected = -K.incidence(0, e2) * K.incidence(0, e)
    assert result == {e: 1, e2: expected}


def test_self_pairs_succeed_on_orientable_surfaces():
    for K in (meshes.csaszar_torus(), meshes.torus_grid(4, 4), meshes.genus2()):
        assert reference.is_orientable(K)
        dual, candidates = decompose(K)
        assert candidates
        for eid in candidates:
            assert not is_twisted(K, dual, eid)
            f1, f2 = sorted(edge_faces(K)[eid])
            g = transport(K, dual, f1, f2, eid, eid)
            assert g[eid] == 1
            assert set(g.values()) <= {-1, 1}


def test_self_pair_fails_on_moebius():
    K = meshes.moebius(6)
    assert not reference.is_orientable(K)
    dual, (eid,) = decompose(K)
    assert is_twisted(K, dual, eid)
    f1, f2 = sorted(edge_faces(K)[eid])
    stepwise = reference.transport(K, reference.tree_path(dual, f1, f2), eid, eid)
    assert not stepwise.consistent
    with pytest.raises(CountMismatch, match="twisted"):
        transport(K, dual, f1, f2, eid, eid)


def test_facewise_sums_vanish_along_the_path():
    # Interior path faces see exactly two support edges whose signed
    # contributions cancel.
    K = meshes.csaszar_torus()
    dual, candidates = decompose(K)
    eid = candidates[0]
    f1, f2 = sorted(edge_faces(K)[eid])
    g = transport(K, dual, f1, f2, eid, eid)
    for fid in reference.tree_path(dual, f1, f2).nodes:
        total = sum(K.incidence(fid, e2) * val for e2, val in g.items())
        assert total == 0


def test_bad_edge_pair_rejected():
    K = meshes.two_triangles()
    shared = K.edge_index[(1, 2)]
    off_face = K.edge_index[(0, 1)]  # not on face 1
    tree = hand_built(K, [(1, 0, shared)])
    with pytest.raises(EdgeNotOnFace):
        transport(K, tree, 1, 1, off_face, shared)
    with pytest.raises(EdgeNotOnFace):
        transport(K, tree, 1, 1, shared, off_face)


def test_edge_ids_off_the_complex_are_on_no_face():
    # incidence reads an edge's faces by its id; an id outside 0..E-1 must
    # be on no face, not wrap around (-1) or index past the end (E).
    K = meshes.two_triangles()
    shared = K.edge_index[(1, 2)]
    off_face = K.edge_index[(0, 1)]  # on face 0 only
    tree = hand_built(K, [(1, 0, shared)])
    for eid in (-1, K.num_edges, off_face):
        assert K.incidence(1, eid) == 0
        with pytest.raises(EdgeNotOnFace, match=f"edge {eid} is not on face 1"):
            transport(K, tree, 1, 0, eid, shared)
        with pytest.raises(EdgeNotOnFace, match=f"edge {eid} is not on face 1"):
            transport(K, tree, 0, 1, shared, eid)
    assert K.incidence(0, -1) == K.incidence(0, K.num_edges) == 0


def test_twisted_test_refuses_an_edge_on_one_face():
    # The twisted test reads the two faces of an interior edge; a boundary
    # edge, or an id off the complex, has no second face to read.
    K = meshes.moebius(6)
    dual, _ = decompose(K)
    for eid in (K.boundary_edge_ids[0], -1, K.num_edges):
        with pytest.raises(EdgeNotOnFace, match=f"edge {eid} is not on two faces"):
            is_twisted(K, dual, eid)


def test_path_through_the_start_edge_raises():
    # A tree path never crosses the edge it transports from or to; a path
    # that does is an internal failure and must raise even under python -O.
    K = meshes.two_triangles()
    shared = K.edge_index[(1, 2)]
    end = K.edge_index[(1, 3)]
    tree = hand_built(K, [(1, 0, shared)])
    with pytest.raises(CountMismatch, match="revisits"):
        transport(K, tree, 0, 1, shared, end)
    with pytest.raises(CountMismatch, match="revisits"):
        transport(K, tree, 1, 0, end, shared)


def test_a_walk_past_a_root_raises():
    # Depths that disagree with the parent pointers must not send the walk
    # round and round through parent[-1]: an end that passes a root raises,
    # even under python -O.
    K = meshes.two_triangles()
    shared = K.edge_index[(1, 2)]
    tree = hand_built(K, [(1, 0, shared)])
    tree.depth[0] = 1
    with pytest.raises(CountMismatch, match="passed a root"):
        transport(K, tree, 1, 0, K.edge_index[(1, 3)], K.edge_index[(0, 1)])


@given(st.integers(min_value=0, max_value=11), st.data())
def test_orientation_of_faces_does_not_matter(flip, data):
    # Reversing any stored face orientation leaves the transported values
    # unchanged, once edge ids are matched up by vertex pair.
    base = meshes.annulus(6)
    dual, _ = decompose(base)
    faces = list(base.faces)
    a, b, c = faces[flip]
    faces[flip] = (a, c, b)
    flipped = build_complex(base.num_vertices, faces)

    start = data.draw(
        st.integers(min_value=0, max_value=base.num_faces - 1), label="start"
    )
    end = data.draw(
        st.integers(min_value=0, max_value=base.num_faces - 1), label="end"
    )
    path_edges = reference.tree_path(dual, start, end).edges
    e_start = next(
        eid for eid, _ in face_edges(base)[start] if eid not in path_edges
    )
    e_end = next(
        eid
        for eid, _ in face_edges(base)[end]
        if eid != e_start and eid not in path_edges
    )
    result = transport(base, dual, start, end, e_start, e_end)

    def pair(K, eid):
        return K.edges[eid]

    # The same tree over the flipped faces, oriented anew.
    by_depth = sorted(range(base.num_faces), key=dual.depth.__getitem__)
    translated = DualTree(flipped.num_faces)
    for face in by_depth:
        parent = dual.parent[face]
        if parent < 0:
            translated.add_root(face)
        else:
            edge = flipped.edge_index[pair(base, dual.parent_edge[face])]
            translated.attach(face, parent, edge)
    reference.orient(flipped, translated)
    result_flipped = transport(
        flipped,
        translated,
        start,
        end,
        flipped.edge_index[pair(base, e_start)],
        flipped.edge_index[pair(base, e_end)],
    )
    original = {pair(base, e): v for e, v in result.items()}
    mirrored = {pair(flipped, e): v for e, v in result_flipped.items()}
    assert original == mirrored


# --- closed form against the stepwise reference ---------------------------

FIXED = {
    "moebius": lambda: meshes.moebius(6),
    "klein_grid": meshes.klein_grid,
    "klein_minus_disk": meshes.klein_minus_disk,
    "mixed_surface": lambda: meshes.mixed_surface()[0],
}


@functools.cache
def fixed_surface(name):
    K = FIXED[name]()
    return (K, *decompose(K))


def flipped_growth(grow, seed, flips):
    """A random disk or annulus with a random subset of faces reversed."""
    K = grow(seed)
    rng = random.Random(flips)
    faces = [(a, c, b) if rng.random() < 0.5 else (a, b, c) for a, b, c in K.faces]
    K = build_complex(K.num_vertices, faces)
    return (K, *decompose(K))


grown = st.builds(
    flipped_growth,
    st.sampled_from([meshes.random_annulus, meshes.random_disk]),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
)
surfaces = st.one_of(st.sampled_from(sorted(FIXED)).map(fixed_surface), grown)


def outcome(run):
    try:
        return run()
    except CountMismatch:
        return "revisit"


@settings(deadline=None)
@given(surfaces, st.data())
def test_closed_form_matches_stepwise(surface, data):
    K, dual, _ = surface
    a = data.draw(st.integers(min_value=0, max_value=K.num_faces - 1), label="a")
    same_tree = [f for f in range(K.num_faces) if dual.tree_of[f] == dual.tree_of[a]]
    b = data.draw(st.sampled_from(same_tree), label="b")
    triples = face_edges(K)
    start = data.draw(st.sampled_from([e for e, _ in triples[a]]), label="start")
    end = data.draw(st.sampled_from([e for e, _ in triples[b]]), label="end")
    assume(end != start)
    path = reference.tree_path(dual, a, b)
    expected = outcome(lambda: reference.transport(K, path, start, end).cochain.coeffs)
    assert outcome(lambda: transport(K, dual, a, b, start, end)) == expected


def check_self_pairs(K, dual, candidates):
    """Every interior edge's self-pair: the O(1) twisted test agrees with a
    failed stepwise transport, and the untwisted ones transport alike."""
    for eid, incident in enumerate(edge_faces(K)):
        if K.is_boundary_edge(eid):
            continue
        f1, f2 = sorted(incident)
        path = reference.tree_path(dual, f1, f2)
        closed = outcome(lambda: transport(K, dual, f1, f2, eid, eid))
        if eid in path.edges:  # a dual-tree edge: its own path crosses it
            assert closed == "revisit"
            assert not is_twisted(K, dual, eid)
            continue
        stepwise = reference.transport(K, path, eid, eid)
        assert is_twisted(K, dual, eid) == (not stepwise.consistent)
        if stepwise.consistent:
            assert closed == stepwise.cochain.coeffs
        else:
            assert closed == "revisit"


def check_twisted_iff_non_orientable(K, dual, candidates):
    incident = edge_faces(K)
    for faces in reference.connected_components(K):
        members = set(faces)
        own = [e for e in candidates if incident[e][0] in members]
        has_twisted = any(is_twisted(K, dual, e) for e in own)
        ids: dict[int, int] = {}
        alone = [tuple(ids.setdefault(v, len(ids)) for v in K.faces[f]) for f in faces]
        assert has_twisted == (not reference.is_orientable(build_complex(len(ids), alone)))


@pytest.mark.parametrize("name", sorted(FIXED))
def test_twisted_test_on_fixed_surfaces(name):
    surface = fixed_surface(name)
    check_self_pairs(*surface)
    check_twisted_iff_non_orientable(*surface)


@settings(deadline=None, max_examples=30)
@given(grown)
def test_twisted_test_on_flipped_growth(surface):
    check_self_pairs(*surface)
    check_twisted_iff_non_orientable(*surface)
