"""Cocycle transport along dual paths."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import meshes
from globalloops.errors import CountMismatch, EdgeNotOnFace
from globalloops.forest import Path, build_tree_cotree
from globalloops.oracle import is_orientable
from globalloops.surface import boundary_components, build_complex
from globalloops.transport import transport


def decompose(K):
    return build_tree_cotree(K, boundary_components(K))


def test_single_face_transport():
    K = meshes.triangle()
    e = K.edge_index[(0, 1)]
    e2 = K.edge_index[(1, 2)]
    result = transport(K, Path(nodes=(0,), edges=()), e, e2)
    assert result.consistent
    expected = -K.incidence(0, e2) * K.incidence(0, e)
    assert result.cochain.coeffs == {e: 1, e2: expected}


def test_self_pairs_succeed_on_orientable_surfaces():
    for K in (meshes.csaszar_torus(), meshes.torus_grid(4, 4), meshes.genus2()):
        assert is_orientable(K)
        tc = decompose(K)
        assert tc.candidate_edges
        for eid in tc.candidate_edges:
            f1, f2 = sorted(K.edge_faces[eid])
            result = transport(K, tc.dual.path(f1, f2), eid, eid)
            assert result.consistent
            assert result.cochain[eid] == 1
            assert set(result.cochain.coeffs.values()) <= {-1, 1}


def test_self_pair_fails_on_moebius():
    K = meshes.moebius(6)
    assert not is_orientable(K)
    tc = decompose(K)
    (eid,) = tc.candidate_edges
    f1, f2 = sorted(K.edge_faces[eid])
    result = transport(K, tc.dual.path(f1, f2), eid, eid)
    assert not result.consistent
    assert not result.cochain


def test_facewise_sums_vanish_along_the_path():
    # Interior path faces see exactly two support edges whose signed
    # contributions cancel.
    K = meshes.csaszar_torus()
    tc = decompose(K)
    eid = tc.candidate_edges[0]
    f1, f2 = sorted(K.edge_faces[eid])
    path = tc.dual.path(f1, f2)
    g = transport(K, path, eid, eid).cochain
    for fid in path.nodes:
        total = sum(
            K.incidence(fid, e2) * val for e2, val in g.coeffs.items()
        )
        assert total == 0


def test_bad_edge_pair_rejected():
    K = meshes.two_triangles()
    shared = K.edge_index[(1, 2)]
    off_face = K.edge_index[(0, 1)]  # not on face 1
    with pytest.raises(EdgeNotOnFace):
        transport(K, Path(nodes=(1,), edges=()), off_face, shared)


def test_path_through_the_start_edge_raises():
    # A tree path never crosses the edge it transports from; a path that
    # does is an internal failure and must raise even under python -O.
    K = meshes.two_triangles()
    shared = K.edge_index[(1, 2)]
    end = K.edge_index[(1, 3)]
    with pytest.raises(CountMismatch):
        transport(K, Path(nodes=(0, 1), edges=(shared,)), shared, end)


@given(st.integers(min_value=0, max_value=11), st.data())
def test_orientation_of_faces_does_not_matter(flip, data):
    # Reversing any stored face orientation leaves the transported values
    # unchanged, once edge ids are matched up by vertex pair.
    base = meshes.annulus(6)
    tc = decompose(base)
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
    path = tc.dual.path(start, end)
    e_start = next(
        eid for eid, _ in base.face_edges[start] if eid not in path.edges
    )
    e_end = next(
        eid
        for eid, _ in base.face_edges[end]
        if eid != e_start and eid not in path.edges
    )
    result = transport(base, path, e_start, e_end)

    def pair(K, eid):
        return K.edges[eid]

    translated_path = Path(
        nodes=path.nodes,
        edges=tuple(flipped.edge_index[pair(base, e)] for e in path.edges),
    )
    result_flipped = transport(
        flipped,
        translated_path,
        flipped.edge_index[pair(base, e_start)],
        flipped.edge_index[pair(base, e_end)],
    )
    assert result.consistent == result_flipped.consistent
    original = {pair(base, e): v for e, v in result.cochain.coeffs.items()}
    mirrored = {pair(flipped, e): v for e, v in result_flipped.cochain.coeffs.items()}
    assert original == mirrored
