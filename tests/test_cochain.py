"""Cochain algebra: coboundaries, pairings, relative-cocycle predicate."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import meshes
from globalloops.cochain import (
    Cochain1,
    coboundary0,
    coboundary1,
    evaluate,
    is_relative_cocycle,
)
from globalloops.surface import boundary_components, classify_boundary
from globalloops.errors import UnknownEdgeId

ANNULUS = meshes.annulus(6)
DISK = meshes.disk(6)


def sparse_ints(n, max_entries=8):
    return st.dictionaries(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=-5, max_value=5),
        max_size=max_entries,
    )


class TestCochainArithmetic:
    def test_zero_pairing(self):
        assert evaluate(Cochain1({0: 3}), {}) == 0

    def test_add_negate_cancels(self):
        g = Cochain1({0: 2, 3: -1})
        assert not (g + (-g))

    def test_normalization_drops_zeros(self):
        assert Cochain1({0: 0, 1: 2}).support == (1,)

    def test_scale(self):
        assert Cochain1({1: 2}).scale(-3)[1] == -6

    @given(sparse_ints(24), sparse_ints(24))
    def test_pairing_is_bilinear_in_the_chain(self, a, b):
        g = Cochain1(a)
        summed = {k: b.get(k, 0) + a.get(k, 0) for k in set(a) | set(b)}
        assert evaluate(g, summed) == evaluate(g, a) + evaluate(g, b)


class TestCoboundaries:
    def test_zero_cochain_maps_to_zero(self):
        assert coboundary1(ANNULUS, Cochain1()) == {}

    def test_single_edge_on_triangle(self):
        K = meshes.triangle()
        eid = K.edge_index[(0, 1)]
        assert coboundary1(K, Cochain1({eid: 1})) == {0: K.incidence(0, eid)}
        assert K.incidence(0, eid) == 1

    def test_constant_vertex_cochain_vanishes(self):
        c = {v: 7 for v in range(ANNULUS.num_vertices)}
        assert not coboundary0(ANNULUS, c)

    def test_interior_vertex_indicator_signs(self):
        # Disk center is vertex 0 and the tail of every spoke, so the
        # indicator coboundary is -1 on each spoke.
        g = coboundary0(DISK, {0: 1})
        spokes = [DISK.edge_index[(0, 1 + i)] for i in range(6)]
        assert g.coeffs == {eid: -1 for eid in spokes}

    def test_boundary_indicator_support_on_annulus(self):
        cyc = boundary_components(ANNULUS)[0]
        members = set(cyc.vertices)
        g = coboundary0(ANNULUS, {v: 1 for v in members})
        expected = {
            eid
            for eid, (a, b) in enumerate(ANNULUS.edges)
            if (a in members) != (b in members)
        }
        assert set(g.support) == expected

    def test_unknown_edge_id(self):
        with pytest.raises(UnknownEdgeId):
            coboundary1(ANNULUS, Cochain1({999: 1}))

    @given(sparse_ints(12))
    def test_coboundary_of_coboundary_vanishes(self, c):
        g = coboundary0(ANNULUS, c)
        assert coboundary1(ANNULUS, g) == {}

    @given(sparse_ints(12), sparse_ints(24))
    def test_adjointness(self, c, z):
        # Pairing the vertex coboundary with an edge chain must equal
        # pairing the vertex cochain with the chain's boundary.
        g = coboundary0(ANNULUS, c)
        boundary: dict[int, int] = {}
        for eid, coeff in z.items():
            a, b = ANNULUS.edges[eid]
            boundary[b] = boundary.get(b, 0) + coeff
            boundary[a] = boundary.get(a, 0) - coeff
        lhs = evaluate(g, z)
        rhs = sum(c.get(v, 0) * coeff for v, coeff in boundary.items())
        assert lhs == rhs


class TestRelativeCocycle:
    def test_zero_is_always_a_cocycle(self):
        bp = classify_boundary(ANNULUS, set())
        ok, reason = is_relative_cocycle(ANNULUS, Cochain1(), bp)
        assert ok and reason is None

    def test_hole_indicator_is_relative_cocycle(self):
        bp = classify_boundary(ANNULUS, set())
        cyc = bp.hole_components[0]
        g = coboundary0(ANNULUS, {v: 1 for v in cyc.vertices})
        ok, reason = is_relative_cocycle(ANNULUS, g, bp)
        assert ok, reason

    def test_interior_edge_indicator_fails(self):
        bp = classify_boundary(DISK, set())
        interior = next(
            eid for eid in range(DISK.num_edges) if not DISK.is_boundary_edge(eid)
        )
        ok, reason = is_relative_cocycle(DISK, Cochain1({interior: 1}), bp)
        assert not ok
        assert "face" in reason

    def test_insulated_support_fails(self):
        bp = classify_boundary(ANNULUS, set())
        eid = ANNULUS.boundary_edge_ids[0]
        ok, reason = is_relative_cocycle(ANNULUS, Cochain1({eid: 1}), bp)
        assert not ok
        assert "insulated" in reason
