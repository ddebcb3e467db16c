"""Edge cochains, and the pairing and vertex coboundary the tests use.

Relative-cocycle checks are the oracle's (``test_oracle.py``).
"""

from hypothesis import given
from hypothesis import strategies as st

import meshes
from globalloops.generators import Cochain1
from globalloops.surface import boundary_components
from reference import coboundary0, evaluate

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

    def test_normalization_drops_zeros(self):
        assert Cochain1({0: 0, 1: 2}).coeffs == {1: 2}

    @given(sparse_ints(24))
    def test_a_zero_free_dict_is_kept_not_copied(self, coeffs):
        if 0 in coeffs.values():
            assert Cochain1(coeffs).coeffs == {k: v for k, v in coeffs.items() if v}
        else:
            assert Cochain1(coeffs).coeffs is coeffs

    @given(sparse_ints(24), sparse_ints(24))
    def test_pairing_is_bilinear_in_the_chain(self, a, b):
        g = Cochain1(a)
        summed = {k: b.get(k, 0) + a.get(k, 0) for k in set(a) | set(b)}
        assert evaluate(g, summed) == evaluate(g, a) + evaluate(g, b)


class TestCoboundaries:
    def test_constant_vertex_cochain_vanishes(self):
        c = {v: 7 for v in range(ANNULUS.num_vertices)}
        assert not coboundary0(ANNULUS, c).coeffs

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
        assert set(g.coeffs) == expected

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

