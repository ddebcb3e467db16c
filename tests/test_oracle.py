"""Oracle: sparse and dense ranks, Smith form, Betti numbers, verification."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import meshes
from globalloops import oracle
from globalloops.cochain import Cochain1
from globalloops.generators import compute_generators
from globalloops.oracle import betti1_relative, homology_snf, is_orientable, verify
from globalloops.surface import (
    boundary_components,
    build_closed_complex,
    classify_boundary,
)
from globalloops.errors import MeshTooLargeForOracle
from globalloops.oracle import PRIME, exact_rank, smith_invariant_factors, sparse_rank
from test_acceptance import corpus_with_contacts


def dense(rows, width):
    out = []
    for row in rows:
        full = [0] * width
        for col, value in row.items():
            full[col] = value
        out.append(full)
    return out


def dense_homology(closed, cap=None):
    """H1 of a closed complex from the dense exact rank and Smith form."""
    factors = smith_invariant_factors(dense(closed.d2, closed.num_edges))
    rank_d2 = sum(1 for f in factors if f)
    rank_d1 = exact_rank(dense(closed.d1, closed.num_vertices))
    return closed.num_edges - rank_d1 - rank_d2, [f for f in factors if f > 1]


def dense_rank(rows, p=PRIME):
    """Stand-in for sparse_rank that takes the exact dense route."""
    assert p == PRIME  # the GF(2) rank only serves homology_snf
    rows = list(rows)
    width = 1 + max((col for row in rows for col in row), default=-1)
    return exact_rank(dense(rows, width))


def every_test_mesh():
    """Each builder of the mesh module, at its default size or a few seeds."""
    out = [
        meshes.triangle(),
        meshes.two_triangles(),
        meshes.octahedron(),
        meshes.disk(6),
        meshes.annulus(6),
        meshes.torus_grid(4, 4),
        meshes.csaszar_torus(),
        meshes.moebius(6),
        meshes.klein_grid(5, 4),
        meshes.klein_minus_disk(),
        meshes.torus_with_hole(),
        meshes.pair_of_pants(),
        meshes.genus2(),
        meshes.disjoint_union(meshes.klein_grid(5, 4), meshes.moebius(6)),
        meshes.mixed_surface(3)[0],
    ]
    out += [meshes.random_disk(seed) for seed in range(3)]
    out += [meshes.random_annulus(seed) for seed in range(3)]
    return out


class TestExactRank:
    def test_empty(self):
        assert exact_rank([]) == 0
        assert exact_rank([[0, 0], [0, 0]]) == 0

    def test_identity(self):
        assert exact_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3

    def test_dependent_rows(self):
        assert exact_rank([[1, 2, 3], [2, 4, 6], [1, 0, 1]]) == 2

    def test_wide_and_tall(self):
        assert exact_rank([[1, 2, 3, 4]]) == 1
        assert exact_rank([[1], [2], [3]]) == 1

    def test_needs_column_skip(self):
        assert exact_rank([[0, 1, 0], [0, 0, 2]]) == 2

    def test_matches_fraction_free_growth(self):
        mat = [
            [2, 3, 5, 7],
            [11, 13, 17, 19],
            [23, 29, 31, 37],
            [41, 43, 47, 53],
        ]
        assert exact_rank(mat) == 4


@st.composite
def integer_matrices(draw):
    n_rows = draw(st.integers(min_value=0, max_value=12))
    n_cols = draw(st.integers(min_value=1, max_value=12))
    rows = [
        draw(st.lists(st.integers(-2, 2), min_size=n_cols, max_size=n_cols))
        for _ in range(n_rows)
    ]
    # Zero out some whole rows and columns, which elimination must skip.
    zero_rows = draw(st.sets(st.integers(0, max(n_rows - 1, 0))))
    zero_cols = draw(st.sets(st.integers(0, n_cols - 1)))
    return [
        [0 if i in zero_rows or j in zero_cols else v for j, v in enumerate(row)]
        for i, row in enumerate(rows)
    ]


class TestSparseRank:
    @settings(max_examples=200, deadline=None)
    @given(integer_matrices())
    def test_matches_exact_rank(self, mat):
        rows = [{j: v for j, v in enumerate(row) if v} for row in mat]
        assert sparse_rank(rows) == exact_rank(mat)

    def test_rank_over_two_drops_on_even_factors(self):
        rows = [{0: 1, 1: 1}, {0: 1, 1: -1}]
        assert sparse_rank(rows) == 2
        assert sparse_rank(rows, 2) == 1
        assert sparse_rank([{0: 2}], 2) == 0

    def test_input_rows_are_left_alone(self):
        rows = [{0: 1, 1: 2}, {0: 3, 1: 4}, {1: 5}]
        copies = [dict(row) for row in rows]
        assert sparse_rank(rows) == 2
        assert rows == copies

    def test_entries_are_reduced_modulo_the_prime(self):
        assert sparse_rank([{0: PRIME}, {1: PRIME + 1}]) == 1


class TestSmithForm:
    def test_diagonal_needs_divisibility_fix(self):
        assert smith_invariant_factors([[2, 0], [0, 3]]) == [1, 6]

    def test_known_two_by_two(self):
        # det 20, gcd of entries 2, so the chain is (2, 10).
        assert smith_invariant_factors([[6, 4], [4, 6]]) == [2, 10]

    def test_zero_matrix(self):
        assert smith_invariant_factors([[0, 0], [0, 0]]) == []

    def test_single_entry(self):
        assert smith_invariant_factors([[-4]]) == [4]

    def test_rectangular(self):
        assert smith_invariant_factors([[1, 2, 3], [4, 5, 6]]) == [1, 3]


class TestBetti:
    def test_disk_full_insulation(self):
        K = meshes.disk(6)
        assert betti1_relative(K, classify_boundary(K, set())) == 0

    def test_annulus_full_insulation(self):
        K = meshes.annulus(6)
        assert betti1_relative(K, classify_boundary(K, set())) == 1

    def test_moebius_full_insulation(self):
        K = meshes.moebius(6)
        assert betti1_relative(K, classify_boundary(K, set())) == 0

    def test_moebius_with_one_contact(self):
        K = meshes.moebius(6)
        arc = meshes.boundary_arc(K, 0, 3)
        assert betti1_relative(K, classify_boundary(K, arc)) == 1

    def test_pair_of_pants(self):
        K = meshes.pair_of_pants()
        assert betti1_relative(K, classify_boundary(K, set())) == 2

    def test_cap_refusal(self):
        K = meshes.annulus(6)
        with pytest.raises(MeshTooLargeForOracle):
            betti1_relative(K, classify_boundary(K, set()), cap=10)


class TestOrientability:
    def test_values(self):
        assert is_orientable(meshes.csaszar_torus())
        assert is_orientable(meshes.annulus(6))
        assert is_orientable(meshes.genus2())
        assert not is_orientable(meshes.moebius(6))
        assert not is_orientable(meshes.klein_grid(5, 4))
        assert not is_orientable(meshes.klein_minus_disk())

    def test_disjoint_union(self):
        both = meshes.disjoint_union(meshes.csaszar_torus(), meshes.moebius(6))
        assert not is_orientable(both)


class TestHomologySnf:
    def test_disk_closure_is_a_sphere(self):
        closed = build_closed_complex(meshes.disk(6))
        assert homology_snf(closed) == (0, [])

    def test_closed_torus(self):
        closed = build_closed_complex(meshes.csaszar_torus())
        assert homology_snf(closed) == (2, [])

    def test_moebius_closure_is_projective_plane(self):
        closed = build_closed_complex(meshes.moebius(6))
        assert homology_snf(closed) == (0, [2])

    def test_klein_bottle(self):
        closed = build_closed_complex(meshes.klein_minus_disk())
        assert homology_snf(closed) == (1, [2])

    def test_genus2(self):
        closed = build_closed_complex(meshes.genus2())
        assert homology_snf(closed) == (4, [])


    def test_matches_dense_smith_form_on_every_test_mesh(self):
        for K in every_test_mesh():
            closed = build_closed_complex(K)
            assert homology_snf(closed) == dense_homology(closed), K


class TestSelfConsistency:
    def test_hole_count_formula(self):
        # Full-insulation Betti number minus the closed-up free rank equals
        # the number of boundary circles short one, per connected surface.
        for K in (
            meshes.disk(6),
            meshes.annulus(6),
            meshes.moebius(6),
            meshes.pair_of_pants(),
            meshes.torus_with_hole(),
            meshes.klein_minus_disk(),
        ):
            bp = classify_boundary(K, set())
            closed_rank, _ = homology_snf(build_closed_complex(K))
            holes = len(boundary_components(K))
            assert betti1_relative(K, bp) - closed_rank == max(holes - 1, 0)

    def test_contact_count_formula(self):
        # Adding contact arcs raises the Betti number by the arc count minus
        # one on orientable surfaces and by the arc count otherwise.
        cases = [
            (meshes.annulus(6), [(0, 3)], True),
            (meshes.annulus(6), [(0, 3), (1, 3)], True),
            (meshes.moebius(6), [(0, 3)], False),
            (meshes.pair_of_pants(), [(0, 2), (1, 2), (2, 2)], True),
        ]
        for K, arcs, orientable in cases:
            contact = set()
            for circle, length in arcs:
                contact |= meshes.boundary_arc(K, circle, length)
            base = betti1_relative(K, classify_boundary(K, set()))
            with_contacts = betti1_relative(K, classify_boundary(K, contact))
            n_co = len(arcs)
            expected = n_co - 1 if orientable else n_co
            assert with_contacts - base == expected
            assert is_orientable(K) == orientable

    def test_torsion_is_order_two_at_most(self):
        for K in (
            meshes.disk(6),
            meshes.annulus(6),
            meshes.moebius(6),
            meshes.klein_minus_disk(),
            meshes.genus2(),
        ):
            _, torsion = homology_snf(build_closed_complex(K))
            assert torsion in ([], [2])


class TestVerify:
    def test_annulus_passes(self):
        K = meshes.annulus(6)
        bp = classify_boundary(K, set())
        report = verify(K, bp, compute_generators(K))
        assert report.passed
        assert report.betti1_relative == 1
        assert report.cocycle_ok == [True]
        assert report.independence_ok
        assert report.orientable
        assert report.torsion_coefficients == []

    def test_torus_passes(self):
        K = meshes.csaszar_torus()
        bp = classify_boundary(K, set())
        report = verify(K, bp, compute_generators(K))
        assert report.passed
        assert report.betti1_relative == 2
        assert report.torsion_coefficients == []

    def test_corrupted_generator_is_caught(self):
        K = meshes.annulus(6)
        bp = classify_boundary(K, set())
        gens = compute_generators(K)
        g = gens.generators[0].cochain
        eid = g.support[0]
        gens.generators[0].cochain = Cochain1(
            {k: v for k, v in g.coeffs.items() if k != eid}
        )
        report = verify(K, bp, gens)
        assert not report.passed
        assert report.cocycle_ok == [False]

    def test_cap_refusal(self):
        K = meshes.annulus(6)
        bp = classify_boundary(K, set())
        with pytest.raises(MeshTooLargeForOracle):
            verify(K, bp, compute_generators(K), cap=3)

    def test_same_report_as_the_dense_routines(self, monkeypatch):
        def reports():
            out = []
            for _, K, contact in corpus_with_contacts():
                bp = classify_boundary(K, contact)
                out.append(verify(K, bp, compute_generators(K, contact)))
            return out

        sparse_reports = reports()
        monkeypatch.setattr(oracle, "sparse_rank", dense_rank)
        monkeypatch.setattr(oracle, "homology_snf", dense_homology)
        assert sparse_reports == reports()

    def test_passes_beyond_the_reach_of_the_dense_routines(self):
        # E > 2000 with handles, crosscaps, holes and contact arcs; the dense
        # routines took minutes at this size.
        K, contact = meshes.mixed_surface()
        assert K.num_edges > 2000
        gens = compute_generators(K, contact)
        report = verify(K, classify_boundary(K, contact), gens)
        assert report.passed, report.failures
        assert {g.kind for g in gens.generators} == {"ha", "ho", "co"}
        assert not report.orientable
        assert report.torsion_coefficients == [2, 2]
