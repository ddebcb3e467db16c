"""Oracle: the reference sparse and dense ranks and Smith form, the
reference closed-up complex, Betti numbers, torsion, verification and its
pairing certificate."""

import ast
import random
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import meshes
from globalloops import generators, oracle
from globalloops.generators import Cochain1, GeneratorSet, compute_generators
from globalloops.oracle import DEFAULT_WORK_CAP, verify
from globalloops.surface import (
    BoundaryPartition,
    SurfaceComplex,
    boundary_components,
    classify_boundary,
    euler_characteristic,
)
from globalloops.errors import MeshTooLargeForOracle
from meshes import refine
from reference import (
    PRIME,
    betti1_relative,
    circle_root,
    closed_d2,
    closed_edges,
    coboundary0,
    dict_roots,
    edge_faces,
    exact_rank,
    face_edges,
    is_orientable,
    rim,
    signed_cofaces,
    smith_invariant_factors,
    sparse_rank,
)
from test_acceptance import corpus_with_contacts
from test_random_surfaces import oracle_rows


def dense(rows, width):
    out = []
    for row in rows:
        full = [0] * width
        for col, value in row.items():
            full[col] = value
        out.append(full)
    return out


def incidence(K):
    return oracle._Incidence(K)


def d1_rows(d1):
    """The closed-up edges ``(ca, cb)`` as sparse boundary rows ``cb - ca``."""
    return [{cb: 1, ca: -1} if ca != cb else {} for ca, cb in d1]


def dense_homology(K):
    """H1 of the closed-up complex from the dense exact rank and Smith form."""
    d1 = d1_rows(closed_edges(K))
    factors = smith_invariant_factors(dense(closed_d2(K), len(K.edges)))
    rank_d2 = sum(1 for f in factors if f)
    rank_d1 = exact_rank(dense(d1, 1 + max(v for edge in K.edges for v in edge)))
    return len(d1) - rank_d1 - rank_d2, [f for f in factors if f > 1]


def oracle_torsion(K):
    """The torsion coefficients ``verify`` reports for ``K`` without contacts."""
    return verify(K, classify_boundary(K, set()), GeneratorSet()).torsion_coefficients


def closed_homology(K):
    """Free rank and torsion of the closed-up complex from the dense
    routines, once the oracle's torsion is seen to agree."""
    free, torsion = dense_homology(K)
    assert oracle_torsion(K) == torsion
    return free, torsion


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
    """The oracle's torsion against H1 of the reference closed-up complex."""

    def test_disk_closure_is_a_sphere(self):
        assert closed_homology(meshes.disk(6)) == (0, [])

    def test_closed_torus(self):
        assert closed_homology(meshes.csaszar_torus()) == (2, [])

    def test_moebius_closure_is_projective_plane(self):
        assert closed_homology(meshes.moebius(6)) == (0, [2])

    def test_klein_bottle(self):
        assert closed_homology(meshes.klein_minus_disk()) == (1, [2])

    def test_genus2(self):
        assert closed_homology(meshes.genus2()) == (4, [])

    def test_matches_dense_smith_form_on_every_test_mesh(self):
        for K in every_test_mesh():
            d2 = closed_d2(K)
            torsion = dense_homology(K)[1]
            assert torsion == [2] * (sparse_rank(d2) - sparse_rank(d2, 2)), K
            assert oracle_torsion(K) == torsion, K


def closed_chi(K):
    """Euler characteristic of the reference closed-up complex."""
    root = circle_root(K)
    cells = {root.get(v, v) for edge in K.edges for v in edge}
    return len(cells) - len(closed_edges(K)) + len(closed_d2(K))


class TestClosedComplex:
    """The reference closed-up complex the torsion is compared with: each
    boundary circle collapses to one cell and its edges go."""

    def test_closed_surface_unchanged(self):
        # With no circle the closure keeps every edge, and each face row is
        # the oracle's own signs on that face's three edges.
        K = meshes.csaszar_torus()
        inc = incidence(K)
        assert closed_edges(K) == K.edges
        faces = [inc.half[h : h + 3] for h in range(0, len(inc.half), 3)]
        assert closed_d2(K) == [
            {e: inc.sign0[e] if inc.face0[e] == f else inc.sign1[e] for e in face}
            for f, face in enumerate(faces)
        ]

    def test_disk_closes_to_sphere(self):
        assert closed_chi(meshes.disk(6)) == 2

    def test_annulus_closes_to_sphere(self):
        K = meshes.annulus(6)
        assert (len(closed_edges(K)), len(closed_d2(K))) == (12, 12)
        assert closed_chi(K) == 2

    def test_chi_shift_equals_hole_count(self):
        for K in every_test_mesh():
            holes = len(boundary_components(K))
            assert closed_chi(K) == euler_characteristic(K) + holes

    def test_boundary_of_boundary_vanishes(self):
        for K in every_test_mesh():
            d2 = closed_d2(K)
            boundary = rim(K)
            kept = [eid for eid in range(len(K.edges)) if eid not in boundary]
            d1_of = dict(zip(kept, d1_rows(closed_edges(K))))
            for face_row in d2:
                sums = {}
                for eid, fcoeff in face_row.items():
                    for v, ecoeff in d1_of[eid].items():
                        sums[v] = sums.get(v, 0) + fcoeff * ecoeff
                assert all(v == 0 for v in sums.values())


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
            closed_rank, _ = dense_homology(K)
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
            assert dense_homology(K)[1] in ([], [2])


def plain_annulus():
    return meshes.annulus(6), set()


def moebius_with_arc():
    K = meshes.moebius(6)
    return K, meshes.boundary_arc(K, 0, 3)


def replace_item(gens, name, index, **changes):
    """``gens`` with item ``index`` of its ``name`` list changed by ``_replace``."""
    items = list(getattr(gens, name))
    items[index] = items[index]._replace(**changes)
    return gens._replace(**{name: items})


def drop_support_edge(gens):
    coeffs = gens.generators[0].cochain.coeffs
    dropped = Cochain1({k: v for k, v in coeffs.items() if k != min(coeffs)})
    return replace_item(gens, "generators", 0, cochain=dropped)


def duplicate_generator(gens):
    return gens._replace(generators=gens.generators + gens.generators[:1])


def inflate_holes_and_contacts(gens):
    # One more circle, a copy of the first, and one more contact
    # component, the first circle's first edge.
    meta = gens.components[0]
    return replace_item(
        gens, "components", 0,
        circles=meta.circles + meta.circles[:1],
        contact_components=meta.contact_components + [meta.circles[0].edges[:1]],
    )


def claim_a_twisted_edge(gens):
    return replace_item(gens, "components", 0, twisted_edges=[0])


def pants():
    return meshes.pair_of_pants(), set()


def twisted_chain():
    # Two twisted candidates: generator 0 is chained to the anchor edge.
    return meshes.klein_grid(3, 6), set()


def genus_two():
    return meshes.genus2(), set()


def annulus_two_arcs():
    K = meshes.annulus(6)
    return K, meshes.boundary_arc(K, 0, 3) | meshes.boundary_arc(K, 1, 3)


def scaled(gens, index, factor):
    coeffs = gens.generators[index].cochain.coeffs
    cochain = Cochain1({k: factor * v for k, v in coeffs.items()})
    return replace_item(gens, "generators", index, cochain=cochain)


def double_generator(gens):
    return scaled(gens, 0, 2)


def shorten_the_runs(gens):
    # Each contact component of the record loses its lowest edge id, so a
    # run the pipeline pairs with starts inside a contact arc.  On the
    # annulus with two arcs the first vertex of each circle stays an end of
    # an insulated edge, so the hole's path still ends on insulated vertices.
    comps = [comp[1:] for comp in gens.components[0].contact_components]
    return replace_item(gens, "components", 0, contact_components=comps)


class MixedCycles(GeneratorSet):
    """Cycles 0 and 1 replaced by their sum and difference: on an identity
    pairing that block has determinant -2 and neither row peels."""

    def cycles(self, complex):
        out = list(super().cycles(complex))
        first, second = {**out[0]}, {**out[0]}
        for k, v in out[1].items():
            first[k] = first.get(k, 0) + v
            second[k] = second.get(k, 0) - v
        return [first, second] + out[2:]


def mix_two_cycles(gens):
    return MixedCycles(*gens)


def rings():
    return meshes.annulus(6, 3)


def grid():
    return meshes.torus_grid(4, 4)


def past_the_end(K, chain, pad):
    """``chain`` with its lowest edge id moved past the last edge."""
    out = dict(chain)
    out[K.num_edges + 3] = out.pop(min(out))
    return out


def wrapped_to_last(K, chain, pad):
    """``chain`` plus ``pad``, a term of its class through the last edge,
    with the last edge's id written as -1: read as the last edge, it is a
    chain of the same class."""
    out = dict(chain)
    for k, v in pad.items():
        out[k] = out.get(k, 0) + v
    out[-1] = out.pop(K.num_edges - 1)
    return out


def contact_id(pick):
    """The generators with a partition whose one contact id is ``pick(K)``."""
    return lambda K, gens: (classify_boundary(K, set())._replace(contact_edges={pick(K)}), gens)


def generator_zero(change):
    """Generator 0 changed by ``change``, padded by the coboundary of the
    last edge's tail."""

    def plant(K, gens):
        pad = {k: v for k, v in coboundary0(K, {K.edges[-1][0]: 1}).coeffs.items() if v}
        cochain = Cochain1(change(K, gens.generators[0].cochain.coeffs, pad))
        return classify_boundary(K, set()), replace_item(gens, "generators", 0, cochain=cochain)

    return plant


def cycle_zero(change):
    """Witness cycle 0 changed by ``change``, padded by the boundary of the
    last edge's first face."""

    class Planted(GeneratorSet):
        def cycles(self, complex):
            out = list(super().cycles(complex))
            pad = dict(face_edges(complex)[edge_faces(complex)[-1][0]])
            return [change(complex, out[0], pad)] + out[1:]

    return lambda K, gens: (classify_boundary(K, set()), Planted(*gens))


def klein_and_annulus():
    return meshes.disjoint_union(meshes.klein_grid(5, 4), meshes.annulus(6)), set()


def twist_the_orientable_component(gens):
    cid = next(i for i, m in enumerate(gens.components) if not m.twisted_edges)
    return replace_item(gens, "components", cid, twisted_edges=[0])


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
        eid = min(g.coeffs)
        dropped = Cochain1({k: v for k, v in g.coeffs.items() if k != eid})
        report = verify(K, bp, replace_item(gens, "generators", 0, cochain=dropped))
        assert not report.passed
        assert report.cocycle_ok == [False]

    def test_insulated_support_is_caught(self):
        # The coboundary of a boundary vertex's indicator sums to zero on
        # every face but is nonzero on the two insulated edges at the vertex.
        K = meshes.annulus(6)
        bp = classify_boundary(K, set())
        gens = compute_generators(K)
        v = K.edges[K.boundary_edge_ids[0]][0]
        report = verify(
            K, bp, replace_item(gens, "generators", 0, cochain=coboundary0(K, {v: 1}))
        )
        assert not report.passed
        assert report.cocycle_ok == [False]

    def test_cap_refusal(self):
        K = meshes.annulus(6)
        bp = classify_boundary(K, set())
        with pytest.raises(MeshTooLargeForOracle):
            verify(K, bp, compute_generators(K), cap=3)

    @pytest.mark.parametrize("name", [name for name, _, _ in corpus_with_contacts()])
    def test_cap_counts_edges_generators_and_cycles(self, name):
        # The Moebius strip with contacts cancels runs out of its anchor
        # loop, which the count follows.
        K, contact = next((K, c) for n, K, c in corpus_with_contacts() if n == name)
        gens, bp = compute_generators(K, contact), classify_boundary(K, contact)
        edges_and_support = K.num_edges + sum(len(g.cochain.coeffs) for g in gens.generators)
        work = edges_and_support + sum(len(z) for z in gens.cycles(K))
        assert verify(K, bp, gens, cap=work) == verify(K, bp, gens)
        with pytest.raises(MeshTooLargeForOracle):
            verify(K, bp, gens, cap=work - 1)
        with pytest.raises(MeshTooLargeForOracle, match=f"generators hold {edges_and_support} entries"):
            verify(K, bp, gens, cap=edges_and_support - 1)
        if work > edges_and_support:
            with pytest.raises(MeshTooLargeForOracle, match="witness cycles pass"):
                verify(K, bp, gens, cap=edges_and_support)

    def test_cycles_stop_at_their_limit(self, monkeypatch):
        # verify counts the witness cycles as they are built, so a refusal
        # comes before the rest of them take memory: with room for the
        # first of the four loops, the second is built and refused.
        K = meshes.genus2()
        gens, bp = compute_generators(K), classify_boundary(K, set())
        full = list(gens.cycles(K))
        assert len(full) == 4
        work = K.num_edges + sum(len(g.cochain.coeffs) for g in gens.generators)
        built, loop = [], generators._loop
        monkeypatch.setattr(generators, "_loop", lambda *args: built.append(1) or loop(*args))
        with pytest.raises(MeshTooLargeForOracle, match=f"pass {len(full[0])} entries"):
            verify(K, bp, gens, cap=work + len(full[0]))
        assert len(built) == 2
        built.clear()
        assert verify(K, bp, gens, cap=work + sum(map(len, full))).passed
        assert len(built) == 4

    def test_cycles_without_a_primal_forest_raise_a_named_error(self):
        K = meshes.genus2()
        gens = compute_generators(K)._replace(primal=None)
        with pytest.raises(ValueError, match="no primal forest"):
            next(gens.cycles(K))
        assert list(GeneratorSet().cycles(K)) == []

    def test_the_cycles_are_refused_before_the_tables(self, monkeypatch):
        # The witness cycles come right after the edge list is checked, so a
        # refusal for them pays for none of the other tables.
        K = meshes.genus2()
        gens = compute_generators(K)
        edges_and_support = K.num_edges + sum(len(g.cochain.coeffs) for g in gens.generators)
        assert sum(len(z) for z in gens.cycles(K)) > 0

        def planted(*args):
            raise AssertionError("a table was built before the cycles were counted")

        monkeypatch.setattr(oracle, "_relative", planted)
        monkeypatch.setattr(oracle, "_face_components", planted)
        with pytest.raises(MeshTooLargeForOracle, match="witness cycles pass"):
            verify(K, classify_boundary(K, set()), gens, cap=edges_and_support)

    def test_a_large_mesh_verifies_under_the_default_cap(self):
        # annulus(8) refined six times: E = 98,816 and one generator.
        K = meshes.annulus(8)
        for _ in range(6):
            K = refine(K)
        gens = compute_generators(K)
        assert K.num_edges == 98_816
        support = sum(len(g.cochain.coeffs) for g in gens.generators)
        assert K.num_edges + support + sum(len(z) for z in gens.cycles(K)) <= DEFAULT_WORK_CAP
        assert verify(K, classify_boundary(K, set()), gens).passed

    @pytest.mark.parametrize(
        "build, plant, failures",
        [
            (plain_annulus, drop_support_edge, ["generator 0 is not a relative cocycle"]),
            (
                moebius_with_arc,
                duplicate_generator,
                [
                    "2 generators but Betti number is 1",
                    "generators are dependent modulo relative coboundaries",
                    "2 contact generators, expected 1",
                ],
            ),
            (
                plain_annulus,
                inflate_holes_and_contacts,
                [
                    "pipeline reports 3 boundary circles, oracle 2",
                    "pipeline reports 1 contact components, oracle 0",
                    "1 hole generators, expected 2",
                ],
            ),
            (
                plain_annulus,
                claim_a_twisted_edge,
                [
                    "pipeline reports 1 components with twisted edges, oracle 0 non-orientable",
                    "0 handle generators, expected -1",
                ],
            ),
            (
                klein_and_annulus,
                twist_the_orientable_component,
                [
                    "pipeline reports 2 components with twisted edges, oracle 1 non-orientable",
                    "1 handle generators, expected 0",
                ],
            ),
            (
                pants,
                double_generator,
                [
                    "pairing matrix is not unimodular: generator 0 pairs to -2 "
                    "with cycle 0 once the others are peeled"
                ],
            ),
            (
                moebius_with_arc,
                double_generator,
                [
                    "pairing matrix is not unimodular: generator 0 pairs to -2 "
                    "with cycle 0 once the others are peeled"
                ],
            ),
            (
                twisted_chain,
                double_generator,
                [
                    "pairing matrix is not unimodular: generator 0 pairs to 2 "
                    "with cycle 0 once the others are peeled"
                ],
            ),
            (annulus_two_arcs, shorten_the_runs, ["cycle 1 is not a relative cycle"]),
            (genus_two, mix_two_cycles, ["pairing matrix does not peel: 2 generators stall"]),
        ],
        ids=[
            "cocycle", "duplicate", "counts", "twisted", "components",
            "doubled-hole", "doubled-anchor-contact", "doubled-twisted-handle",
            "cycle", "stall",
        ],
    )
    def test_every_failure_text(self, build, plant, failures):
        K, contact = build()
        gens = plant(compute_generators(K, contact))
        report = verify(K, classify_boundary(K, contact), gens)
        assert report.failures == failures

    @pytest.mark.parametrize(
        "build, plant, failure",
        [
            (rings, contact_id(lambda K: K.num_edges + 2), "contact edge 44 is not a boundary edge"),
            (rings, contact_id(lambda K: -1), "contact edge -1 is not a boundary edge"),
            (rings, contact_id(lambda K: 1), "contact edge 1 is not a boundary edge"),
            (grid, generator_zero(past_the_end), "generator 0 is not a relative cocycle"),
            (grid, generator_zero(wrapped_to_last), "generator 0 is not a relative cocycle"),
            (grid, cycle_zero(past_the_end), "cycle 0 is not a relative cycle"),
            (grid, cycle_zero(wrapped_to_last), "cycle 0 is not a relative cycle"),
        ],
        ids=[
            "contact-past-end", "contact-minus-one", "contact-interior",
            "generator-past-end", "generator-minus-one", "cycle-past-end", "cycle-minus-one",
        ],
    )
    def test_ids_off_the_edge_list_fail(self, build, plant, failure):
        # An id is read as it is handed over: a contact id off the
        # boundary, or a generator or cycle id outside 0..E-1, is a failure
        # that names it, not a crash, a wrap to the last edge or a quiet
        # change of the Betti number.
        K = build()
        partition, gens = plant(K, compute_generators(K))
        report = verify(K, partition, gens)
        assert report.failures[:1] == [failure]
        assert report.betti1_relative == len(gens.generators)

    @pytest.mark.parametrize("build", [genus_two, pants, moebius_with_arc, annulus_two_arcs])
    def test_a_set_without_forests_fails_on_independence(self, build):
        # GeneratorSet is public and its primal forest defaults to None: such
        # a set offers no witness cycles, which is a failure of its own, not
        # a crash.
        K, contact = build()
        gens = compute_generators(K, contact)
        for bare in (GeneratorSet(gens.generators, gens.components), gens._replace(primal=None)):
            report = verify(K, classify_boundary(K, contact), bare)
            assert not report.independence_ok
            assert report.failures == ["no witness cycles: the generator set holds no forests"]
            assert report.cocycle_ok == [True] * len(gens.generators)

    @pytest.mark.parametrize("build", [meshes.moebius, meshes.annulus])
    def test_ignores_the_pipeline_boundary_table(self, build):
        # The oracle finds the boundary in its own incidence and reads only
        # the contact edge ids of the partition, so emptying the complex's
        # boundary edge list and the partition's circles and contact
        # components must not change the report (torsion on the Moebius strip, circles
        # on the annulus), with or without a contact arc.
        K = build(6)
        for contact in (set(), meshes.boundary_arc(K, 0, 2)):
            gens, bp = compute_generators(K, contact), classify_boundary(K, contact)
            blank = bp._replace(hole_components=[], contact_components=[])
            report = verify(K._replace(boundary_edge_ids=[]), blank, gens)
            assert report.passed, report.failures
            assert report == verify(K, bp, gens)

    @pytest.mark.parametrize("build", [meshes.genus2, meshes.klein_grid])
    def test_doubled_generator_is_caught(self, build):
        # Independent over Q but not a basis over Z: the pairing certificate
        # sees the 2.
        K = build()
        gens = compute_generators(K)
        report = verify(K, classify_boundary(K, set()), double_generator(gens))
        assert not report.passed
        assert not report.independence_ok
        assert [f.split(":")[0] for f in report.failures] == ["pairing matrix is not unimodular"]

    @pytest.mark.parametrize("build", [genus_two, pants, moebius_with_arc, twisted_chain])
    def test_unimodular_changes_pass(self, build):
        # A negated generator, and here generator 0 plus generator 1 (two of
        # one class), leave a basis over Z that still peels.
        K, contact = build()
        gens = compute_generators(K, contact)
        changed = [scaled(gens, i, -1) for i in range(len(gens.generators))]
        if len(gens.generators) > 1:
            added = dict(gens.generators[0].cochain.coeffs)
            for k, v in gens.generators[1].cochain.coeffs.items():
                added[k] = added.get(k, 0) + v
            changed.append(replace_item(gens, "generators", 0, cochain=Cochain1(added)))
        for planted in changed:
            report = verify(K, classify_boundary(K, contact), planted)
            assert report.passed, report.failures

    def test_same_verdict_as_the_dense_smith_form(self):
        # The generators with the relative coboundaries span the relative
        # cocycles over Z exactly when the stacked rows have only unit
        # invariant factors; doubling generator 0 breaks both verdicts.
        for name, K, contact in corpus_with_contacts():
            gens = compute_generators(K, contact)
            if not gens.generators:
                continue
            inc, _, d0, _ = oracle_rows(K, contact)
            for planted in (gens, double_generator(gens)):
                rows = [g.cochain.coeffs for g in planted.generators]
                factors = smith_invariant_factors(dense(rows + d0, len(inc.edges)))
                unit = set(factors) == {1}
                report = verify(K, classify_boundary(K, contact), planted)
                assert report.independence_ok == unit == (planted is gens), name

    def test_defines_no_elimination(self):
        # Every count is closed form and independence is a peel of the
        # pairing matrix: no rank routine and no pivot heap in the oracle.
        tree = ast.parse(Path(oracle.__file__).read_text())
        defined = {
            node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
        }
        imported = {
            alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        } | {
            node.module
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
        }
        assert not [name for name in defined if "rank" in name or "eliminat" in name]
        assert "heapq" not in imported

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


class TestIndependence:
    """The oracle re-derives its tables from the raw face list; reading one
    of the pipeline's tables would let a pipeline bug hide from it."""

    tree = ast.parse(Path(oracle.__file__).read_text())

    def test_imports_only_errors_and_the_surface_types(self):
        imported = {
            (node.module, alias.name)
            for node in ast.walk(self.tree)
            if isinstance(node, ast.ImportFrom) and (node.level or "globalloops" in node.module)
            for alias in node.names
        }
        assert {module for module, _ in imported} <= {"errors", "surface"}
        assert {name for module, name in imported if module == "surface"} <= {
            "BoundaryPartition",
            "SurfaceComplex",
        }
        assert not any(
            alias.name.startswith("globalloops")
            for node in ast.walk(self.tree)
            if isinstance(node, ast.Import)
            for alias in node.names
        )

    def test_reads_only_the_raw_complex(self):
        read = {
            node.attr
            for node in ast.walk(self.tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "complex"
        }
        assert read <= {"faces", "edges", "num_edges", "num_vertices"}

    @pytest.mark.parametrize(
        "mesh, mismatch, message",
        [
            pytest.param("torus_grid", mismatch, message, id=f"{mismatch}-{message}")
            for mismatch, message in (
                ("extra", "on no face"),
                ("missing", "not in the edge list"),
                ("repeated", "repeats a pair"),
                ("reversed", "reversed"),
            )
        ]
        # The witness cycles index the edge list, so a short one must meet
        # the check before them, not an IndexError inside them.
        + [
            (mesh, f"missing {count}", "not in the edge list")
            for mesh, counts in (
                ("klein_minus_disk", (1, 2, 5, 10)),
                ("csaszar_torus", (5, 10)),
                ("genus2", (5, 10)),
                ("torus_with_hole", (5, 10)),
            )
            for count in counts
        ],
    )
    def test_a_mismatched_edge_list_raises(self, mesh, mismatch, message):
        # The edge list numbers the oracle's edges, so it is checked against
        # the faces rather than trusted.
        K = getattr(meshes, mesh)()
        gens = compute_generators(K)
        edges = list(K.edges)
        pairs = combinations(range(K.num_vertices), 2)
        absent = next((p for p in pairs if p not in K.edge_index), None)  # K7 has none
        kind, _, count = mismatch.partition(" ")
        edges = {
            "extra": edges + [absent],
            "missing": edges[: -int(count or 1)],
            "repeated": edges[:-1] + edges[:1],
            "reversed": [edges[0][::-1]] + edges[1:],
        }[kind]
        with pytest.raises(ValueError, match=message):
            verify(K._replace(edges=edges), classify_boundary(K, set()), gens)

    def test_a_third_face_on_an_edge_raises(self):
        # A fin: the edge 0-1 on three faces, which build_complex refuses and
        # the oracle's two faces per edge cannot hold.
        faces = [(0, 1, 2), (1, 0, 3), (0, 1, 4)]
        edges = sorted(
            {(min(u, w), max(u, w)) for a, b, c in faces for u, w in ((a, b), (b, c), (c, a))}
        )
        K = SurfaceComplex(
            num_vertices=5,
            edges=edges,
            faces=faces,
            half=[],
            sign=[],
            twin=[],
            edge_half=[],
            edge_index={},
            vertex_edges=[],
            coords=None,
            boundary_edge_ids=[],
        )
        partition = BoundaryPartition([], [], set())
        with pytest.raises(ValueError, match=f"edge {edges.index((0, 1))} lies on a third face"):
            verify(K, partition, GeneratorSet())


def classes(root, named):
    """The classes of the vertices ``named`` under a vertex -> root map."""
    out = {}
    for v in named:
        out.setdefault(root[v], set()).add(v)
    return sorted(sorted(c) for c in out.values())


def flat_table_meshes(kind):
    if kind == "corpus":
        return [K for _, K, _ in corpus_with_contacts()]
    return [meshes.sample(kind, seed) for seed in range(3 if kind != "mixed_surface" else 1)]


class TestFlatTables:
    """The oracle's per-edge face lists, its per-face edge list and its
    vertex union-find against plain references."""

    @pytest.mark.parametrize("kind", ("corpus",) + meshes.SAMPLE_KINDS)
    def test_cofaces_equal_the_faces_read_one_by_one(self, kind):
        for K in flat_table_meshes(kind):
            inc = incidence(K)
            sides = zip(zip(inc.face0, inc.sign0), zip(inc.face1, inc.sign1))
            flat = [[(f, s) for f, s in pair if f >= 0] for pair in sides]
            assert flat == signed_cofaces(K)
            assert inc.boundary == {e for e, cof in enumerate(flat) if len(cof) == 1}
            index = {pair: eid for eid, pair in enumerate(K.edges)}
            halves = [(u, w) for a, b, c in K.faces for u, w in ((a, b), (b, c), (c, a))]
            assert inc.half == [index[min(u, w), max(u, w)] for u, w in halves]

    @pytest.mark.parametrize("kind", ("corpus",) + meshes.SAMPLE_KINDS)
    def test_roots_equal_a_dict_union_find(self, kind):
        for K in flat_table_meshes(kind):
            inc = incidence(K)
            every = range(K.num_vertices)
            root = oracle._roots(K.num_vertices, K.edges)
            assert classes(root, every) == classes(dict_roots(K.edges), every)
            # The circles, and the contact components of a random half of
            # the boundary edges, which leaves runs of every length.
            rim_edges = sorted(inc.boundary)
            contact = set(random.Random(len(K.edges)).sample(rim_edges, len(rim_edges) // 2))
            for edge_ids in (inc.boundary, contact):
                joined = dict_roots(K.edges[e] for e in edge_ids)
                assert oracle._classes(inc, edge_ids) == len(set(joined.values()))

    @pytest.mark.parametrize("order", ["tail to head", "head to tail", "shuffled"])
    def test_roots_on_paths(self, order):
        # Two paths and a vertex on neither.  Fed tail to head, each union
        # hangs the path's root one step further, so the last pass meets a
        # chain as long as the path: quadratic unless it compresses.
        n = 20_001
        pairs = [(v, v + 1) for v in range(n // 2 - 1)] + [(v, v + 1) for v in range(n // 2, n - 2)]
        if order == "head to tail":
            pairs.reverse()
        elif order == "shuffled":
            random.Random(0).shuffle(pairs)
        root = oracle._roots(n, pairs)
        assert classes(root, range(n)) == [list(range(n // 2)), list(range(n // 2, n - 1)), [n - 1]]
        assert classes(root, range(n - 1)) == classes(dict_roots(pairs), range(n - 1))
