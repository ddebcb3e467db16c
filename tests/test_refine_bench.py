"""Refinement arithmetic and the growth-exponent fit."""

import meshes
from globalloops.bench import fit_exponent, run_refinement_bench
from globalloops.refine import refine
from globalloops.surface import boundary_components, euler_characteristic


def test_one_to_four_counts():
    K = meshes.annulus(8)
    fine = refine(K)
    assert fine.num_faces == 4 * K.num_faces
    assert fine.num_edges == 2 * K.num_edges + 3 * K.num_faces
    assert fine.num_vertices == K.num_vertices + K.num_edges
    assert euler_characteristic(fine) == euler_characteristic(K)


def test_topology_preserved():
    K = meshes.annulus(6)
    fine = refine(refine(K))
    assert len(boundary_components(fine)) == 2
    M = meshes.moebius(6)
    fine_m = refine(M)
    assert len(boundary_components(fine_m)) == 1
    assert euler_characteristic(fine_m) == 0


def test_midpoints_are_deterministic():
    K = meshes.annulus(6)
    a = refine(K)
    b = refine(K)
    assert a.faces == b.faces
    assert a.coords == b.coords


def test_coordinates_are_midpoints():
    K = meshes.annulus(6)
    fine = refine(K)
    eid = 0
    a, b = K.edges[eid]
    mid = fine.coords[K.num_vertices + eid]
    for i in range(3):
        assert mid[i] == (K.coords[a][i] + K.coords[b][i]) / 2.0


def test_fit_exponent_recovers_linear_growth():
    points = [(100, 0.001), (400, 0.004), (1600, 0.016), (6400, 0.064)]
    assert abs(fit_exponent(points) - 1.0) < 1e-9


def test_fit_exponent_recovers_quadratic_growth():
    points = [(100, 1.0), (200, 4.0), (400, 16.0)]
    assert abs(fit_exponent(points) - 2.0) < 1e-9


def test_bench_levels_report_sizes():
    levels = run_refinement_bench(meshes.annulus(6), levels=2, repeats=1)
    assert [l.num_faces for l in levels] == [12, 48, 192]
    assert all(l.seconds > 0 for l in levels)


def test_torus_family_timings_are_monotone():
    levels = run_refinement_bench(meshes.torus_grid(6, 6), levels=3, repeats=3)
    times = [l.seconds for l in levels]
    assert times == sorted(times)
