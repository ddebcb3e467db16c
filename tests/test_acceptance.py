"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.
"""

import functools
import json

import meshes
from globalloops.cochain import evaluate, is_relative_cocycle
from globalloops.forest import build_tree_cotree
from globalloops.generators import compute_generators
from globalloops.oracle import betti1_relative, homology_snf, is_orientable, verify
from globalloops.surface import (
    boundary_components,
    build_closed_complex,
    classify_boundary,
)
from globalloops.bench import fit_exponent, run_refinement_bench
from globalloops.cli import main as cli_main
from globalloops.meshio import write_off
from test_generators import fundamental_cycle


def criterion(name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {name}: FAIL")
                raise
            print(f"ACCEPTANCE {name}: PASS")

        return wrapper

    return decorate


def corpus_with_contacts():
    annulus = meshes.annulus(6)
    moebius = meshes.moebius(6)
    return [
        ("disk", meshes.disk(6), set()),
        ("annulus", annulus, set()),
        ("pair_of_pants", meshes.pair_of_pants(), set()),
        ("torus_with_hole", meshes.torus_with_hole(), set()),
        ("moebius", moebius, set()),
        ("moebius_with_contacts", moebius, meshes.boundary_arc(moebius, 0, 3)),
        ("klein_minus_disk", meshes.klein_minus_disk(), set()),
        ("torus", meshes.csaszar_torus(), set()),
        ("genus2", meshes.genus2(), set()),
        (
            "annulus_two_arcs",
            annulus,
            meshes.boundary_arc(annulus, 0, 3) | meshes.boundary_arc(annulus, 1, 3),
        ),
    ]


@criterion("annulus-full-insulation")
def test_annulus_full_insulation():
    K = meshes.annulus(6)
    bp = classify_boundary(K, set())
    gens = compute_generators(K)
    assert len(gens.generators) == 1
    assert gens.generators[0].kind == "ho"
    report = verify(K, bp, gens)
    assert report.betti1_relative == 1
    assert report.cocycle_ok == [True]
    assert report.independence_ok
    assert report.passed


@criterion("moebius-full-insulation")
def test_moebius_full_insulation():
    K = meshes.moebius(6)
    bp = classify_boundary(K, set())
    gens = compute_generators(K)
    assert gens.generators == []
    assert betti1_relative(K, bp) == 0
    meta = gens.components[0]
    assert meta.num_candidate_edges == 1
    assert meta.num_twisted_edges == 1
    assert not meta.orientable
    assert not is_orientable(K)


@criterion("handle-generators-and-pairing")
def test_handle_generators_and_pairing():
    for K, expected in ((meshes.csaszar_torus(), 2), (meshes.genus2(), 4)):
        gens = compute_generators(K)
        assert len(gens.ha) == expected
        assert len(gens.generators) == expected
        bp = classify_boundary(K, set())
        assert betti1_relative(K, bp) == expected
        tc = build_tree_cotree(K, boundary_components(K))
        for i, g in enumerate(gens.ha):
            for j, eid in enumerate(tc.candidate_edges):
                pairing = evaluate(g, fundamental_cycle(K, tc, eid))
                assert pairing == (1 if i == j else 0)


@criterion("dimension-formula-suite")
def test_dimension_formula_suite():
    for name, K, contact in corpus_with_contacts():
        bp = classify_boundary(K, contact)
        gens = compute_generators(K, contact)
        for meta in gens.components:
            per_kind = {
                kind: sum(
                    1
                    for g in gens.generators
                    if g.kind == kind and g.component == meta.component_id
                )
                for kind in ("ha", "ho", "co")
            }
            assert per_kind["ho"] == max(meta.num_holes - 1, 0), name
            if meta.num_contacts == 0:
                expected_co = 0
            elif meta.orientable:
                expected_co = meta.num_contacts - 1
            else:
                expected_co = meta.num_contacts
            assert per_kind["co"] == expected_co, name
            expected_ha = meta.num_candidate_edges - (
                1 if meta.num_twisted_edges else 0
            )
            assert per_kind["ha"] == expected_ha, name
        assert len(gens.generators) == betti1_relative(K, bp), name


@criterion("torsion-orientability-equivalence")
def test_torsion_orientability_equivalence():
    for name, K, contact in corpus_with_contacts():
        gens = compute_generators(K, contact)
        twisted = gens.num_twisted_edges > 0
        non_orientable = not is_orientable(K)
        _, torsion = homology_snf(build_closed_complex(K))
        assert twisted == non_orientable == (torsion == [2]), name


@criterion("randomized-robustness")
def test_randomized_robustness():
    import warnings

    checked = 0
    for seed in range(25):
        for builder in (meshes.random_disk, meshes.random_annulus):
            for with_contact in (False, True):
                K = builder(seed, steps=12)
                contact = (
                    meshes.random_contact_arc(K, seed + 1000) if with_contact else set()
                )
                with warnings.catch_warnings():
                    # Random arcs may legitimately be a single edge.
                    warnings.simplefilter("ignore", UserWarning)
                    bp = classify_boundary(K, contact)
                    gens = compute_generators(K, contact)
                for gen in gens.generators:
                    ok, reason = is_relative_cocycle(K, gen.cochain, bp)
                    assert ok, f"seed {seed}: {reason}"
                assert len(gens.generators) == betti1_relative(K, bp), f"seed {seed}"
                checked += 1
    assert checked == 100


@criterion("linear-scaling")
def test_linear_scaling():
    levels = run_refinement_bench(meshes.annulus(8), levels=5, repeats=5)
    fitted = fit_exponent(
        [(l.num_edges, l.seconds) for l in levels if l.level >= 2]
    )
    assert fitted <= 1.2, f"fitted growth exponent {fitted:.3f}"
    assert levels[-1].num_edges > 20000
    assert levels[-1].seconds < 5.0


@criterion("byte-identical-reports")
def test_byte_identical_reports(tmp_path):
    K = meshes.annulus(6)
    mesh_path = tmp_path / "annulus.off"
    write_off(mesh_path, K)
    arcs = meshes.boundary_arc(K, 0, 3) | meshes.boundary_arc(K, 1, 3)
    contact_path = tmp_path / "contacts.txt"
    contact_path.write_text(
        "\n".join(f"{K.edges[e][0]} {K.edges[e][1]}" for e in sorted(arcs)) + "\n"
    )
    outputs = []
    for run in range(2):
        out = tmp_path / f"report{run}.json"
        code = cli_main(
            [
                "compute",
                str(mesh_path),
                "--contacts",
                str(contact_path),
                "--out",
                str(out),
                "--verify",
            ]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    json.loads(outputs[0])  # remains well-formed JSON
