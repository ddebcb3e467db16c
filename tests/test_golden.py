"""Golden corpus: one SHA-256 per input over the rendered report and the
anchor edges, so a change that claims "same bytes" proves it here.

The digest covers the report text exactly as ``global-loops compute``
writes it with ``meshio.report_text``, with the ``--verify`` block wherever
the mesh has at most ``VERIFY_MAX_EDGES`` edges, followed by each
component's anchor edge; a second test holds that text to the indented
JSON dump of the report that ``reference.report_dict`` builds record by
record, apart from the writer, and a third checks the whole table again
in a ``python -O`` subprocess, where ``assert`` statements are stripped.
A change that alters output on purpose regenerates the table with

    PYTHONPATH=src python tests/test_golden.py

and says why in its change notes.
"""

import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import meshes
import reference
import globalloops
from globalloops import meshio
from globalloops.generators import compute_generators
from globalloops.oracle import verify
from globalloops.surface import build_complex, classify_boundary

VERIFY_MAX_EDGES = 6000
RANDOM_SEEDS = range(20)
WORKLOAD_SEEDS = (1, 2, 3)


def _builders():
    return {
        "triangle": meshes.triangle,
        "two_triangles": meshes.two_triangles,
        "octahedron": meshes.octahedron,
        "disk": meshes.disk,
        "annulus": meshes.annulus,
        "torus_grid": meshes.torus_grid,
        "csaszar_torus": meshes.csaszar_torus,
        "moebius": meshes.moebius,
        "klein_grid": meshes.klein_grid,
        "klein_minus_disk": meshes.klein_minus_disk,
        "torus_with_hole": meshes.torus_with_hole,
        "pair_of_pants": meshes.pair_of_pants,
        "genus2": meshes.genus2,
    }


def corpus():
    """Name -> zero-argument factory returning (complex, contact edge ids)."""
    out = {}
    for name, build in _builders().items():
        out[name] = lambda build=build: (build(), set())
        if build().boundary_edge_ids:

            def with_arc(build=build):
                K = build()
                return K, meshes.random_contact_arc(K, seed=7)

            out[f"{name}+arc"] = with_arc

    def union_with_arcs():
        K = meshes.disjoint_union(
            meshes.csaszar_torus(), meshes.moebius(6), meshes.annulus(6)
        )
        arcs = set()
        for circle in range(3):
            arcs |= meshes.boundary_arc(K, circle, 2)
        return K, arcs

    out["disjoint_union+arcs"] = union_with_arcs
    out["mixed_surface"] = meshes.mixed_surface
    for seed in RANDOM_SEEDS:

        def random_annulus(seed=seed):
            K = meshes.random_annulus(seed)
            return K, meshes.random_contact_arc(K, seed)

        out[f"random_annulus-{seed}"] = random_annulus
    for workload in ("verify-small", "loops-heavy"):
        for seed in WORKLOAD_SEEDS:

            def from_workload(workload=workload, seed=seed):
                made = meshes.workloads().make_input(workload, seed)
                num_vertices, coords, faces = meshio.parse_off(made.off_text())
                K = build_complex(num_vertices, faces, coords=coords)
                text = made.contacts_text()
                return K, meshio.parse_contacts(text, K) if text else set()

            out[f"{workload}-{seed}"] = from_workload
    return out


def outputs(complex, contact_edges):
    """Generators and, where the mesh has at most ``VERIFY_MAX_EDGES``
    edges, their verification."""
    gens = compute_generators(complex, contact_edges)
    verification = None
    if complex.num_edges <= VERIFY_MAX_EDGES:
        verification = verify(complex, classify_boundary(complex, contact_edges), gens)
    return gens, verification


def digest(complex, contact_edges):
    gens, verification = outputs(complex, contact_edges)
    text = meshio.report_text(complex, gens, verification)
    anchors = [meta.anchor_edge for meta in gens.components]
    payload = text + "anchors " + json.dumps(anchors) + "\n"
    return hashlib.sha256(payload.encode()).hexdigest()


DIGESTS = {
    "annulus": "fb64cddd6bbea8c6c27bc88cdb2d68e7f832fb497a27a3a04a7b7ef949ea7416",
    "annulus+arc": "172c1d377b5f2d08b73a61e11479ab9eac506f1df6d95f7a312b72e7364b78f7",
    "csaszar_torus": "062b82ae4e6ef67a8ffc01c74780b740b59f9cb80a561c2c19efa18953981ac4",
    "disjoint_union+arcs": "f1cbc76d398fa303cb75799ce5010dec28e2eabe9d3ec24cddaf191d9fe71240",
    "disk": "e959dee2f7ac721e53bf6ae6bbd669f3629846054e8412486d9b9c5d2585360f",
    "disk+arc": "0d5c12092a2259f5c6d3d95df162bf17ea8160a3d3d9667574e195f2393e147b",
    "genus2": "cfb5b4be7a70c7ff90f1e8c52e60a5470fe9fd0fdb3c2320f752a7e287243859",
    "klein_grid": "58cf0bcdfb420544125f8b0203fd568d70dc1083a031d8177dea0915952cb491",
    "klein_minus_disk": "515efcc0a881f1ecbde28a33d04b384ee36fe301fd5936b9263bd3a231c88501",
    "klein_minus_disk+arc": "77b0ef3b8168a9e6fdb8051f810fcdd5a6c893df23eac7ad1efd9ccc34a4d0f0",
    "loops-heavy-1": "6fb33bd1a86955ecadd4ba7a95669b86d1679b40e34a35af75ee4b75910fc361",
    "loops-heavy-2": "47343e4396069de7adfeb85530c81187b84b4de2ddeddce3371a81a6381c59a5",
    "loops-heavy-3": "939078f3f94dceff5cc3e686f90bdc7340ca59e739d4d1ab3247a5e2453bac7e",
    "mixed_surface": "a442e2dc0de00a9f158818b88d9e4ddda089c50decc57a6acb8f106682e901ac",
    "moebius": "3f80c2019ea4d3e7170e1c5b4c45bab87379991f9de2abb9acee1faa6ddee918",
    "moebius+arc": "d425e49e8fe99d0e60e686c1db634f97fb7bce0992606f1b10281234d5a96a65",
    "octahedron": "b14a8f295c2ce4d8a7f5fdfa2c2183a884bcd852f746360c562f5880da43f60d",
    "pair_of_pants": "cb145bc3503bf70dd45f840700c914956a5b4c2284704d31c91986bf2e11044f",
    "pair_of_pants+arc": "75b4cc86f395296b878ce5a2f559b511ccbf17c374aca710136e3f02c7179a93",
    "random_annulus-0": "92101f074fdfd358bdc43f8616d14698d8d7d79481338861f76f149e052d5317",
    "random_annulus-1": "eff0a7a664bbf2076cd55a976a650927755505ed79131d95d8dde504eef27896",
    "random_annulus-10": "4cd45664d1cc3fc933bfc918e7fa9de696197d062336018d855a2099f37dbd2c",
    "random_annulus-11": "26179040e6e11927670adb72e0498dca4f5980089c313b09eb76af947a49dedb",
    "random_annulus-12": "64ffc06f632a6a3f816540a387374f57ffb82177d37badfdafc69805e7099113",
    "random_annulus-13": "daeddd6ee80a06e8fa0984dd3012eca8b8d7138c353035fe7b68657f3fd3d5ab",
    "random_annulus-14": "1b3af23ea7729b802fda4f3e556cb32bf727bec310a0d130bc1d7e57125a6013",
    "random_annulus-15": "7db546fdbac9d3ebfd216a12215b448dfdecc09c4924bec742fe647a47de1ab5",
    "random_annulus-16": "615cd11b7ebf9d5a45c9ecd304da3767028c203eed5ff00b0c3b16f0cd1f7f10",
    "random_annulus-17": "daa8d1d2a5cbbf8b7c70a7b1e46561456eac19c6fbf19a9e2f197a5fd76d47b8",
    "random_annulus-18": "7079db104c8d828120fc59e93433612b14901cc8c4eb557d2847fe4eba870b4d",
    "random_annulus-19": "f788685162edfdcc0a970c43b5354e816b50cdf700aed0afee604108e7aeef48",
    "random_annulus-2": "b60afc8042fd41f6c4f64108b8c6e6ffa5110fc9a12b0d299be00b6d5cd44906",
    "random_annulus-3": "187076fcd73e08e2d541fe348a16f61c9fa0ba0e2d2149b3a6fed8fffbbd61e4",
    "random_annulus-4": "42b65485cac9136796a9e96da256a7d066511d3e26536174c6779d751405f920",
    "random_annulus-5": "2242a52db48ed710b086f57fc2c491161c3b42c25b9176d1e6ae1e0f9f59185c",
    "random_annulus-6": "a2469ec46c52e95fe495b1f8c932f5e312e3e5826c7f65669554ddf77c49d33d",
    "random_annulus-7": "861f36ee2192443f8f37aa456ff5fd0203b9a704e47ebefa8208cd2aa0e2d5cc",
    "random_annulus-8": "74683ae3e57f714c832e557847e669832c849fb3b0cc599785e35cc051742497",
    "random_annulus-9": "a65916dee50035c27b8be9998e3d7723edde2e463efc02111943a417edcca821",
    "torus_grid": "2b39046731e29f080f60a42031dd512f8e6932af35ad825e17873ede67c728e3",
    "torus_with_hole": "603e8cbc300c6a1978e735862192fe1cf88a1b9eb74d6b13e32d88e896c09e3c",
    "torus_with_hole+arc": "952050c93c9fb30867d8c1400f0ab29ea97a542a984b06e8931ef0b531558b05",
    "triangle": "e959dee2f7ac721e53bf6ae6bbd669f3629846054e8412486d9b9c5d2585360f",
    "triangle+arc": "0d5c12092a2259f5c6d3d95df162bf17ea8160a3d3d9667574e195f2393e147b",
    "two_triangles": "e959dee2f7ac721e53bf6ae6bbd669f3629846054e8412486d9b9c5d2585360f",
    "two_triangles+arc": "0d5c12092a2259f5c6d3d95df162bf17ea8160a3d3d9667574e195f2393e147b",
    "verify-small-1": "19d2100e0d2428e60acec3325b69e063ec11d7e229402afee5146f7540d6a275",
    "verify-small-2": "b28572e2ecda9cc9bde65533efa2173ed41f99c83c2935004af4ca466ca83413",
    "verify-small-3": "96c2c058f0970b5b6a86624aff510ab5e95a8fdbd4b8cd1feefccc2b4845d369",
}


def test_corpus_matches_the_table():
    assert sorted(corpus()) == sorted(DIGESTS)


@pytest.mark.filterwarnings("ignore:contact component")
@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_digest_unchanged(name):
    assert digest(*corpus()[name]()) == DIGESTS[name]


@pytest.mark.filterwarnings("ignore:contact component")
@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_cli_text_is_the_indented_json(name):
    complex, contact_edges = corpus()[name]()
    gens, verification = outputs(complex, contact_edges)
    report = reference.report_dict(complex, gens, verification)
    expected = json.dumps(report, indent=2, sort_keys=True) + "\n"
    text = meshio.report_text(complex, gens, verification)
    if text != expected:
        # pytest's own diff of two texts of megabytes takes minutes.
        at = len(os.path.commonprefix([text, expected]))
        window = slice(max(at - 60, 0), at + 60)
        pytest.fail(
            f"texts differ at character {at}: {text[window]!r} "
            f"against {expected[window]!r}"
        )


def test_digests_hold_under_python_O():
    # Stripped assertions must not change a single report byte.
    tests = Path(__file__).resolve().parent
    package_root = Path(globalloops.__file__).resolve().parents[1]
    script = (
        "import sys, warnings, test_golden as g\n"
        "warnings.simplefilter('ignore')\n"
        "assert False, 'assertions are on'\n"
        "print([n for n, f in sorted(g.corpus().items()) if g.digest(*f()) != g.DIGESTS[n]])\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, (package_root, tests))))
    run = subprocess.run(
        [sys.executable, "-O", "-c", script],
        cwd=tests, env=env, capture_output=True, text=True, timeout=600,
    )
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")


if __name__ == "__main__":
    warnings.simplefilter("ignore")  # one-edge ports warn
    print("DIGESTS = {")
    for name, factory in sorted(corpus().items()):
        print(f'    "{name}": "{digest(*factory())}",')
    print("}")
