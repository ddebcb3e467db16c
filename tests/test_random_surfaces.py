"""Random surfaces of every class, checked against the oracle.

Inputs are unions of one to three parts built with the benchmark's own
constructions (``perfbench/workloads.py``, imported read-only): chains of
tori and Klein bottles, and annuli, pants, Moebius strips and Klein bottles
minus a disk with contact arcs on their circles.  Each construction knows its
topology, so the expected class sizes come from the dimension formulas
without asking the code under test.
"""

import random
from collections import Counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import meshes
from globalloops.generators import compute_generators
from globalloops.meshio import report_text
from globalloops.oracle import verify
from globalloops.surface import build_complex, classify_boundary

wl = meshes.workloads()

# ``pants`` only with at least four rings: with fewer, the removed quad
# touches the outer ring and the surface has two circles, not three.
HOLED = {
    "annulus": lambda size: wl.annulus(4 + 4 * size, 2),
    "pants": lambda size: wl.pants(8, 4),
    "moebius": lambda size: wl.moebius(3 + size),
    "klein_minus_strip": lambda size: wl.klein_minus_strip(5, 4),
}


@st.composite
def parts(draw):
    """One closed chain or one holed surface with arcs on its circles."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        tori = draw(st.lists(st.booleans(), min_size=1, max_size=4))
        return wl.connect_sum([wl.torus(4, 4) if t else wl.klein(4, 4) for t in tori])
    s = HOLED[draw(st.sampled_from(sorted(HOLED)))](draw(st.integers(0, 3)))
    for circle, cyc in enumerate(s.circles):
        count = draw(st.integers(0, len(cyc) // 4))
        if count:
            s = wl.with_arcs(s, circle, count, rng)
    return s


def run(surface):
    """Generators, verification and report text of a workload surface."""
    K = build_complex(surface.num_vertices, surface.faces)
    contact = {K.edge_index[min(u, w), max(u, w)] for arc in surface.arcs for u, w in arc}
    gens = compute_generators(K, contact)
    report = verify(K, classify_boundary(K, contact), gens)
    return gens, report, report_text(K, gens, report)


def check(surface, seed):
    expected = wl.Input("random", surface, verify=True).expected
    counts = []
    for rng in (random.Random(seed), random.Random(seed + 1)):
        scrambled = wl.scramble(surface, rng)
        gens, report, text = run(scrambled)
        assert report.passed, report.failures
        kinds = Counter(g.kind for g in gens.generators)
        counts.append((kinds["ha"], kinds["ho"], kinds["co"], len(gens.components)))
        assert counts[-1] == (
            expected["ha"], expected["ho"], expected["co"], expected["components"]
        )
        assert run(scrambled)[2] == text
    assert counts[0] == counts[1]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(parts(), min_size=1, max_size=3), st.integers(0, 2**32 - 1))
def test_random_union_passes_the_oracle(pieces, seed):
    check(wl.union(pieces), seed)


def test_many_arcs_on_one_circle():
    surface = wl.with_arcs(wl.annulus(256, 2), 0, 64, random.Random(0))
    check(surface, 0)


def test_long_klein_chain():
    check(wl.connect_sum([wl.klein(4, 4) for _ in range(32)]), 0)
