"""Random surfaces of every class, checked against the oracle.

Inputs are unions of one to three parts built with the benchmark's own
constructions (``perfbench/workloads.py``, imported read-only): chains of
tori and Klein bottles, and annuli, pants, Moebius strips and Klein bottles
minus a disk with contact arcs on their circles.  Each construction knows its
topology, so the expected class sizes come from the dimension formulas
without asking the code under test.  ``punch`` adds the one shape those
constructions lack: chains with genus that carry boundary circles.

The oracle's closed forms (rank d0, rank d1 and torsion as counts) and the
generators' independence over GF(2) and GF(3) are held to ``sparse_rank``
on the oracle's own rows of every surface drawn.
"""

import random
from collections import Counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import meshes
from globalloops import oracle
from globalloops.generators import GeneratorSet, compute_generators
from globalloops.meshio import report_text
from globalloops.oracle import verify
from globalloops.surface import (
    boundary_components,
    build_complex,
    classify_boundary,
    euler_characteristic,
)
from reference import closed_d2, face_rows, sparse_rank

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


def punchable(s):
    """Vertices whose closed star (the vertex and its link) touches no
    boundary circle, in ascending order."""
    on_circles = {v for cyc in s.circles for v in cyc}
    touched = set(on_circles)
    for f in s.faces:
        if on_circles.intersection(f):
            touched.update(f)
    return [v for v in range(s.num_vertices) if v not in touched]


def punch(s, v):
    """``s`` with the star of the interior vertex ``v`` removed and every
    vertex id above ``v`` moved down by one.  The link of ``v`` becomes a
    new boundary circle, listed in traversal order, and the one component
    gains a hole."""
    if len(s.components) != 1 or v not in punchable(s):
        raise ValueError(f"vertex {v} cannot be punched")
    link: dict[int, list[int]] = {}
    for f in s.faces:
        if v in f:
            a, b = (w for w in f if w != v)
            link.setdefault(a, []).append(b)
            link.setdefault(b, []).append(a)
    circle = [min(link)]
    prev, here = None, circle[0]
    while True:
        here, prev = next(w for w in link[here] if w != prev), here
        if here == circle[0]:
            break
        circle.append(here)
    if len(circle) != len(link) or any(len(ws) != 2 for ws in link.values()):
        raise ValueError(f"the link of vertex {v} is not one circle")

    def new(w):
        return w - (w > v)

    comp = s.components[0]
    return wl.Surface(
        s.num_vertices - 1,
        [(new(a), new(b), new(c)) for a, b, c in s.faces if v not in (a, b, c)],
        s.coords[:v] + s.coords[v + 1:],
        [wl.Component(comp.orientable, comp.genus, comp.holes + 1, comp.contacts)],
        [[new(w) for w in cyc] for cyc in s.circles] + [[new(w) for w in circle]],
        [[(new(a), new(b)) for a, b in arc] for arc in s.arcs],
    )


def complex_of(surface):
    """The complex of a workload surface and its contact edge ids."""
    K = build_complex(surface.num_vertices, surface.faces)
    return K, {K.edge_index[min(u, w), max(u, w)] for arc in surface.arcs for u, w in arc}


def run(surface):
    """Generators, verification and report text of a workload surface."""
    K, contact = complex_of(surface)
    gens = compute_generators(K, contact)
    report = verify(K, classify_boundary(K, contact), gens)
    return gens, report, report_text(K, gens, report)


def total_support(gens):
    return sum(len(g.cochain.coeffs) for g in gens.generators)


def check(surface, seed):
    """Oracle verdict, class sizes and report repeats on two scrambles of
    ``surface``; returns the generator set of each."""
    expected = wl.Input("random", surface, verify=True).expected
    counts, sets = [], []
    for rng in (random.Random(seed), random.Random(seed + 1)):
        scrambled = wl.scramble(surface, rng)
        gens, report, text = run(scrambled)
        assert report.passed, report.failures
        # No zero left by the cancelling sums of ``_to_anchor``, and every
        # id an edge of the mesh.
        assert all(
            val and 0 <= eid < surface.num_edges
            for g in gens.generators
            for eid, val in g.cochain.coeffs.items()
        )
        kinds = Counter(g.kind for g in gens.generators)
        counts.append((kinds["ha"], kinds["ho"], kinds["co"], len(gens.components)))
        assert counts[-1] == (
            expected["ha"], expected["ho"], expected["co"], expected["components"]
        )
        assert run(scrambled)[2] == text
        sets.append(gens)
    assert counts[0] == counts[1]
    return sets


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(parts(), min_size=1, max_size=3), st.integers(0, 2**32 - 1))
def test_random_union_passes_the_oracle(pieces, seed):
    check(wl.union(pieces), seed)


# Many contact components or twisted candidates in one component: links to a
# common target would each be as long as the dual tree is deep, links between
# preorder neighbours keep the total support below 2E (``test_support_size``).


def test_many_arcs_on_one_circle():
    surface = wl.with_arcs(wl.annulus(256, 2), 0, 64, random.Random(0))
    for gens in check(surface, 0):
        assert total_support(gens) <= 2 * surface.num_edges


def test_long_klein_chain():
    surface = wl.connect_sum([wl.klein(4, 4) for _ in range(32)])
    for gens in check(surface, 0):
        assert total_support(gens) <= 2 * surface.num_edges


@st.composite
def punched_chains(draw):
    """A chain of one to three tori and Klein bottles with one or two
    punched holes, and arcs placed on the new circles."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    tori = draw(st.lists(st.booleans(), min_size=1, max_size=3))
    # At 5 x 5 every single piece leaves room for a second star.
    s = wl.connect_sum([wl.torus(5, 5) if t else wl.klein(5, 5) for t in tori])
    for _ in range(draw(st.integers(1, 2))):
        s = punch(s, draw(st.sampled_from(punchable(s))))
    for circle, cyc in enumerate(s.circles):
        count = draw(st.integers(0, len(cyc) // 4))
        if count:
            s = wl.with_arcs(s, circle, count, rng)
    return s


def test_punch_leaves_the_link_as_a_boundary_circle():
    closed = wl.connect_sum([wl.torus(4, 4), wl.klein(4, 4)])
    s = punch(closed, punchable(closed)[-1])
    s = punch(s, punchable(s)[0])
    K = build_complex(s.num_vertices, s.faces)
    assert euler_characteristic(K) == euler_characteristic(
        build_complex(closed.num_vertices, closed.faces)
    ) - 2
    assert len(boundary_components(K)) == len(s.circles) == 2
    walked = {
        (min(a, b), max(a, b)) for cyc in s.circles for a, b in zip(cyc, cyc[1:] + cyc[:1])
    }
    assert walked == {K.edges[eid] for eid in K.boundary_edge_ids}
    assert s.components[0].holes == 2


def test_a_twisted_chain_with_a_contact_arc_passes_the_oracle():
    # Every twisted loop of the witness cycles, not only the anchor's,
    # cancels the contact runs; one that does not pairs with a contact
    # generator and the peel fails.
    closed = wl.connect_sum([wl.klein(4, 4), wl.klein(4, 4)])
    s = punch(closed, punchable(closed)[0])
    K = build_complex(s.num_vertices, s.faces)
    contact = meshes.boundary_arc(K, 0, 2)
    gens = compute_generators(K, contact)
    (meta,) = gens.components
    assert len(meta.twisted_edges) == 3 and meta.contact_components
    report = verify(K, classify_boundary(K, contact), gens)
    assert report.passed, report.failures


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(punched_chains(), min_size=1, max_size=2), st.integers(0, 2**32 - 1))
def test_punched_chains_pass_the_oracle(pieces, seed):
    check(wl.union(pieces), seed)


def oracle_rows(K, contact):
    """The oracle's incidence of ``K``, its insulated edge ids, relative d0
    rows and rank d0, given the contact edge ids.  The d0 rows are built
    here: one per vertex off the insulated subcomplex, over edge ids, with
    no column for an insulated edge (both of its ends are insulated)."""
    inc = oracle._Incidence(K)
    insulated, insulated_vertices, rank_d0 = oracle._relative(inc, contact)
    d0 = {v: {} for v in range(K.num_vertices) if v not in insulated_vertices}
    for eid, (a, b) in enumerate(inc.edges):
        if b in d0:
            d0[b][eid] = 1
        if a in d0:
            d0[a][eid] = -1
    return inc, insulated, list(d0.values()), rank_d0


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.one_of(parts(), punched_chains()), min_size=1, max_size=3))
def test_closed_forms_match_the_eliminations(pieces):
    K, contact = complex_of(wl.union(pieces))
    inc, insulated, d0, rank_d0 = oracle_rows(K, contact)
    # rank d0 = V_rel - b0.
    assert rank_d0 == sparse_rank(d0)
    # verify's Betti number is E_rel - rank d0 - (F - b2).
    d1 = face_rows(K, insulated)
    bp = classify_boundary(K, contact)
    report = verify(K, bp, GeneratorSet())
    assert report.betti1_relative == len(inc.edges) - len(insulated) - sparse_rank(d1) - rank_d0
    # One 2 per non-orientable component: the rank closed-up d2 loses mod 2.
    d2 = closed_d2(K)
    assert report.torsion_coefficients == [2] * (sparse_rank(d2) - sparse_rank(d2, 2))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.one_of(parts(), punched_chains()), min_size=1, max_size=3))
def test_generators_are_independent_over_two_and_three(pieces):
    # d0 is totally unimodular, so its rank is the same over every field.
    K, contact = complex_of(wl.union(pieces))
    gens = compute_generators(K, contact)
    inc, _, d0, rank_d0 = oracle_rows(K, contact)
    rows = [g.cochain.coeffs for g in gens.generators]
    for q in (2, 3):
        assert sparse_rank(rows + d0, q) == len(rows) + rank_d0, q
