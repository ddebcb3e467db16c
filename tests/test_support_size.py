"""Total support of the generator set stays linear in the edge count.

Contact generators chain a component's contact components, and twisted
handle generators its twisted candidates, in dual-forest preorder, so each
link spans at most the Euler-tour distance between its ends.  The two
families put many links in one component: a ring with 96 contact arcs on
each circle, and long connected sums of Klein bottles.  Links to one common
target would each be as long as the dual tree is deep there.  The witness
cycles that ``oracle.verify`` pairs them with are held to the same bounds.
Only support entries are counted; nothing is timed.
"""

import random

import pytest

import meshes
from globalloops.generators import compute_generators
from globalloops.surface import build_complex

wl = meshes.workloads()


def ring(rim):
    rng = random.Random(0)
    surface = wl.with_arcs(wl.annulus(rim, 2), 0, 96, rng)
    return wl.with_arcs(surface, 1, 96, rng)


def klein_chain(length):
    return wl.connect_sum([wl.klein(6, 6) for _ in range(length)])


def support_per_edge(surface):
    """Total support of the generators of ``surface``, and of their witness
    cycles, over its edge count."""
    K = build_complex(surface.num_vertices, surface.faces)
    contact = {K.edge_index[min(u, w), max(u, w)] for arc in surface.arcs for u, w in arc}
    gens = compute_generators(K, contact)
    support = sum(len(g.cochain.coeffs) for g in gens.generators)
    return support / K.num_edges, sum(map(len, gens.cycles(K))) / K.num_edges


@pytest.mark.parametrize(
    "family, sizes", [(ring, (384, 1536)), (klein_chain, (64, 128))], ids=["ring", "klein"]
)
def test_total_support_is_linear_in_edges(family, sizes):
    small, large = (support_per_edge(family(n)) for n in sizes)
    for small_ratio, large_ratio in zip(small, large):
        assert small_ratio <= 2 and large_ratio <= 2
        # Quadratic growth doubles the ratio when E doubles; allow 5% drift.
        assert large_ratio <= 1.05 * small_ratio
