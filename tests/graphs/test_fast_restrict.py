"""Equivalence of the serving fast path with the string-rebuild slow path.

``BipartiteMatrices.restrict(ordinals)`` must produce matrices numerically
identical to ``build_matrices(multibipartite.restrict_queries(...))`` over
the same query set — this is what lets the online pipeline skip the string
rebuilding entirely.
"""

import numpy as np
import pytest

from repro.graphs.compact import CompactConfig, RandomWalkExpander
from repro.graphs.matrices import build_matrices
from repro.graphs.multibipartite import BIPARTITE_KINDS, build_multibipartite
from repro.logs.sessionizer import sessionize
from repro.synth.generator import GeneratorConfig, generate_log
from repro.synth.world import make_world

MATRIX_NAMES = ("incidence", "affinity", "transition")


@pytest.fixture(scope="module")
def graph():
    world = make_world(seed=0)
    synthetic = generate_log(
        world,
        GeneratorConfig(n_users=25, mean_sessions_per_user=8, seed=11),
    )
    mb = build_multibipartite(synthetic.log, sessionize(synthetic.log))
    expander = RandomWalkExpander(mb)
    return mb, expander


def _restricted_pair(graph, seed_ordinals, size=40):
    mb, expander = graph
    full = expander.matrices
    seeds = {full.queries[i]: 1.0 for i in seed_ordinals}
    chosen = expander.expand(seeds, CompactConfig(size=size))
    ordinals = sorted(full.query_index[q] for q in chosen)
    fast = full.restrict(ordinals)
    slow = build_matrices(
        mb.restrict_queries([full.queries[i] for i in ordinals])
    )
    return fast, slow


class TestFastRestrictEquivalence:
    def test_matrices_identical_over_random_seed_sets(self, graph):
        full = graph[1].matrices
        rng = np.random.default_rng(3)
        for _ in range(5):
            picks = rng.choice(full.n_queries, size=3, replace=False)
            fast, slow = _restricted_pair(graph, [int(i) for i in picks])
            assert fast.queries == slow.queries
            assert fast.query_index == slow.query_index
            for kind in BIPARTITE_KINDS:
                for name in MATRIX_NAMES:
                    a = getattr(fast, name)[kind]
                    b = getattr(slow, name)[kind]
                    assert a.shape == b.shape, (name, kind)
                    for part in ("indptr", "indices", "data"):
                        assert np.array_equal(
                            getattr(a, part), getattr(b, part)
                        ), (name, kind, part)

    def test_restrict_validates_ordinals(self, graph):
        full = graph[1].matrices
        with pytest.raises(ValueError):
            full.restrict([])
        with pytest.raises(ValueError):
            full.restrict([-1])
        with pytest.raises(ValueError):
            full.restrict([full.n_queries])

    def test_restricted_transitions_substochastic(self, graph):
        fast, _ = _restricted_pair(graph, [0, 5])
        for kind in BIPARTITE_KINDS:
            sums = np.asarray(fast.transition[kind].sum(axis=1)).ravel()
            assert (sums <= 1.0 + 1e-9).all()
