"""Tests for repro.graphs.matrices."""

import numpy as np
import pytest
from scipy import sparse

from repro.graphs.matrices import _gram_of, build_matrices, row_normalize
from repro.graphs.multibipartite import BIPARTITE_KINDS, build_multibipartite
from repro.logs.sessionizer import sessionize


@pytest.fixture
def matrices(table1_log):
    sessions = sessionize(table1_log)
    mb = build_multibipartite(table1_log, sessions, weighted=True)
    return build_matrices(mb)


class TestGram:
    def test_bit_identical_to_scipy_product(self):
        """The direct-kernel gram equals ``(W @ W.T)`` sorted, array for
        array — including rows with no facet and exact cancellations."""
        rng = np.random.default_rng(0)
        cases = [
            sparse.random(40, 30, density=0.1, random_state=rng, format="csr")
            for _ in range(20)
        ]
        cases += [
            sparse.csr_matrix((5, 0)),
            sparse.csr_matrix(np.array([[1.0, -1.0], [1.0, 1.0]])),
        ]
        for incidence in cases:
            expected = (incidence @ incidence.T).tocsr()
            expected.sort_indices()
            gram = _gram_of(incidence)
            assert gram.shape == expected.shape
            for part in ("indptr", "indices", "data"):
                assert np.array_equal(
                    getattr(gram, part), getattr(expected, part)
                ), part


class TestRowNormalize:
    def test_rows_sum_to_one(self):
        m = sparse.csr_matrix(np.array([[1.0, 3.0], [2.0, 2.0]]))
        normalized = row_normalize(m)
        assert np.allclose(np.asarray(normalized.sum(axis=1)).ravel(), 1.0)

    def test_zero_rows_stay_zero(self):
        m = sparse.csr_matrix(np.array([[0.0, 0.0], [1.0, 1.0]]))
        normalized = row_normalize(m)
        assert normalized[0].nnz == 0


class TestBuildMatrices:
    def test_query_ordering_shared(self, matrices):
        n = matrices.n_queries
        for kind in BIPARTITE_KINDS:
            assert matrices.incidence[kind].shape[0] == n
            assert matrices.affinity[kind].shape == (n, n)
            assert matrices.transition[kind].shape == (n, n)

    def test_affinity_symmetric(self, matrices):
        for kind in BIPARTITE_KINDS:
            L = matrices.affinity[kind]
            assert abs(L - L.T).max() < 1e-12

    def test_affinity_spectral_radius_at_most_one(self, matrices):
        for kind in BIPARTITE_KINDS:
            L = matrices.affinity[kind].toarray()
            eigenvalues = np.linalg.eigvalsh(L)
            assert eigenvalues.max() <= 1.0 + 1e-9
            assert eigenvalues.min() >= -1.0 - 1e-9

    def test_transitions_substochastic(self, matrices):
        for kind in BIPARTITE_KINDS:
            sums = np.asarray(matrices.transition[kind].sum(axis=1)).ravel()
            assert (sums <= 1.0 + 1e-9).all()
            # Rows of queries that have facets in this bipartite sum to 1.
            connected = np.asarray(
                matrices.incidence[kind].sum(axis=1)
            ).ravel() > 0
            assert np.allclose(sums[connected], 1.0)

    def test_noclick_query_has_zero_url_row(self, matrices):
        row = matrices.query_index["jvm download"]
        assert matrices.transition["U"][row].nnz == 0
        assert matrices.affinity["U"][row].nnz == 0

    def test_session_bipartite_connects_session_mates(self, matrices):
        sun = matrices.query_index["sun"]
        solar = matrices.query_index["solar cell"]
        assert matrices.transition["S"][sun, solar] > 0

    def test_mean_transition_mixture(self, matrices):
        mean = matrices.mean_transition()
        stacked = sum(matrices.transition[k] for k in BIPARTITE_KINDS) / 3
        assert abs(mean - stacked).max() < 1e-12

    def test_query_index_consistent(self, matrices):
        for query, ordinal in matrices.query_index.items():
            assert matrices.queries[ordinal] == query
