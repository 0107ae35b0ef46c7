"""Query-log representations (paper Sec. III and IV-A).

* :mod:`bipartite <repro.graphs.bipartite>` — a generic weighted bipartite
  between queries and facets (URLs, sessions or terms);
* :mod:`weighting <repro.graphs.weighting>` — the inverse-query-frequency
  (``iqf``) edge weighting of Eqs. 1-6;
* :mod:`click_graph <repro.graphs.click_graph>` — the classic query-URL
  click graph that all baselines run on;
* :mod:`multibipartite <repro.graphs.multibipartite>` — the paper's
  three-bipartite representation (query-URL, query-session, query-term);
* :mod:`compact <repro.graphs.compact>` — compact neighbourhood extraction
  by Markov random walk (Sec. IV-A);
* :mod:`matrices <repro.graphs.matrices>` — the normalized matrices
  ``W^X``, ``D^X`` and ``L^X`` that the diversification component consumes.

Serving and streaming share one graph plane over every query: Sec. IV-A
compaction bounds each request to a neighbourhood of at most ``Q`` queries
however large the global graph is, so the query side is never partitioned.
"""

from repro.graphs.bipartite import Bipartite
from repro.graphs.click_graph import ClickGraph, build_click_graph
from repro.graphs.compact import CompactConfig, compact_subgraph
from repro.graphs.matrices import BipartiteMatrices, build_matrices
from repro.graphs.multibipartite import (
    BIPARTITE_KINDS,
    MultiBipartite,
    build_multibipartite,
)
from repro.graphs.weighting import apply_cfiqf, iqf

__all__ = [
    "BIPARTITE_KINDS",
    "Bipartite",
    "BipartiteMatrices",
    "ClickGraph",
    "CompactConfig",
    "MultiBipartite",
    "apply_cfiqf",
    "build_click_graph",
    "build_matrices",
    "build_multibipartite",
    "compact_subgraph",
    "iqf",
]
