"""Zero-copy shared-memory publication of the full-graph serving plane.

One :class:`SharedMatrixStore` owns a single ``multiprocessing``
shared-memory segment holding every array a suggest worker needs to serve
against one representation generation:

* the CSR parts (``indptr``/``indices``/``data``) of each bipartite's
  incidence ``W^X`` — everything
  :meth:`~repro.graphs.matrices.BipartiteMatrices.restrict` touches on the
  per-request fast path (it derives the compact gram from the restricted
  rows, so no full-graph gram is published);
* the expander's factored walk stacks (forward/backward), published
  verbatim so workers skip the per-process re-normalization;
* the query vocabulary (one UTF-8 blob plus an offsets array) that
  reconstructs the row ordering and the query -> ordinal index;
* optionally the query-term adjacency in both directions plus the term
  vocabulary, which powers the unseen-query term backoff without shipping
  the Python-dict :class:`~repro.graphs.bipartite.Bipartite`.

The segment holds only what workers read.  Head-query answers never
enter it: the pool's parent memoizes them per generation from worker
replies (see :mod:`repro.serve.pool`).

Workers call :func:`attach` and get an :class:`AttachedPlane`: read-only
numpy views over the segment, wrapped into ``csr_matrix`` objects via the
validation-free :func:`~repro.graphs.matrices.csr_from_parts` assembly —
no pickling, no per-worker duplication; ``np.shares_memory`` against the
segment buffer holds for every matrix payload (the per-worker cost is the
decoded vocabulary and the dict index, both O(n_queries) strings).

Metadata travels separately as a small picklable :class:`SharedPlaneMeta`
(segment name + array manifest), so publishing N generations to M workers
moves matrix bytes exactly once per generation.

Lifecycle: the publisher (the pool's parent process) keeps the
:class:`SharedMatrixStore` and is the only party that ever calls
:meth:`~SharedMatrixStore.unlink`; attachers :meth:`~AttachedPlane.close`
their mapping.  Attachers outside the publisher's ``multiprocessing``
tree pass ``untrack=True`` so their own ``resource_tracker`` does not
unlink the still-published segment when they exit (see
:class:`AttachedPlane`).
"""

from __future__ import annotations

import gc
import os
import secrets
from collections.abc import Mapping
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory

import numpy as np
from scipy import sparse

from repro.graphs.compact import RandomWalkExpander
from repro.graphs.matrices import BipartiteMatrices, csr_from_parts
from repro.graphs.multibipartite import BIPARTITE_KINDS
from repro.utils.text import normalize_query

__all__ = [
    "AttachedPlane",
    "SharedMatrixStore",
    "SharedPlaneMeta",
    "SharedRepresentation",
    "SharedTermBipartite",
    "attach",
]

#: Offset alignment of every array in the segment (covers float64/int64).
_ALIGNMENT = 64


@dataclass(frozen=True)
class _ArraySpec:
    """Location of one array inside the segment."""

    offset: int
    dtype: str
    shape: tuple[int, ...]

    @property
    def nbytes(self) -> int:
        count = 1
        for dim in self.shape:
            count *= dim
        return count * np.dtype(self.dtype).itemsize


@dataclass(frozen=True)
class SharedPlaneMeta:
    """Picklable manifest of one published generation.

    This is the only thing that crosses the process boundary per
    generation: workers attach the named segment and rebuild views from
    the array specs.  ``csr_shapes``/``csr_sorted`` describe the logical
    CSR matrices assembled from ``<name>.indptr/.indices/.data`` triples.
    """

    segment: str
    arrays: dict[str, _ArraySpec]
    csr_shapes: dict[str, tuple[int, int]]
    csr_sorted: dict[str, bool]
    n_queries: int
    n_terms: int
    epoch_id: int
    total_bytes: int

    @property
    def has_term_index(self) -> bool:
        """Whether the term-backoff adjacency was published."""
        return "terms.blob" in self.arrays


def _encode_vocab(strings: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """(uint8 blob, int64 offsets) encoding of a string list."""
    encoded = [s.encode("utf-8") for s in strings]
    offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
    np.cumsum([len(b) for b in encoded], out=offsets[1:])
    blob = np.frombuffer(b"".join(encoded), dtype=np.uint8).copy()
    return blob, offsets


def _decode_vocab(blob: np.ndarray, offsets: np.ndarray) -> list[str]:
    raw = blob.tobytes()
    bounds = offsets.tolist()
    return [
        raw[bounds[i]:bounds[i + 1]].decode("utf-8")
        for i in range(len(bounds) - 1)
    ]


def _term_adjacency(
    bipartite, queries: list[str], query_index: Mapping[str, int]
) -> tuple[list[str], dict[str, np.ndarray], tuple[int, int]]:
    """CSR encodings of the query-term bipartite in both directions.

    Built from the authoritative :class:`Bipartite` adjacency dicts (not
    from the incidence matrix, whose column order is an internal detail),
    so the attached adapter reproduces ``queries_of``/``facet_set``
    verbatim.
    """
    terms = bipartite.facets
    term_index = {term: i for i, term in enumerate(terms)}
    # query -> term ordinals/weights, rows in query-ordinal order.
    qt_indptr = np.zeros(len(queries) + 1, dtype=np.int64)
    qt_indices: list[int] = []
    qt_data: list[float] = []
    for row, query in enumerate(queries):
        facets = bipartite.facets_of(query)
        for term in sorted(facets):
            qt_indices.append(term_index[term])
            qt_data.append(facets[term])
        qt_indptr[row + 1] = len(qt_indices)
    # term -> query ordinals/weights, rows in sorted-term order.
    tq_indptr = np.zeros(len(terms) + 1, dtype=np.int64)
    tq_indices: list[int] = []
    tq_data: list[float] = []
    for row, term in enumerate(terms):
        for query, weight in sorted(bipartite.queries_of(term).items()):
            ordinal = query_index.get(query)
            if ordinal is not None:
                tq_indices.append(ordinal)
                tq_data.append(weight)
        tq_indptr[row + 1] = len(tq_indices)
    arrays = {
        "termidx.qt.indptr": qt_indptr,
        "termidx.qt.indices": np.asarray(qt_indices, dtype=np.int64),
        "termidx.qt.data": np.asarray(qt_data, dtype=np.float64),
        "termidx.tq.indptr": tq_indptr,
        "termidx.tq.indices": np.asarray(tq_indices, dtype=np.int64),
        "termidx.tq.data": np.asarray(tq_data, dtype=np.float64),
    }
    return terms, arrays, (len(queries), len(terms))


def _pack_segment(
    plan: list[tuple[str, np.ndarray]], prefix: str, epoch_id: int
) -> tuple[shared_memory.SharedMemory, dict[str, _ArraySpec], int]:
    """Lay *plan*'s arrays into a fresh named segment, 64-byte aligned.

    Returns ``(segment, specs, total_bytes)``.  The segment name embeds
    the pid, a random token and *epoch_id*, so concurrent publishers (and
    generations) never collide.
    """
    specs: dict[str, _ArraySpec] = {}
    cursor = 0
    for name, array in plan:
        cursor = -(-cursor // _ALIGNMENT) * _ALIGNMENT
        specs[name] = _ArraySpec(
            offset=cursor,
            dtype=str(array.dtype),
            shape=tuple(int(d) for d in array.shape),
        )
        cursor += array.nbytes
    total = max(cursor, 1)
    name = f"{prefix}-{os.getpid()}-{secrets.token_hex(4)}-e{epoch_id}"
    segment = shared_memory.SharedMemory(name=name, create=True, size=total)
    for plan_name, array in plan:
        spec = specs[plan_name]
        view = np.ndarray(
            spec.shape,
            dtype=spec.dtype,
            buffer=segment.buf,
            offset=spec.offset,
        )
        view[...] = array
    return segment, specs, total


def _unregister_from_tracker(segment: shared_memory.SharedMemory) -> None:
    """Drop an attach-time ``resource_tracker`` registration.

    ``SharedMemory.__init__`` registers the name unconditionally — for
    attachers too.  An attacher running its *own* tracker (a process
    launched outside the publisher's ``multiprocessing`` tree, e.g. via
    plain ``subprocess``) would have that tracker unlink the still
    published segment when it exits; stripping the registration right
    after attach leaves lifecycle control with the publisher.  Processes
    that *share* the publisher's tracker — the same process, and every
    ``multiprocessing`` child, spawn or fork alike (POSIX children inherit
    the tracker fd) — must NOT do this: the tracker's registry is a set,
    so their unregister would strip the publisher's own registration and
    make the eventual ``unlink`` double-unregister.
    """
    try:  # pragma: no cover - trivial, but guarded across CPython versions
        resource_tracker.unregister(segment._name, "shared_memory")
    except Exception:
        pass


class SharedMatrixStore:
    """Publisher-side owner of one generation's shared segment.

    Build one with :meth:`publish`; hand :attr:`meta` to workers; call
    :meth:`unlink` exactly once when every attacher has acked moving off
    this generation (the pool's generation handshake enforces that), then
    :meth:`close`.
    """

    def __init__(
        self, segment: shared_memory.SharedMemory, meta: SharedPlaneMeta
    ) -> None:
        self._segment = segment
        self._meta = meta
        self._unlinked = False
        self._closed = False

    @classmethod
    def publish(
        cls,
        matrices: BipartiteMatrices,
        expander: RandomWalkExpander | None = None,
        multibipartite=None,
        epoch_id: int = 0,
        prefix: str = "pqsda",
    ) -> "SharedMatrixStore":
        """Copy one generation's serving plane into a fresh segment.

        *expander* supplies the factored walk stacks (built from
        *matrices* when omitted); *multibipartite* supplies the query-term
        adjacency for the unseen-query backoff (omitted = attached planes
        serve with the backoff unavailable).  The segment name embeds the
        pid, a random token and *epoch_id*, so concurrent publishers (and
        generations) never collide.
        """
        if expander is None:
            expander = RandomWalkExpander(multibipartite, matrices=matrices)
        plan: list[tuple[str, np.ndarray]] = []
        csr_shapes: dict[str, tuple[int, int]] = {}
        csr_sorted: dict[str, bool] = {}

        def add_csr(name: str, matrix: sparse.csr_matrix) -> None:
            csr_shapes[name] = (int(matrix.shape[0]), int(matrix.shape[1]))
            csr_sorted[name] = bool(matrix.has_sorted_indices)
            plan.append((f"{name}.indptr", np.ascontiguousarray(matrix.indptr)))
            plan.append(
                (f"{name}.indices", np.ascontiguousarray(matrix.indices))
            )
            plan.append((f"{name}.data", np.ascontiguousarray(matrix.data)))

        for kind in BIPARTITE_KINDS:
            add_csr(f"incidence.{kind}", matrices.incidence[kind])
        forward, backward = expander.walk_stacks
        add_csr("stack.forward", forward.tocsr())
        add_csr("stack.backward", backward.tocsr())

        blob, offsets = _encode_vocab(matrices.queries)
        plan.append(("vocab.queries.blob", blob))
        plan.append(("vocab.queries.offsets", offsets))

        n_terms = 0
        if multibipartite is not None:
            terms, term_arrays, (_, n_terms) = _term_adjacency(
                multibipartite.bipartite("T"),
                matrices.queries,
                matrices.query_index,
            )
            term_blob, term_offsets = _encode_vocab(terms)
            plan.append(("terms.blob", term_blob))
            plan.append(("terms.offsets", term_offsets))
            plan.extend(term_arrays.items())

        segment, specs, total = _pack_segment(plan, prefix, epoch_id)
        meta = SharedPlaneMeta(
            segment=segment.name,
            arrays=specs,
            csr_shapes=csr_shapes,
            csr_sorted=csr_sorted,
            n_queries=matrices.n_queries,
            n_terms=n_terms,
            epoch_id=epoch_id,
            total_bytes=total,
        )
        return cls(segment, meta)

    @property
    def meta(self) -> SharedPlaneMeta:
        """The picklable manifest workers attach from."""
        return self._meta

    @property
    def segment_name(self) -> str:
        """The shared-memory segment name (a ``/dev/shm`` entry on Linux)."""
        return self._meta.segment

    @property
    def total_bytes(self) -> int:
        """Bytes held by the segment (counted once however many attach)."""
        return self._meta.total_bytes

    def unlink(self) -> None:
        """Remove the segment from the system (idempotent)."""
        if not self._unlinked:
            self._unlinked = True
            self._segment.unlink()

    def close(self) -> None:
        """Drop this process's mapping (idempotent; unlink is separate)."""
        if not self._closed:
            self._closed = True
            self._segment.close()


class SharedTermBipartite:
    """Read-only term-side adapter over the shared query-term adjacency.

    Quacks like the slice of :class:`~repro.graphs.bipartite.Bipartite`
    the serving path touches — ``queries_of`` and ``facet_set`` — and
    reproduces the originals verbatim (same keys, same weights), so the
    term-backoff seeding is bit-identical across process boundaries.
    """

    def __init__(
        self,
        terms: list[str],
        queries: list[str],
        qt: tuple[np.ndarray, np.ndarray, np.ndarray],
        tq: tuple[np.ndarray, np.ndarray, np.ndarray],
    ) -> None:
        self._terms = terms
        self._term_index = {term: i for i, term in enumerate(terms)}
        self._queries = queries
        self._query_index = {query: i for i, query in enumerate(queries)}
        self._qt_indptr, self._qt_indices, self._qt_data = qt
        self._tq_indptr, self._tq_indices, self._tq_data = tq
        self._facet_sets: dict[str, frozenset[str]] = {}

    @property
    def facets(self) -> list[str]:
        """Term-side nodes, sorted (publish order)."""
        return list(self._terms)

    def queries_of(self, facet: str) -> dict[str, float]:
        """Query -> weight for one term (empty if the term is unknown)."""
        row = self._term_index.get(facet)
        if row is None:
            return {}
        lo, hi = int(self._tq_indptr[row]), int(self._tq_indptr[row + 1])
        return {
            self._queries[int(ordinal)]: float(weight)
            for ordinal, weight in zip(
                self._tq_indices[lo:hi], self._tq_data[lo:hi]
            )
        }

    def facet_set(self, query: str) -> frozenset[str]:
        """The terms of *query* as a memoized frozenset."""
        cached = self._facet_sets.get(query)
        if cached is None:
            row = self._query_index.get(query)
            if row is None:
                cached = frozenset()
            else:
                lo = int(self._qt_indptr[row])
                hi = int(self._qt_indptr[row + 1])
                cached = frozenset(
                    self._terms[int(t)] for t in self._qt_indices[lo:hi]
                )
            self._facet_sets[query] = cached
        return cached


@dataclass(frozen=True)
class SharedRepresentation:
    """The representation handle a worker's ``PQSDA`` serves against.

    Covers exactly what the online path asks of a
    :class:`~repro.graphs.multibipartite.MultiBipartite`: membership
    tests and the query-term bipartite for the unseen-query backoff.
    Offline operations (rebuilds, restrictions) stay with the publisher.
    """

    queries: list[str]
    query_index: dict[str, int]
    term_bipartite: SharedTermBipartite | None = None
    _query_set: frozenset[str] = field(default=frozenset(), repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_query_set", frozenset(self.queries))

    @property
    def n_queries(self) -> int:
        """Number of query nodes."""
        return len(self.queries)

    def __contains__(self, query: str) -> bool:
        return normalize_query(query) in self._query_set

    def bipartite(self, kind: str):
        """The shared query-term adapter (only ``"T"`` crosses processes)."""
        if kind != "T":
            raise KeyError(
                f"shared representations expose only the 'T' bipartite, "
                f"got {kind!r}"
            )
        if self.term_bipartite is None:
            raise KeyError(
                "term index was not published (publish with multibipartite "
                "to enable the unseen-query backoff)"
            )
        return self.term_bipartite


class AttachedPlane:
    """Worker-side read-only view of one published generation.

    Pass ``untrack=True`` only when attaching from a process with its own
    ``resource_tracker`` (launched outside the publisher's
    ``multiprocessing`` tree), so that tracker does not unlink the
    published segment at exit; every in-tree attacher — pool workers
    included — shares the publisher's tracker and must leave it off (see
    :func:`_unregister_from_tracker`).

    Attributes:
        matrices: :class:`BipartiteMatrices` whose incidence CSR parts
            are views into the shared segment (affinity and transition are
            lazy derivations over it that the hot path never touches).
        expander: Walk expander over ``matrices`` with the published
            stacks attached (views as well).
        representation: The :class:`SharedRepresentation` handle.
    """

    def __init__(self, meta: SharedPlaneMeta, untrack: bool = False) -> None:
        self._meta = meta
        self._segment = shared_memory.SharedMemory(name=meta.segment)
        if untrack:
            _unregister_from_tracker(self._segment)
        self._closed = False

        def view(name: str) -> np.ndarray:
            spec = meta.arrays[name]
            array = np.ndarray(
                spec.shape,
                dtype=spec.dtype,
                buffer=self._segment.buf,
                offset=spec.offset,
            )
            array.flags.writeable = False
            return array

        def csr(name: str) -> sparse.csr_matrix:
            return csr_from_parts(
                view(f"{name}.data"),
                view(f"{name}.indices"),
                view(f"{name}.indptr"),
                meta.csr_shapes[name],
                sorted_indices=meta.csr_sorted[name],
            )

        queries = _decode_vocab(
            view("vocab.queries.blob"), view("vocab.queries.offsets")
        )
        query_index = {query: i for i, query in enumerate(queries)}
        incidence = {kind: csr(f"incidence.{kind}") for kind in BIPARTITE_KINDS}
        self.matrices = BipartiteMatrices.from_incidence(
            queries, query_index, incidence
        )
        term_bipartite = None
        if meta.has_term_index:
            term_bipartite = SharedTermBipartite(
                _decode_vocab(view("terms.blob"), view("terms.offsets")),
                queries,
                (
                    view("termidx.qt.indptr"),
                    view("termidx.qt.indices"),
                    view("termidx.qt.data"),
                ),
                (
                    view("termidx.tq.indptr"),
                    view("termidx.tq.indices"),
                    view("termidx.tq.data"),
                ),
            )
        self.representation = SharedRepresentation(
            queries=queries,
            query_index=query_index,
            term_bipartite=term_bipartite,
        )
        self.expander = RandomWalkExpander(
            self.representation,
            matrices=self.matrices,
            stacks=(csr("stack.forward"), csr("stack.backward")),
        )

    @property
    def meta(self) -> SharedPlaneMeta:
        """The manifest this plane attached from."""
        return self._meta

    @property
    def epoch_id(self) -> int:
        """The generation's epoch ordinal."""
        return self._meta.epoch_id

    def shares_memory(self) -> bool:
        """True when every matrix payload is a view into the segment."""
        base = np.ndarray(
            (self._meta.total_bytes,),
            dtype=np.uint8,
            buffer=self._segment.buf,
        )
        payloads = [
            self.matrices.incidence[kind].data for kind in BIPARTITE_KINDS
        ] + [stack.data for stack in self.expander.walk_stacks]
        return all(np.shares_memory(base, payload) for payload in payloads)

    def close(self) -> None:
        """Release the mapping (views must no longer be reachable).

        Drops this plane's references, collects, then closes; if foreign
        references still pin the buffer the close is deferred to process
        exit rather than raising mid-swap.
        """
        if self._closed:
            return
        self._closed = True
        self.matrices = None
        self.expander = None
        self.representation = None
        gc.collect()
        try:
            self._segment.close()
        except BufferError:  # views still referenced elsewhere
            pass


def attach(meta: SharedPlaneMeta, untrack: bool = False) -> AttachedPlane:
    """Attach a published generation (convenience over AttachedPlane)."""
    return AttachedPlane(meta, untrack=untrack)
