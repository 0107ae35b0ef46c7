"""Scale-out serving: zero-copy shared memory + multi-process workers.

:mod:`repro.serve.shm` publishes one generation of the serving plane (the
CSR incidences, the walk stacks and the vocabularies) into a single
``multiprocessing`` shared-memory segment; :mod:`repro.serve.profile_plane`
does the same for the personalization layer (theta profiles, per-user
topic-word counts, user/word vocabs, optional tau) so workers score
``P(q|d)`` zero-copy; :mod:`repro.serve.pool` spawns suggest workers that
attach read-only views over both, route requests by query hash for cache
affinity, batch each call into one envelope per worker, memoize the
workers' answers to unpersonalized head queries per generation and serve
repeats O(1) in the parent (profiled requests bypass the memo — their
ranking is Borda-fused per user), and swap matrix and profile
generations through epoch-consistent handshakes;
:mod:`repro.serve.frontend` puts an asyncio HTTP/1.1 front-end over the
pool with micro-batching, per-request deadlines, and depth-driven tiered
load shedding.  See ``docs/algorithms.md`` ("Scale-out serving",
"Batched IPC & hot-query fast tier", "Shared profile plane" and "Async
HTTP front-end") for the layouts and protocols.
"""

from repro.serve.frontend import (
    FrontendConfig,
    FrontendHandle,
    SuggestFrontend,
    run_in_thread,
    serve_until_interrupt,
)
from repro.serve.pool import (
    PoolStats,
    SuggestError,
    SuggestWorkerPool,
    WorkerStats,
)
from repro.serve.profile_plane import (
    AttachedProfilePlane,
    SharedProfileMeta,
    SharedProfileStore,
    attach_profiles,
)
from repro.serve.shm import (
    AttachedPlane,
    SharedMatrixStore,
    SharedPlaneMeta,
    SharedRepresentation,
    SharedTermBipartite,
    attach,
)

__all__ = [
    "AttachedPlane",
    "AttachedProfilePlane",
    "FrontendConfig",
    "FrontendHandle",
    "PoolStats",
    "SharedMatrixStore",
    "SharedPlaneMeta",
    "SharedProfileMeta",
    "SharedProfileStore",
    "SharedRepresentation",
    "SharedTermBipartite",
    "SuggestError",
    "SuggestFrontend",
    "SuggestWorkerPool",
    "WorkerStats",
    "attach",
    "attach_profiles",
    "run_in_thread",
    "serve_until_interrupt",
]
