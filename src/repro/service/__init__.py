"""repro.service — the asyncio simulation-serving layer.

Turns the batch harness into a system that takes traffic: an HTTP/JSON
server (:mod:`repro.service.server`, the ``repro-serve`` console script)
answers replay, policy-comparison, and experiment-row queries online,
with bounded admission (429 + ``Retry-After`` backpressure),
single-flight coalescing keyed on the replay result cache's
content-addressed keys, dispatch onto the session process pool, and a
graceful SIGTERM drain; :mod:`repro.service.router` (``repro-cluster``)
shards it behind a consistent-hash router.  Both tiers run on the one
HTTP, admission and single-flight core of :mod:`repro.service.http`.
:mod:`repro.service.client` provides sync and
async clients; :mod:`repro.service.loadgen` drives the server with
open- or closed-loop traffic and writes ``BENCH_service.json``.

Request and response shapes are versioned in
:mod:`repro.service.protocol`; see ``docs/SERVING.md`` for the
endpoint/backpressure/drain contract.
"""

from repro.service.protocol import (
    PROTOCOL_VERSION,
    CompareRequest,
    ExperimentRequest,
    ReplaySpec,
    ServiceError,
)

__all__ = [
    "PROTOCOL_VERSION",
    "CompareRequest",
    "ExperimentRequest",
    "ReplaySpec",
    "ServiceError",
]
