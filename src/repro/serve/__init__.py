"""repro.serve: the compile-once / serve-many encrypted inference runtime.

The layer above :class:`repro.core.compiler.OrionCompiler` and
:class:`repro.core.program.FheProgram` that the ROADMAP's production
north star needs (docs/serving.md).  The front door is::

    from repro import serve

    with serve.open("model.npz", serve.ServerConfig(workers=4)) as server:
        ticket = server.submit(image, client_id="alice")
        results = server.drain()
        stats = server.stats()          # typed, schema-versioned

Behind it:

- :mod:`repro.serve.api`      — :func:`open`, :class:`ServerConfig`,
  :class:`Server`: the single entry point, which routes, admits
  (:class:`AdmissionError` backpressure), steps and accounts for every
  request;
- :mod:`repro.serve.pool`     — the workers behind it: one
  :class:`~repro.serve.pool.Worker` per shard, run inline or in a
  forked child (:class:`WorkerLostError` when one vanishes);
- :mod:`repro.serve.mmapio`   — :class:`ArtifactMap`: the one artifact
  reader, ``ArtifactMap(path).load()``, over shared read-only mmapped
  tables (one physical copy per machine);
- :mod:`repro.serve.stats`    — :class:`ServerStats` /
  :class:`WorkerStats` / :class:`LaneStats`: the typed telemetry
  schema that ``stats()`` returns and ``metrics()`` renders;
- :mod:`repro.serve.artifact` — the versioned on-disk artifact;
- :mod:`repro.serve.scheduler` — cross-request SIMD slot batching;
- :mod:`repro.serve.keys`     — a lane's rotation keys, generated once
  from its program;
- :mod:`repro.serve.runtime`  — the per-worker inference loop.
"""

from repro.serve.api import AdmissionError, Server, ServerConfig, open
from repro.serve.artifact import ArtifactSchemaError, ServingArtifact, save_artifact
from repro.serve.mmapio import ArtifactMap, is_mmap_backed
from repro.serve.pool import ArtifactSpec, WorkerLostError
from repro.serve.runtime import ServeResult
from repro.serve.scheduler import PendingRequest
from repro.serve.stats import (
    STATS_SCHEMA_VERSION,
    LaneStats,
    NoiseStats,
    ServerStats,
    StatsSchemaError,
    WorkerStats,
)


__all__ = [
    # front door
    "open",
    "Server",
    "ServerConfig",
    "AdmissionError",
    # pool
    "WorkerLostError",
    "ArtifactSpec",
    # shared artifact memory
    "ArtifactMap",
    "is_mmap_backed",
    # telemetry schema
    "ServerStats",
    "WorkerStats",
    "LaneStats",
    "NoiseStats",
    "StatsSchemaError",
    "STATS_SCHEMA_VERSION",
    # artifacts
    "ArtifactSchemaError",
    "ServingArtifact",
    "save_artifact",
    # results / scheduling primitives
    "ServeResult",
    "PendingRequest",
]
