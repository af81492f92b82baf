"""Distributed-ingestion runtime built on the mergeable sketch protocol.

* :mod:`repro.runtime.sharded` — :class:`ShardedRunner`: route a
  stream over ``K`` sketch shards by item hash, chunk by chunk, ingest
  (serially, or on the pipelined shared-memory process pool via
  ``executor="process"``, which each ``ingest`` call starts and
  finishes), merge-reduce.
* :mod:`repro.runtime.parallel` — the process executor
  (:class:`PipelinedShardPool`) and its fixed policy: one worker per
  shard capped by :func:`available_cpus`, started by
  :func:`resolve_start_method`.  Worker failures carry shard context
  as :class:`ShardIngestError`.
* :mod:`repro.runtime.checkpoint` — :class:`Checkpoint`: JSON
  round-trips of sketch state (estimates + coin positions + audit).
"""

from repro.runtime.checkpoint import Checkpoint
from repro.runtime.parallel import (
    PipelinedShardPool,
    ShardIngestError,
    available_cpus,
    resolve_start_method,
    resolve_workers,
)
from repro.runtime.sharded import ShardedRunner, ShardedRunResult

__all__ = [
    "Checkpoint",
    "PipelinedShardPool",
    "ShardIngestError",
    "ShardedRunner",
    "ShardedRunResult",
    "available_cpus",
    "resolve_start_method",
    "resolve_workers",
]
