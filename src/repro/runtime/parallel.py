"""Parallel execution of shard ingest work: the pipelined
shared-memory pool and its worker-sizing policy.

Two pieces live here:

* :class:`PipelinedShardPool` — the zero-copy pipelined executor.  A
  set of worker processes, persistent for one
  :meth:`~repro.runtime.sharded.ShardedRunner.ingest` call, is fed
  through per-shard ``multiprocessing.shared_memory`` ring buffers:
  the router (the parent, inside ``ingest``) writes routed ``int64``
  chunks straight into a shard's shared segment while the owning
  worker ingests earlier chunks concurrently, so routing and ingest
  overlap instead of running back to back.
  Only tiny slot descriptors cross a queue; the chunk payloads are
  never pickled.  Workers ingest each slot *in place* (a numpy view of
  the shared segment — no copy on either side) and release the slot's
  back-pressure semaphore only after the chunk is absorbed, so a slot
  is never overwritten while in use.  When the router signals the end
  of the stream, each worker snapshots the shards it ingested into and
  streams the ``to_state`` payloads back incrementally, letting the
  parent restore while slower workers are still ingesting.

* The pool's sizing/start-method policy, which has no overrides: one
  worker per shard, capped by :func:`available_cpus`, which respects
  cgroup quotas and CPU affinity (``os.process_cpu_count`` where
  available, ``sched_getaffinity`` otherwise — plain ``os.cpu_count``
  oversubscribes 1-CPU containers); and :func:`resolve_start_method`,
  which refuses to ``fork`` a multi-threaded parent (a live
  ``LiveServer`` handler thread plus a forked pool is a latent
  deadlock: the child inherits locks whose owners do not exist in it),
  falling back to ``forkserver``/``spawn``.  Results are bit-identical
  across start methods — only safety and start-up cost differ.

Worker failures carry their context: any exception inside a worker is
wrapped in :class:`ShardIngestError` (shard index, items ingested when
it struck, the original exception, and its formatted traceback), which
pickles cleanly across the pool boundary.  The parent re-raises the
original error *chained* to the shard context — a
``policy="raise"`` write-budget abort still surfaces as
:class:`~repro.state.budget.WriteBudgetExceededError` (the PR-4
contract; the CLI and callers catch that type) with the
``ShardIngestError`` as its ``__cause__``, while unexpected faults
surface as the ``ShardIngestError`` itself with the original chained.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import traceback
from multiprocessing import shared_memory
from queue import Empty
from typing import Any, Iterator, Sequence

import numpy as np

from repro import registry
from repro.state.budget import WriteBudgetExceededError
from repro.streams.chunked import DEFAULT_CHUNK_SIZE

#: One shard's result: ``(shard_index, ingested_state)``.
ShardResult = tuple[int, dict[str, Any]]

#: Ring-buffer depth: slots per shard the router may run ahead of the
#: worker.  4 keeps the worker fed across routing hiccups while bounding
#: the shared segment at ``4 * slot_items * 8`` bytes/shard.
PIPELINE_DEPTH = 4


class ShardIngestError(RuntimeError):
    """A shard's worker failed ``offset`` items into its stream.

    Attributes
    ----------
    shard_index:
        Which shard's ingest raised.
    offset:
        Items the shard had successfully ingested when the error
        struck (the failure lies inside the next chunk).
    cause:
        The original exception (unpickled in the parent).  Falls back
        to a ``RuntimeError`` carrying ``repr(original)`` when the
        original does not pickle.
    worker_traceback:
        The worker-side formatted traceback, preserved across the
        process boundary where the live traceback object cannot be.
    """

    def __init__(
        self,
        shard_index: int,
        offset: int,
        cause: BaseException,
        worker_traceback: str | None = None,
    ) -> None:
        detail = f": {cause}" if cause is not None else ""
        location = (
            f"\n--- worker traceback ---\n{worker_traceback}"
            if worker_traceback
            else ""
        )
        super().__init__(
            f"shard {shard_index} failed after ingesting {offset} "
            f"items{detail}{location}"
        )
        self.shard_index = shard_index
        self.offset = offset
        self.cause = cause
        self.worker_traceback = worker_traceback

    def __reduce__(self):
        # Pickle as constructor arguments (the same treatment
        # WriteBudgetExceededError got): an error that cannot cross
        # the pool boundary hangs the pool's result handler.
        return (
            type(self),
            (self.shard_index, self.offset, self.cause,
             self.worker_traceback),
        )


def wrap_shard_error(
    shard_index: int, shard, error: BaseException
) -> ShardIngestError:
    """Wrap a worker-side exception with its shard context.

    Captures the shard's ingest offset and the formatted traceback
    *now*, while both still exist; ensures the wrapped cause survives
    pickling (an unpicklable cause is replaced by a ``RuntimeError``
    carrying its repr, so the parent always gets the context).
    """
    offset = int(getattr(shard, "items_processed", 0) or 0)
    tb = traceback.format_exc()
    try:
        pickle.loads(pickle.dumps(error))
    except Exception:
        error = RuntimeError(repr(error))
    return ShardIngestError(shard_index, offset, error, tb)


def reraise_shard_error(error: ShardIngestError) -> None:
    """Re-raise a worker failure in the parent, context chained.

    A ``policy="raise"`` budget abort is a *contract outcome*, not a
    fault: it must surface as ``WriteBudgetExceededError`` in every
    executor (serial raises it directly), so the original is re-raised
    with the shard context as its ``__cause__``.  Everything else
    surfaces as the :class:`ShardIngestError`, chained to the original
    exception.
    """
    if isinstance(error.cause, WriteBudgetExceededError):
        raise error.cause from error
    raise error from error.cause


# ----------------------------------------------------------------------
# Sizing and start-method policy
# ----------------------------------------------------------------------
def available_cpus() -> int:
    """CPUs this *process* may actually run on.

    ``os.cpu_count()`` reports the machine, ignoring cgroup quotas and
    CPU affinity masks — inside a 1-CPU container it happily reports
    the host's core count and the pool oversubscribes.  Prefer
    ``os.process_cpu_count`` (3.13+, quota- and affinity-aware), then
    the affinity mask, then the machine count as the last resort.
    """
    process_cpu_count = getattr(os, "process_cpu_count", None)
    if process_cpu_count is not None:
        return process_cpu_count() or 1
    sched_getaffinity = getattr(os, "sched_getaffinity", None)
    if sched_getaffinity is not None:
        try:
            return len(sched_getaffinity(0)) or 1
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return os.cpu_count() or 1


def resolve_workers(num_tasks: int) -> int:
    """Pool size for ``num_tasks`` shard tasks: one worker per task,
    capped by the CPUs the process may run on (oversubscribing a
    CPU-bound pool only adds scheduling overhead)."""
    return max(1, min(num_tasks, available_cpus()))


def resolve_start_method() -> str:
    """The start method a pool about to launch should use.

    ``fork`` is the cheap default (no re-import), but forking a
    multi-threaded parent copies locks whose owning threads do not
    exist in the child — a serving thread
    (:class:`repro.serve.server.LiveServer`) holding the engine lock at
    fork time deadlocks the worker.  So ``fork`` is only picked when
    the process is single-threaded; otherwise ``forkserver`` (clean
    single-threaded template process) and finally ``spawn``.  Results
    are bit-identical across methods, so the choice is purely about
    safety and start-up cost.
    """
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods and threading.active_count() == 1:
        return "fork"
    if "forkserver" in methods:
        return "forkserver"
    return "spawn"


# ----------------------------------------------------------------------
# Pipelined shared-memory pool (the process executor)
# ----------------------------------------------------------------------
def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to a parent-owned segment without tracking it twice.

    The parent created the segment, registered it with the (shared)
    ``resource_tracker``, and will unlink it in ``close()``.  Python
    3.13's ``track=False`` skips the attach-side re-registration
    entirely.  On older versions the attach-side ``register`` is a
    no-op — pool workers inherit the parent's tracker process, whose
    per-name cache is a set — so a plain attach is already clean.  Do
    NOT ``unregister`` here: with a shared tracker that would strip the
    *parent's* registration and make the parent's ``unlink`` raise a
    KeyError inside the tracker.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: shared tracker, benign re-register
        return shared_memory.SharedMemory(name=name)


def _pipeline_worker(
    worker_id: int,
    shard_states: list[tuple[int, dict[str, Any]]],
    segment_names: dict[int, str],
    slot_items: int,
    depth: int,
    task_queue,
    result_queue,
    free_slots: dict[int, Any],
    failed,
) -> None:
    """Persistent worker: ingest ring-buffer chunks for its shards.

    Rebuilds each owned shard from the snapshot it was handed, then
    loops on slot descriptors ``(shard, slot, length)``: the chunk is
    ingested *in place* from a numpy view of the shard's shared
    segment, and the slot's semaphore is released only after
    ``process_chunk`` returns — the router can never overwrite a slot
    still being read.  On the ``None`` sentinel the worker snapshots
    each shard it ingested into and streams the states back one by one
    (the parent restores them while other workers are still
    ingesting), then reports ``done``.

    Any ingest failure is wrapped with its shard context, reported on
    the result queue, and mirrored in the shared ``failed`` event so a
    router blocked on back-pressure wakes up and aborts.
    """
    shards = {}
    for index, state in shard_states:
        sketch_cls = registry.sketch_class(state["algorithm"])
        shards[index] = sketch_cls.from_state(state)
    segments = {
        index: _attach_segment(name)
        for index, name in segment_names.items()
    }
    views = {
        index: np.ndarray(
            (depth * slot_items,), dtype=np.int64, buffer=segment.buf
        )
        for index, segment in segments.items()
    }
    fed: set[int] = set()
    try:
        while True:
            message = task_queue.get()
            if message is None:
                break
            index, slot, length = message
            fed.add(index)
            view = views[index]
            chunk = view[slot * slot_items: slot * slot_items + length]
            try:
                shards[index].process_chunk(chunk)
            except Exception as error:
                result_queue.put(
                    ("error", wrap_shard_error(index, shards[index], error))
                )
                failed.set()
                return
            finally:
                free_slots[index].release()
        for index, shard in shards.items():
            if index in fed:
                result_queue.put(("state", index, shard.to_state()))
        result_queue.put(("done", worker_id))
    finally:
        # Views alias the shared buffers; drop them before closing or
        # SharedMemory.close() raises BufferError on the exported view.
        del views
        for segment in segments.values():
            segment.close()


class PipelinedShardPool:
    """Persistent worker pool fed by per-shard shared-memory rings.

    Parameters
    ----------
    states:
        ``(shard_index, state)`` for every shard; the shard at position
        ``i`` is owned by worker ``i % workers``, where ``workers`` is
        :func:`resolve_workers` of the shard count.
    slot_items:
        ``int64`` capacity of one ring slot; larger routed parts are
        split across consecutive slots (chunk-boundary invariance makes
        the split bit-neutral).
    depth:
        Slots per shard ring — how far the router may run ahead of the
        worker before back-pressure blocks it (tests shrink it to force
        back-pressure).

    Workers start with the :func:`resolve_start_method` policy.
    """

    def __init__(
        self,
        states: Sequence[tuple[int, dict[str, Any]]],
        *,
        slot_items: int = DEFAULT_CHUNK_SIZE,
        depth: int = PIPELINE_DEPTH,
    ) -> None:
        if depth < 1:
            raise ValueError(f"pipeline depth must be >= 1: {depth}")
        if slot_items < 1:
            raise ValueError(f"slot_items must be >= 1: {slot_items}")
        self._slot_items = int(slot_items)
        self._depth = int(depth)
        context = multiprocessing.get_context(resolve_start_method())
        self._workers_n = resolve_workers(len(states))
        self._segments: dict[int, shared_memory.SharedMemory] = {}
        self._views: dict[int, np.ndarray] = {}
        self._free_slots: dict[int, Any] = {}
        self._next_slot: dict[int, int] = {}
        self._owner: dict[int, int] = {}
        self._result_queue = context.Queue()
        self._failed_event = context.Event()
        self._task_queues = [
            context.SimpleQueue() for _ in range(self._workers_n)
        ]
        nbytes = self._depth * self._slot_items * 8
        assignments: list[list[tuple[int, dict[str, Any]]]] = [
            [] for _ in range(self._workers_n)
        ]
        for position, (index, state) in enumerate(states):
            worker_id = position % self._workers_n
            assignments[worker_id].append((index, state))
            segment = shared_memory.SharedMemory(create=True, size=nbytes)
            self._segments[index] = segment
            self._views[index] = np.ndarray(
                (self._depth * self._slot_items,),
                dtype=np.int64,
                buffer=segment.buf,
            )
            self._free_slots[index] = context.Semaphore(self._depth)
            self._next_slot[index] = 0
            self._owner[index] = worker_id
        self._processes = []
        try:
            for worker_id in range(self._workers_n):
                process = context.Process(
                    target=_pipeline_worker,
                    args=(
                        worker_id,
                        assignments[worker_id],
                        {
                            index: self._segments[index].name
                            for index, _ in assignments[worker_id]
                        },
                        self._slot_items,
                        self._depth,
                        self._task_queues[worker_id],
                        self._result_queue,
                        {
                            index: self._free_slots[index]
                            for index, _ in assignments[worker_id]
                        },
                        self._failed_event,
                    ),
                    daemon=True,
                )
                process.start()
                self._processes.append(process)
        except BaseException:
            self.close()
            raise
        self._closed = False
        self._failure: ShardIngestError | None = None

    @property
    def workers(self) -> int:
        """Worker processes the pool launched."""
        return self._workers_n

    # ------------------------------------------------------------------
    # Routing side
    # ------------------------------------------------------------------
    def submit(self, index: int, part: np.ndarray) -> None:
        """Write one routed part into shard ``index``'s ring.

        Parts larger than a slot are split across consecutive slots
        (bit-neutral: per-shard ingest is chunk-boundary invariant).
        Blocks on the shard's back-pressure semaphore when the ring is
        full; a worker failure turns the wait into the worker's
        re-raised error instead of a deadlock.
        """
        slot_items = self._slot_items
        view = self._views[index]
        for low in range(0, len(part), slot_items):
            piece = part[low:low + slot_items]
            self._acquire_slot(index)
            slot = self._next_slot[index]
            self._next_slot[index] = (slot + 1) % self._depth
            start = slot * slot_items
            view[start:start + len(piece)] = piece
            self._task_queues[self._owner[index]].put(
                (index, slot, len(piece))
            )

    def _acquire_slot(self, index: int) -> None:
        while not self._free_slots[index].acquire(timeout=0.1):
            if self._failed_event.is_set():
                self._raise_failure()
            if not any(p.is_alive() for p in self._processes):
                self._abort_dead_pool()

    def _raise_failure(self) -> None:
        failure = self._failure or self._drain_failure(timeout=5.0)
        self.close()
        if failure is None:  # pragma: no cover - defensive
            raise RuntimeError(
                "pipelined pool failed without reporting an error"
            )
        reraise_shard_error(failure)

    def _abort_dead_pool(self) -> None:
        self.close()
        raise RuntimeError(
            "pipelined pool workers died without reporting an error "
            "(killed?); shard results were discarded"
        )

    def _drain_failure(self, timeout: float) -> ShardIngestError | None:
        try:
            while True:
                message = self._result_queue.get(timeout=timeout)
                if message[0] == "error":
                    self._failure = message[1]
                    return self._failure
        except Empty:
            return None

    # ------------------------------------------------------------------
    # Completion side
    # ------------------------------------------------------------------
    def finish(self) -> Iterator[ShardResult]:
        """Signal end-of-stream and yield shard states as they land.

        States arrive incrementally — a worker that finishes early
        reports while the others are still ingesting, so the caller's
        ``from_state`` restoration (the expensive half of the
        merge-reduce) overlaps the tail of the pipeline.  On a worker
        failure every partial result is discarded and the failure is
        re-raised (budget aborts keep their type); the pool always
        shuts down and unlinks its segments.
        """
        try:
            for queue in self._task_queues:
                queue.put(None)
            done = 0
            while done < self._workers_n:
                try:
                    message = self._result_queue.get(timeout=1.0)
                except Empty:
                    if self._failed_event.is_set():
                        self._raise_failure()
                    if not any(p.is_alive() for p in self._processes):
                        self._abort_dead_pool()
                    continue
                if message[0] == "error":
                    self._failure = message[1]
                    self._raise_failure()
                elif message[0] == "state":
                    yield message[1], message[2]
                else:  # ("done", worker_id)
                    done += 1
            for process in self._processes:
                process.join(timeout=10.0)
        finally:
            self.close()

    def close(self) -> None:
        """Terminate workers and unlink every shared segment.

        Idempotent; called on success, failure, and interpreter-level
        unwinds alike, so no segment outlives the pool.
        """
        if getattr(self, "_closed", False):
            return
        self._closed = True
        for process in getattr(self, "_processes", []):
            if process.is_alive():
                process.terminate()
        for process in getattr(self, "_processes", []):
            process.join(timeout=5.0)
        self._views.clear()
        for segment in self._segments.values():
            try:
                segment.close()
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments.clear()
        self._result_queue.close()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass
