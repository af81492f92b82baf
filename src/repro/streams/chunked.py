"""Columnar streams: the carrier type of the chunked data plane.

The paper's cost model measures *state changes*, not Python overhead,
yet a ``list[int]`` stream pays per-item Python dispatch at every layer
between the generator and the sketch.  :class:`ChunkedStream` keeps a
stream columnar end to end — a lazy sequence of contiguous
``np.ndarray`` chunks of dtype ``int64`` — so the runtime can route,
ship, and ingest whole chunks (:meth:`~repro.state.algorithm.Sketch.
process_chunk`, :meth:`~repro.runtime.sharded.ShardedRunner.ingest`)
while scalar consumers keep working unchanged:

* iterating a ``ChunkedStream`` yields plain Python ``int``s,
* ``len()``, indexing, slicing, and ``==`` against lists behave like
  the ``list[int]`` streams the generators used to return,
* :meth:`ChunkedStream.materialize` recovers the historical
  ``list[int]`` explicitly.

Two backings cover every producer:

* **array-backed** — the stream is one ``int64`` array (what the
  random generators draw anyway; the old code round-tripped it through
  ``.tolist()``); chunking is zero-copy slicing.
* **factory-backed** — ``source`` is a callable returning a fresh
  iterator of chunks, so file readers
  (:func:`repro.streams.traceio.trace_stream`) never hold the whole
  trace in memory.  Operations that need random access (``len``,
  indexing, ``materialize``) concatenate and cache the chunks.

Chunks are produced at :attr:`chunk_size` items (re-chunk with
:meth:`chunks` or :meth:`with_chunk_size`); ``chunks(start=k)`` skips
the first ``k`` items without materializing them, which is how
interrupted chunked runs resume from a
:class:`~repro.runtime.checkpoint.Checkpoint` offset.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

import numpy as np

#: Default items per chunk: large enough to amortize numpy call
#: overhead, small enough to stay cache-resident.
DEFAULT_CHUNK_SIZE = 8192


def as_chunk(values) -> np.ndarray:
    """Coerce ``values`` into a contiguous 1-D ``int64`` chunk."""
    chunk = np.ascontiguousarray(values, dtype=np.int64)
    if chunk.ndim != 1:
        raise ValueError(
            f"a stream chunk must be one-dimensional, got shape "
            f"{chunk.shape}"
        )
    return chunk


def _rechunk(
    pieces: Iterable[np.ndarray], size: int, start: int = 0
) -> Iterator[np.ndarray]:
    """Regroup a chunk iterator into chunks of exactly ``size`` items
    (the final chunk may be shorter), skipping the first ``start``."""
    pending: list[np.ndarray] = []
    buffered = 0
    for piece in pieces:
        piece = as_chunk(piece)
        if start:
            if len(piece) <= start:
                start -= len(piece)
                continue
            piece = piece[start:]
            start = 0
        if not len(piece):
            continue
        pending.append(piece)
        buffered += len(piece)
        while buffered >= size:
            merged = pending[0] if len(pending) == 1 else np.concatenate(
                pending
            )
            yield merged[:size]
            rest = merged[size:]
            pending = [rest] if len(rest) else []
            buffered = len(rest)
    if buffered:
        yield pending[0] if len(pending) == 1 else np.concatenate(pending)


class ChunkedStream:
    """A stream of ``int64`` items exposed as lazy columnar chunks.

    Parameters
    ----------
    source:
        Either anything :func:`as_chunk` accepts (an ``int64`` array,
        a list of ints — the stream is then array-backed), or a
        zero-argument callable returning a fresh iterator of chunks
        (factory-backed, for lazily-read traces).
    chunk_size:
        Items per chunk produced by :meth:`chunks` and ``__iter__``.
    """

    __slots__ = ("_array", "_factory", "_chunk_size")

    def __init__(
        self,
        source,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1: {chunk_size}")
        self._chunk_size = int(chunk_size)
        self._factory: Callable[[], Iterable[np.ndarray]] | None
        self._array: np.ndarray | None
        if callable(source):
            self._factory = source
            self._array = None
        else:
            self._factory = None
            self._array = as_chunk(source)

    # ------------------------------------------------------------------
    # Columnar access
    # ------------------------------------------------------------------
    @property
    def chunk_size(self) -> int:
        """Items per produced chunk."""
        return self._chunk_size

    def with_chunk_size(self, chunk_size: int) -> "ChunkedStream":
        """The same stream re-chunked at ``chunk_size`` (no copy)."""
        source = self._array if self._array is not None else self._factory
        return ChunkedStream(source, chunk_size)

    def chunks(
        self, chunk_size: int | None = None, start: int = 0
    ) -> Iterator[np.ndarray]:
        """Iterate the stream as ``int64`` chunks.

        ``chunk_size`` overrides the stream's own chunking for this
        iteration; ``start`` skips the first ``start`` items (the
        resume path for checkpointed runs).  Array-backed streams
        yield zero-copy views.
        """
        size = self._chunk_size if chunk_size is None else int(chunk_size)
        if size < 1:
            raise ValueError(f"chunk_size must be >= 1: {size}")
        if start < 0:
            raise ValueError(f"start must be >= 0: {start}")
        if self._array is not None:
            array = self._array
            for low in range(start, len(array), size):
                yield array[low:low + size]
            return
        yield from _rechunk(self._factory(), size, start)

    def to_array(self) -> np.ndarray:
        """The whole stream as one ``int64`` array.

        Factory-backed streams are drained once and cached, so
        repeated random access does not re-read the source.
        """
        if self._array is None:
            parts = [as_chunk(piece) for piece in self._factory()]
            self._array = (
                np.concatenate(parts)
                if parts
                else np.empty(0, dtype=np.int64)
            )
        return self._array

    def materialize(self) -> list[int]:
        """The historical ``list[int]`` form (Python ints)."""
        return self.to_array().tolist()

    # ------------------------------------------------------------------
    # list[int] compatibility
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[int]:
        """Yield plain Python ints, chunk by chunk."""
        for chunk in self.chunks():
            yield from chunk.tolist()

    def __len__(self) -> int:
        return len(self.to_array())

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ChunkedStream(
                self.to_array()[index], self._chunk_size
            )
        return int(self.to_array()[index])

    def __eq__(self, other) -> bool:
        if isinstance(other, ChunkedStream):
            return np.array_equal(self.to_array(), other.to_array())
        if isinstance(other, np.ndarray):
            return np.array_equal(self.to_array(), other)
        if isinstance(other, (list, tuple)):
            # Exact element comparison (no silent dtype coercion).
            return self.materialize() == list(other)
        return NotImplemented

    __hash__ = None  # mutable-ish container semantics, like list

    def __repr__(self) -> str:
        length = "?" if self._array is None else str(len(self._array))
        return (
            f"ChunkedStream(length={length}, "
            f"chunk_size={self._chunk_size})"
        )
