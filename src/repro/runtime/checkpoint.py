"""Checkpointing: round-trip sketch state through the serialization hooks.

A checkpoint is the JSON encoding of
:meth:`~repro.state.algorithm.Sketch.to_state`: constructor config,
register payload, and the full tracker audit.  Restoring rebuilds the
sketch through :mod:`repro.registry` (the snapshot names its own class),
reproducing estimates *and* the state-change report exactly, so a
long-running ingest can stop, persist, and resume without losing its
audit.

Hash functions and coin streams are rebuilt from the stored seeds and
match the original.  A coin is a pure function of its seed, stream
label and index, and the payload stores the indices reached (see
``Sketch.from_state``), so a resumed run draws the same coins the
uninterrupted run would have.

Checkpoints are also *resumable mid-stream*: the snapshot records the
stream offset (the number of updates already consumed, duplicated into
an explicit ``"stream_offset"`` field for self-description), and
:meth:`Checkpoint.resume` continues a chunked ingest from exactly that
offset — completed chunks are skipped without being replayed or even
materialized (:meth:`~repro.streams.chunked.ChunkedStream.chunks`
``start=``), and the finished sketch is bit-identical to an
uninterrupted run.
"""

from __future__ import annotations

import itertools
import json
import pathlib
from typing import Any, Iterable

import numpy as np

from repro import registry
from repro.state.algorithm import Sketch
from repro.streams.chunked import ChunkedStream


class Checkpoint:
    """Serialize sketches to JSON strings or files and restore them."""

    @staticmethod
    def dumps(sketch: Sketch) -> str:
        """Encode ``sketch`` as a JSON checkpoint string.

        The snapshot carries an explicit ``stream_offset`` (the number
        of stream updates consumed so far) alongside the state, so a
        checkpoint is self-describing about where in the stream the
        run stopped.
        """
        state = sketch.to_state()
        state["stream_offset"] = sketch.items_processed
        return json.dumps(state)

    @staticmethod
    def loads(text: str) -> Sketch:
        """Rebuild a sketch from :meth:`dumps` output.

        The sketch class is resolved from the snapshot's ``"algorithm"``
        field via the registry, so callers need not know the type.
        """
        state: dict[str, Any] = json.loads(text)
        cls = registry.sketch_class(state["algorithm"])
        return cls.from_state(state)

    @staticmethod
    def offset(text: str) -> int:
        """The stream offset recorded in a checkpoint string.

        Falls back to the snapshot's ``items_processed`` for
        checkpoints written before the explicit field existed.
        """
        state: dict[str, Any] = json.loads(text)
        if "stream_offset" in state:
            return int(state["stream_offset"])
        return int(state.get("items_processed", 0))

    @staticmethod
    def save(path: str | pathlib.Path, sketch: Sketch) -> pathlib.Path:
        """Write a checkpoint file; returns the path written."""
        path = pathlib.Path(path)
        path.write_text(Checkpoint.dumps(sketch) + "\n")
        return path

    @staticmethod
    def load(path: str | pathlib.Path) -> Sketch:
        """Restore a sketch from a :meth:`save` file."""
        return Checkpoint.loads(pathlib.Path(path).read_text())

    @staticmethod
    def resume(
        path: str | pathlib.Path,
        stream: Iterable[int],
        chunk_size: int | None = None,
    ) -> Sketch:
        """Restore a checkpoint and finish ingesting ``stream``.

        ``stream`` must be the *full* stream of the original run; the
        recorded offset decides where ingestion picks up, so completed
        updates are never replayed.  Chunked streams
        (:class:`~repro.streams.chunked.ChunkedStream` or an
        ``np.ndarray``) skip the completed prefix without
        materializing it and continue through the columnar fast path
        (at ``chunk_size``, if given); plain iterables are skipped
        item by item.  The returned sketch — payload, audit, answers,
        and coin positions — is bit-identical to one that ingested the
        whole stream uninterrupted.
        """
        sketch = Checkpoint.load(path)
        offset = sketch.items_processed
        if isinstance(stream, np.ndarray):
            stream = ChunkedStream(stream)
        chunks = getattr(stream, "chunks", None)
        if chunks is not None:
            for chunk in chunks(chunk_size, start=offset):
                sketch.process_chunk(chunk)
        else:
            sketch.process_many(itertools.islice(stream, offset, None))
        return sketch
