"""Capability-matrix tests for the unified query protocol.

For every registry name and every :class:`~repro.query.QueryKind`:

* a declared kind must answer through ``Sketch.query()`` and agree
  with the legacy method it delegates to;
* an undeclared kind must raise the typed ``UnsupportedQueryError``.

The matrix is exhaustive by construction (``registry.names() x
QueryKind``), so adding a sketch or a kind without wiring the protocol
fails here first.
"""

from __future__ import annotations

import math
import pathlib

import pytest

from repro import registry
from repro.query import (
    AllEstimates,
    Distinct,
    Entropy,
    HeavyHitters,
    MapAnswer,
    Moment,
    MomentAnswer,
    PointQuery,
    QueryKind,
    ScalarAnswer,
    UnsupportedQueryError,
)
from repro.streams import zipf_stream

N, M, EPSILON, SEED = 128, 1024, 0.5, 0

#: Parameter-free probe query per kind (point queries get an item).
PROBES = {
    QueryKind.POINT: PointQuery(3),
    QueryKind.ALL_ESTIMATES: AllEstimates(),
    QueryKind.HEAVY_HITTERS: HeavyHitters(),
    QueryKind.MOMENT: Moment(),
    QueryKind.ENTROPY: Entropy(),
    QueryKind.DISTINCT: Distinct(),
}


@pytest.fixture(scope="module")
def processed():
    """One processed sketch per registry name, built once."""
    stream = zipf_stream(N, M, skew=1.3, seed=SEED)
    sketches = {}
    for name in registry.names():
        sketch = registry.create(name, n=N, m=M, epsilon=EPSILON, seed=SEED)
        sketch.process_many(stream)
        sketches[name] = sketch
    return sketches


def _matrix():
    return [
        pytest.param(name, kind, id=f"{name}-{kind}")
        for name in registry.names()
        for kind in QueryKind
    ]


@pytest.mark.parametrize("name,kind", _matrix())
def test_capability_matrix(processed, name, kind):
    sketch = processed[name]
    spec = registry.spec(name)
    # The registry surfaces exactly the class declaration.
    assert spec.supports == sketch.supports

    if kind not in spec.supports:
        with pytest.raises(UnsupportedQueryError) as excinfo:
            sketch.query(PROBES[kind])
        assert excinfo.value.kind is kind
        assert excinfo.value.supports == spec.supports
        return

    answer = sketch.query(PROBES[kind])
    assert answer.kind is kind

    # Cross-check against the legacy method the protocol replaced.
    if kind is QueryKind.POINT:
        assert isinstance(answer, ScalarAnswer)
        assert answer.value == sketch.estimate(3)
    elif kind is QueryKind.ALL_ESTIMATES:
        assert isinstance(answer, MapAnswer)
        assert dict(answer.values) == sketch.estimates()
    elif kind is QueryKind.HEAVY_HITTERS:
        assert isinstance(answer, MapAnswer)
        assert dict(answer.values) == sketch.heavy_hitters()
    elif kind is QueryKind.MOMENT:
        assert isinstance(answer, MomentAnswer)
        assert answer.p > 0
        if hasattr(sketch, "f2_estimate"):
            assert answer.p == 2.0
            assert answer.value == sketch.f2_estimate()
        elif hasattr(sketch, "fp_estimate"):
            assert answer.p == sketch.p
            assert answer.value == sketch.fp_estimate()
        else:  # exact counter: recompute from its own frequencies
            expected = sum(
                count ** answer.p for count in sketch.estimates().values()
            )
            assert answer.value == pytest.approx(expected)
    elif kind is QueryKind.ENTROPY:
        assert isinstance(answer, ScalarAnswer)
        if hasattr(sketch, "entropy_estimate"):
            assert answer.value == sketch.entropy_estimate()
        else:  # exact counter: recompute Shannon entropy
            counts = sketch.estimates().values()
            total = sum(counts)
            expected = -sum(
                (c / total) * math.log2(c / total) for c in counts if c
            )
            assert answer.value == pytest.approx(expected)
    elif kind is QueryKind.DISTINCT:
        assert isinstance(answer, ScalarAnswer)
        if hasattr(sketch, "f0_estimate"):
            assert answer.value == sketch.f0_estimate()
        elif hasattr(sketch, "support"):
            assert answer.value == float(len(sketch.support()))
        else:
            assert answer.value == float(len(sketch.estimates()))


def test_docs_support_table_is_the_registry_matrix():
    """docs/ARCHITECTURE.md's query support table has one row per
    registry name, and a ✓ exactly where the family declares the kind
    (— elsewhere)."""
    docs = pathlib.Path(__file__).resolve().parents[1] / "docs" / "ARCHITECTURE.md"
    lines = docs.read_text(encoding="utf-8").splitlines()
    header = next(
        i for i, line in enumerate(lines) if line.startswith("| registry name |")
    )

    def cells(line):
        return [cell.strip().strip("`") for cell in line.strip("|").split("|")]

    kinds = [QueryKind(cell) for cell in cells(lines[header])[1:]]
    assert set(kinds) == set(QueryKind)
    documented = {}
    for line in lines[header + 2:]:
        if not line.startswith("|"):
            break
        name, *marks = cells(line)
        assert len(marks) == len(kinds), line
        assert all(mark.startswith(("✓", "—")) for mark in marks), line
        documented[name] = frozenset(
            kind for kind, mark in zip(kinds, marks) if mark.startswith("✓")
        )
    assert documented == registry.support_matrix()


class TestDispatchSemantics:
    def test_moment_answer_resolves_order(self, processed):
        answer = processed["pstable-fp"].query(Moment())
        assert answer.p == processed["pstable-fp"].p
        fixed = processed["ams"].query(Moment(2.0))
        assert fixed.p == 2.0

    def test_fixed_order_sketch_rejects_other_orders(self, processed):
        with pytest.raises(ValueError, match="p=2"):
            processed["ams"].query(Moment(1.0))
        with pytest.raises(ValueError):
            processed["heavy-hitters"].query(Moment(0.5))

    def test_unsupported_error_is_typed_and_informative(self, processed):
        with pytest.raises(UnsupportedQueryError, match="point"):
            processed["kmv"].query(PointQuery(1))
        # It is a TypeError, so legacy except-clauses still catch it.
        with pytest.raises(TypeError):
            processed["kmv"].query(PointQuery(1))

    def test_reservoir_supports_nothing(self, processed):
        assert processed["reservoir"].supports == frozenset()
        for probe in PROBES.values():
            with pytest.raises(UnsupportedQueryError):
                processed["reservoir"].query(probe)

    def test_queries_are_immutable(self):
        query = PointQuery(7)
        with pytest.raises(Exception):
            query.item = 8

    def test_queries_are_pure_reads(self, processed):
        sketch = processed["misra-gries"]
        before = sketch.state_changes
        sketch.query(AllEstimates())
        sketch.query(HeavyHitters(0.1))
        sketch.query(PointQuery(0))
        assert sketch.state_changes == before

    @pytest.mark.parametrize("name", ["misra-gries", "space-saving"])
    def test_summary_heavy_hitters_have_no_false_negatives(self, name):
        # Misra-Gries underestimates by up to m/k, so its report
        # threshold must be (phi - 1/k)*m, not phi*m; SpaceSaving
        # overestimates and uses phi*m directly.  Either way every
        # true phi-heavy hitter must be reported.
        from repro.streams import FrequencyVector

        stream = zipf_stream(N, 2048, skew=1.2, seed=1)
        truth = FrequencyVector.from_stream(stream)
        sketch = registry.create(name, n=N, m=2048, epsilon=0.3, seed=1)
        sketch.process_many(stream)
        phi = 1.0 / sketch.k
        true_heavy = {
            item
            for item in truth.support
            if truth[item] >= phi * len(stream)
        }
        reported = set(sketch.query(HeavyHitters(phi)).values)
        assert true_heavy <= reported

    def test_supporting_enumerates_without_probes(self):
        point_capable = registry.supporting(QueryKind.POINT)
        assert "count-min" in point_capable
        assert "kmv" not in point_capable
        assert registry.supporting(
            QueryKind.POINT, QueryKind.HEAVY_HITTERS
        ) == ["heavy-hitters", "misra-gries", "space-saving"]
        matrix = registry.support_matrix()
        assert set(matrix) == set(registry.names())
        assert matrix["entropy"] == frozenset({QueryKind.ENTROPY})
