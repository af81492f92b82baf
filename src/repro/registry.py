"""Name → factory registry of every streaming algorithm in the library.

The CLI, the experiment harness, and the sharded runtime all construct
sketches through this registry so that algorithm names, default sizing
rules, and mergeability are defined in exactly one place.  Every
factory takes the same keyword signature::

    create("count-min", n=4096, m=65536, epsilon=0.1, seed=0)

where ``n``/``m`` are the universe-size/stream-length hints, ``epsilon``
the target accuracy, and ``seed`` the randomness seed.  Factories that
ignore a hint (e.g. ``exact``) simply drop it.

The registry also maps serialized state back to classes:
:func:`sketch_class` resolves the ``"algorithm"`` field written by
:meth:`~repro.state.algorithm.Sketch.to_state`, which is how
:class:`~repro.runtime.checkpoint.Checkpoint` restores sketches without
the caller naming the type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.baselines import (
    AMSSketch,
    CountMin,
    CountMinMorris,
    CountSketch,
    ExactFrequencyCounter,
    MisraGries,
    ReservoirSampler,
    SpaceSaving,
)
from repro.core import (
    FullSampleAndHold,
    HeavyHitters,
    SparseSupportRecovery,
)
from repro.core.adaptive import AdaptiveFullSampleAndHold
from repro.core.distinct import KMVDistinctElements
from repro.core.entropy import EntropyEstimator
from repro.core.fp_pstable import PStableFpEstimator
from repro.query import QueryKind
from repro.state.algorithm import Sketch
from repro.state.tracker import TrackerBackend

#: Factory signature shared by every registry entry.
SketchFactory = Callable[..., Sketch]


@dataclass(frozen=True)
class SketchSpec:
    """One registered algorithm: its name, class, and default factory.

    ``supports`` surfaces the class's query-capability declaration
    (see :mod:`repro.query`) so callers can enumerate which sketches
    answer which query kinds without constructing or probing one.
    """

    name: str
    cls: type
    factory: SketchFactory
    mergeable: bool
    supports: frozenset[QueryKind]
    summary: str


_SPECS: dict[str, SketchSpec] = {}
_CLASSES: dict[str, type] = {}


def register(
    name: str, cls: type, factory: SketchFactory, summary: str = ""
) -> None:
    """Add an algorithm to the registry (rejects duplicate names)."""
    if name in _SPECS:
        raise ValueError(f"algorithm {name!r} is already registered")
    _SPECS[name] = SketchSpec(
        name=name,
        cls=cls,
        factory=factory,
        mergeable=bool(getattr(cls, "mergeable", False)),
        supports=frozenset(getattr(cls, "supports", frozenset())),
        summary=summary,
    )
    _CLASSES[cls.__name__] = cls


def names() -> list[str]:
    """Sorted names of every registered algorithm."""
    return sorted(_SPECS)


def mergeable_names() -> list[str]:
    """Sorted names of the algorithms that support :meth:`Sketch.merge`."""
    return sorted(s.name for s in _SPECS.values() if s.mergeable)


def supporting(*kinds: QueryKind) -> list[str]:
    """Sorted names of the algorithms answering every given query kind."""
    wanted = frozenset(kinds)
    return sorted(
        s.name for s in _SPECS.values() if wanted <= s.supports
    )


def support_matrix() -> dict[str, frozenset[QueryKind]]:
    """name → declared query kinds for every registered algorithm."""
    return {name: _SPECS[name].supports for name in names()}


def spec(name: str) -> SketchSpec:
    """Look up one registered algorithm by name."""
    try:
        return _SPECS[name]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {name!r}; choose from {names()}"
        ) from None


def create(
    name: str,
    n: int = 4096,
    m: int = 65536,
    epsilon: float = 0.5,
    seed: int = 0,
    tracker: TrackerBackend | None = None,
) -> Sketch:
    """Build a fresh sketch by registry name with uniform sizing hints.

    ``tracker`` selects the accounting backend the sketch runs on (see
    :func:`repro.state.tracker.make_tracker`); ``None`` keeps each
    class's default — the full-trace ``StateTracker``.
    """
    return spec(name).factory(
        n=n, m=m, epsilon=epsilon, seed=seed, tracker=tracker
    )


def sketch_class(state_name: str) -> type:
    """Resolve a serialized ``"algorithm"`` class name back to its class."""
    try:
        return _CLASSES[state_name]
    except KeyError:
        raise KeyError(
            f"unknown sketch class {state_name!r}; known: "
            f"{sorted(_CLASSES)}"
        ) from None


# ----------------------------------------------------------------------
# Registrations (the CLI's historical sizing rules, now shared)
# ----------------------------------------------------------------------
register(
    "heavy-hitters",
    HeavyHitters,
    lambda n, m, epsilon, seed, tracker=None: HeavyHitters(
        n=n, m=m, p=2, epsilon=epsilon, seed=seed, tracker=tracker,
        inner_kwargs={"repetitions": 1},
    ),
    "Lp heavy hitters with few state changes (Theorem 1.1)",
)
register(
    "sample-and-hold",
    FullSampleAndHold,
    lambda n, m, epsilon, seed, tracker=None: FullSampleAndHold(
        n=n, m=m, p=2, epsilon=epsilon, seed=seed, repetitions=1,
        tracker=tracker,
    ),
    "Algorithm 2: level grid of SampleAndHold instances",
)
register(
    "adaptive-sample-and-hold",
    AdaptiveFullSampleAndHold,
    lambda n, m, epsilon, seed, tracker=None: AdaptiveFullSampleAndHold(
        n=n, p=2, epsilon=epsilon, seed=seed, tracker=tracker,
    ),
    "Algorithm 2 with the doubling trick for unknown stream length",
)
register(
    "misra-gries",
    MisraGries,
    lambda n, m, epsilon, seed, tracker=None: MisraGries(
        k=max(2, int(2 / epsilon)), tracker=tracker
    ),
    "deterministic heavy hitters, Theta(m) state changes",
)
register(
    "space-saving",
    SpaceSaving,
    lambda n, m, epsilon, seed, tracker=None: SpaceSaving(
        k=max(1, int(2 / epsilon)), tracker=tracker
    ),
    "top-k overestimating counters, Theta(m) state changes",
)
register(
    "count-min",
    CountMin,
    lambda n, m, epsilon, seed, tracker=None: CountMin.for_accuracy(
        epsilon, seed=seed, tracker=tracker
    ),
    "classic CountMin sketch (linear, mergeable)",
)
register(
    "count-min-morris",
    CountMinMorris,
    lambda n, m, epsilon, seed, tracker=None: CountMinMorris.for_accuracy(
        epsilon, seed=seed, tracker=tracker,
    ),
    "CountMin with Morris-counter cells (ablation A4)",
)
register(
    "count-sketch",
    CountSketch,
    lambda n, m, epsilon, seed, tracker=None: CountSketch.for_accuracy(
        max(0.2, epsilon), seed=seed, tracker=tracker
    ),
    "classic CountSketch (linear, mergeable)",
)
register(
    "ams",
    AMSSketch,
    lambda n, m, epsilon, seed, tracker=None: AMSSketch.for_accuracy(
        max(0.25, epsilon), seed=seed, tracker=tracker
    ),
    "AMS F2 estimator (linear, mergeable)",
)
register(
    "exact",
    ExactFrequencyCounter,
    lambda n, m, epsilon, seed, tracker=None: ExactFrequencyCounter(tracker=tracker),
    "exact dictionary counts: zero error, m state changes",
)
register(
    "kmv",
    KMVDistinctElements,
    lambda n, m, epsilon, seed, tracker=None: KMVDistinctElements.for_accuracy(
        max(0.05, epsilon / 4), seed=seed, tracker=tracker
    ),
    "k-minimum-values distinct elements (mergeable)",
)
register(
    "pstable-fp",
    PStableFpEstimator,
    lambda n, m, epsilon, seed, tracker=None: PStableFpEstimator(
        p=1.0, epsilon=max(0.2, epsilon), seed=seed, tracker=tracker,
    ),
    "p-stable Fp sketch on Morris counters (Theorem 3.2)",
)
register(
    "entropy",
    EntropyEstimator,
    lambda n, m, epsilon, seed, tracker=None: EntropyEstimator(
        m=max(2, m), epsilon=min(1.0, max(0.1, epsilon)), seed=seed,
        tracker=tracker,
    ),
    "Shannon entropy via interpolated moments (Theorem 3.8)",
)
register(
    "reservoir",
    ReservoirSampler,
    lambda n, m, epsilon, seed, tracker=None: ReservoirSampler(
        k=max(1, int(2 / epsilon)), seed=seed, tracker=tracker
    ),
    "uniform reservoir sample (Algorithm R)",
)
register(
    "support-recovery",
    SparseSupportRecovery,
    lambda n, m, epsilon, seed, tracker=None: SparseSupportRecovery(
        k=max(1, int(1 / epsilon)), tracker=tracker
    ),
    "exact support of k-sparse streams",
)
