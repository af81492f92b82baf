"""Classical streaming baselines (the Table 1 competitors).

All write to their memory on (nearly) every update, so their state-
change count is ``Theta(m)``; the experiment suite audits this against
the paper's ``Õ(n^{1-1/p})`` algorithms on the shared tracked-memory
substrate.
"""

from repro.baselines.ams import AMSSketch
from repro.baselines.count_min import CountMin
from repro.baselines.count_min_morris import CountMinMorris
from repro.baselines.count_sketch import CountSketch
from repro.baselines.exact import ExactFrequencyCounter
from repro.baselines.misra_gries import MisraGries
from repro.baselines.reservoir import ReservoirSampler
from repro.baselines.space_saving import SpaceSaving

__all__ = [
    "AMSSketch",
    "CountMin",
    "CountMinMorris",
    "CountSketch",
    "ExactFrequencyCounter",
    "MisraGries",
    "ReservoirSampler",
    "SpaceSaving",
]
