"""Reproducible random-number streams.

Batch divisions, Brownian increments (``noise``, Langevin thermostat noise
included), Andersen collisions (``thermostat``) and Monte Carlo proposals
(``proposal``, which also feeds the Random Batch Ewald frequency draws) each
get their own substream so that they are mutually independent and results do
not depend on evaluation order.  A stream is addressed by
``(seed, stream_id)``; identical addresses produce bit-identical sequences.
"""

from dataclasses import dataclass

import numpy as np

# Fixed substream labels.  Replica r uses ``base + STRIDE * r``.
DIVISION = 0
NOISE = 1
THERMOSTAT = 2
PROPOSAL = 3
INIT = 4
STRIDE = 16


@dataclass(frozen=True)
class RngStream:
    """Address of one logical random stream."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.default_rng(ss)


_LABELS = {"division": DIVISION, "noise": NOISE, "thermostat": THERMOSTAT,
           "proposal": PROPOSAL, "init": INIT}


class SimStreams:
    """The bundle of generators one simulation (or one replica) consumes.

    Each generator is built on the first access of its attribute and then
    kept, so a run builds only the streams it draws from; a stream's draws do
    not depend on when, or in what order, the streams are first accessed.
    """

    def __init__(self, seed: int, replica: int = 0):
        self.seed = seed
        self.replica = replica

    def __getattr__(self, name: str) -> np.random.Generator:
        # reached only while the attribute is unset: the stream's first access
        if name not in _LABELS:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        gen = RngStream(self.seed, STRIDE * self.replica + _LABELS[name]).generator()
        setattr(self, name, gen)
        return gen
