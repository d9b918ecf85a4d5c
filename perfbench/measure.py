"""Probe-normalised timing of whole episodes.

An episode is one set-up, the config's steps and its analysis.  Every timed
piece (a block of set-ups, a block of steps, one analysis piece) gets its own
probe just before it, and garbage collection is paused inside it.  An
operation is a set-up block, a step block, an analysis repeat or an output
check; any exception, non-finite state or failed check counts it as failed.
"""

import gc
import math
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

import probe as probe_mod

# A piece is normalised by the mean of its own probe and this many on each side.
PROBE_HALF_WINDOW = 2


def _identity(name, fn):
    return fn


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def record(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


@dataclass
class Piece:
    """One timed piece of work and the probe that ran just before it."""

    kind: str     # "setup", "step", "analysis", or a label of the caller's
    episode: int
    group: int    # set-up block, step block or analysis repeat within the episode
    units: int    # set-ups, steps or calls the piece ran
    raw: float    # seconds
    probe: int    # index into Samples.probes


@dataclass
class Samples:
    """Timed pieces in the order they ran, with their probes."""

    probe_kind: str = "interpreted"
    probes: List[float] = field(default_factory=list)
    pieces: List[Piece] = field(default_factory=list)
    particles: int = 0
    episodes: int = 0

    def timed(self, fn: Callable, reps: int = 1, kind: str = "", group: int = 0,
              units: int = 1):
        """Probe, then run ``fn`` ``reps`` times as one piece; returns the last result."""
        self.probes.append(probe_mod.probe(self.probe_kind))
        gc.disable()
        t0 = time.perf_counter()
        try:
            for _ in range(reps):
                out = fn()
        finally:
            t1 = time.perf_counter()
            gc.enable()
        self.pieces.append(Piece(kind, self.episodes, group, units, t1 - t0,
                                 len(self.probes) - 1))
        return out

    def normalised(self) -> List[float]:
        """Each piece's seconds at the reference speed.

        A piece is divided by the mean of its own probe and the two probes on
        either side of it.  One 13 to 17 ms probe is noisier than the machine's drift
        over a 0.3 s piece; the mean of five, which span 1 to 2 s, still tracks
        the drift and gave wealth-rbm step sums about two thirds of the
        run-to-run spread that the single probe gave.
        """
        p, ref = self.probes, probe_mod.PROBE_REF_S[self.probe_kind]
        out = []
        for piece in self.pieces:
            i = piece.probe
            window = p[max(0, i - PROBE_HALF_WINDOW): i + PROBE_HALF_WINDOW + 1]
            out.append(probe_mod.normalise(piece.raw, sum(window) / len(window), ref))
        return out


@dataclass
class EpisodeResult:
    episode: object
    results: dict
    checks: list


def state_is_finite(state) -> bool:
    ok = bool(np.all(np.isfinite(state.positions)))
    if state.velocities is not None:
        ok = ok and bool(np.all(np.isfinite(state.velocities)))
    return ok


def fail(tally: Tally, what: str, exc: Optional[BaseException] = None):
    detail = f"{what}: {type(exc).__name__}: {exc}" if exc is not None else what
    tally.record(False, detail)
    if exc is not None:
        traceback.print_exception(exc)


def run_episode(wl, cfg: dict, samples: Samples, tally: Tally,
                span: Callable = _identity) -> Optional[EpisodeResult]:
    """Set up, step and analyse once; None if an operation failed on the way."""
    setup = span("loop.setup", lambda: wl.setup(cfg))
    ep = None
    for block in range(wl.setup_blocks):
        try:
            ep = samples.timed(setup, wl.setup_block, "setup", block, wl.setup_block)
        except Exception as exc:  # a failed operation is counted, not fatal
            fail(tally, "setup", exc)
            return None
        tally.record(True, "setup")
    samples.particles = wl.n_particles(cfg)

    step = span("loop.step", ep.step_fn)
    block = 0
    while ep.k < ep.steps:
        n = min(wl.step_block, ep.steps - ep.k)

        def run_block():
            for _ in range(n):
                step(ep)

        try:
            samples.timed(run_block, 1, "step", block, n)
        except Exception as exc:
            fail(tally, f"steps {ep.k}+", exc)
            return None
        if not state_is_finite(ep.state):
            fail(tally, f"non-finite state after step {ep.k}")
            return None
        tally.record(True, "steps")
        block += 1

    pieces = [span(f"loop.analysis.{name}", fn) for name, fn in wl.analysis_pieces(ep)]
    results: dict = {}
    for repeat in range(wl.analysis_repeats):
        try:
            for piece in pieces:
                results.update(samples.timed(piece, wl.analysis_block, "analysis", repeat,
                                             wl.analysis_block))
        except Exception as exc:
            fail(tally, "analysis", exc)
            return None
        tally.record(True, "analysis")

    try:
        checks = wl.checks(ep, results)
    except Exception as exc:
        fail(tally, "checks", exc)
        return None
    for c in checks:
        tally.record(c.ok, f"check {c.name} = {c.value!r}")
    samples.episodes += 1
    return EpisodeResult(episode=ep, results=results, checks=checks)


def run_episodes(wl, cfg: dict, seconds: float, samples: Samples, tally: Tally,
                 min_episodes: int = 2, max_episodes: int = 50) -> List[EpisodeResult]:
    """Episodes until ``seconds`` would be exceeded (at least ``min_episodes``).

    Every episode after the first is also checked to end in a final state
    byte-identical to the first one's, since all share the config's seed.
    """
    done: List[EpisodeResult] = []
    t0 = time.perf_counter()
    for n in range(1, max_episodes + 1):
        res = run_episode(wl, cfg, samples, tally)
        if res is None:
            break
        if done:
            same = res.episode.final_bytes() == done[0].episode.final_bytes()
            tally.record(same, "check final state identical to the first episode's")
        done.append(res)
        elapsed = time.perf_counter() - t0
        if n >= min_episodes and elapsed * (n + 1) / n > seconds:
            break
    return done


def summarise(samples: Samples, rss_mb: float) -> dict:
    """End-to-end metrics of the completed episodes: {name: (value, unit, raw)}."""
    med = probe_mod.median
    rows = [(pc, pc.raw, v) for pc, v in zip(samples.pieces, samples.normalised())
            if pc.episode < samples.episodes]

    def per_unit(kind, episode=None):
        """(raw, norm) seconds per unit, one pair per set-up or step block, or
        per analysis repeat (the sum of its pieces)."""
        groups = {}
        for pc, raw, norm in rows:
            if pc.kind == kind and episode in (None, pc.episode):
                r, v = groups.get((pc.episode, pc.group), (0.0, 0.0))
                groups[(pc.episode, pc.group)] = (r + raw / pc.units, v + norm / pc.units)
        return list(groups.values())

    def total(kind, episode=None):
        """(units, raw, norm) summed over every piece of ``kind``."""
        picked = [(pc.units, raw, norm) for pc, raw, norm in rows
                  if pc.kind == kind and episode in (None, pc.episode)]
        return tuple(sum(col) for col in zip(*picked)) if picked else (0, 0.0, 0.0)

    runs = []
    for e in range(samples.episodes):
        _, steps_raw, steps_norm = total("step", e)
        setup, analysis = per_unit("setup", e), per_unit("analysis", e)
        runs.append((med(r for r, _ in setup) + steps_raw + med(r for r, _ in analysis),
                     med(v for _, v in setup) + steps_norm + med(v for _, v in analysis)))
    setup, step, analysis = per_unit("setup"), per_unit("step"), per_unit("analysis")
    steps, steps_raw, steps_norm = total("step")
    pst = samples.particles * steps
    return {
        "setup_s": (med(v for _, v in setup), "s", med(r for r, _ in setup)),
        "step_ms": (1e3 * med(v for _, v in step), "ms", 1e3 * med(r for r, _ in step)),
        "particle_steps_per_s": (pst / steps_norm, "1/s", pst / steps_raw),
        "analysis_s": (med(v for _, v in analysis), "s", med(r for r, _ in analysis)),
        "run_s": (med(v for _, v in runs), "s", med(r for r, _ in runs)),
        "peak_rss_mb": (rss_mb, "MB", rss_mb),
    }


def step_ms_samples(samples: Samples) -> List[float]:
    """Normalised milliseconds per step, one value per step block."""
    return [1e3 * v / pc.units for pc, v in zip(samples.pieces, samples.normalised())
            if pc.kind == "step"]


def finite_metrics(metrics: dict) -> bool:
    return all(math.isfinite(v) and v > 0 for v, _, _ in metrics.values())
