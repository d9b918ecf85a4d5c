"""The traced run: per-layer metrics for one workload.

It runs, in one process:

1. one untraced episode, the base for ``trace.overhead``, the raw timings
   and the step-time tail;
2. one episode with every public library function wrapped (see
   ``tracing.py``), from which the per-layer times and counts come;
3. a short ``tracemalloc`` pass for the allocation peaks, kept apart
   because tracing allocations slows the interpreted loops several-fold;
4. the workload's config once through ``runner.run``;
5. the import time of ``randbatch.runner`` in a fresh interpreter;
6. the scaling ratios of the steppers this workload runs.

A layer that the workload bypasses reports 0.  ``pairs`` counts the pairs
inside the layer's cutoff with a periodic ``cKDTree`` oracle on the states the
traced episode saw (unordered pairs; for ``division_forces`` the batch pairs of
its first ``DIVISION_SAMPLE`` calls, which bounds the memory the hook holds);
``ns_per_pair`` divides the layer's time per call by ``max(pairs per call, 1)``,
so a loop that finds no pair reports its whole call time.
"""

import copy
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

import randbatch
from randbatch import ewald, integrators, models, runner
from randbatch.rng import SimStreams
from randbatch.state import ParticleState

import measure
import probe as probe_mod
import tracing
from workloads import WORKLOADS, Episode

# (name, unit, better): every metric the traced run reports, in order.
PER_LAYER = [
    ("ewald.real_space_force_all.ms", "ms", "lower"),
    ("ewald.real_space_force_all.pairs", "count", "higher"),
    ("ewald.real_space_force_all.ns_per_pair", "ns", "lower"),
    ("models.ElectrolyteModel.lj_force.ms", "ms", "lower"),
    ("models.ElectrolyteModel.lj_force.pairs", "count", "higher"),
    ("models.ElectrolyteModel.lj_force.ns_per_pair", "ns", "lower"),
    ("forces.short_range_force_all.ms", "ms", "lower"),
    ("forces.short_range_force_all.pairs", "count", "higher"),
    ("forces.short_range_force_all.ns_per_pair", "ns", "lower"),
    ("ewald.rbe_force_all.ms", "ms", "lower"),
    ("ewald.rbe_fourier_energy.ms", "ms", "lower"),
    ("ewald.mh_sample_kvectors.ms", "ms", "lower"),
    ("ewald.kbank.drawn", "count", "lower"),
    ("ewald.kbank.refills", "count", "lower"),
    ("ewald.kbank.acceptance", "ratio", "higher"),
    ("ewald.rbe_md_step.self_ms", "ms", "lower"),
    ("thermostats.apply_andersen.ms", "ms", "lower"),
    ("thermostats.andersen.collisions_per_step", "count", "lower"),
    ("batching.random_division.ms", "ms", "lower"),
    ("batching.batch_index_matrices.ms", "ms", "lower"),
    ("forces.division_forces.self_ms", "ms", "lower"),
    ("forces.division_forces.pairs", "count", "higher"),
    ("forces.division_forces.ns_per_pair", "ns", "lower"),
    ("integrators.rbm_step_first_order.self_ms", "ms", "lower"),
    ("integrators.rbm_split_step.self_ms", "ms", "lower"),
    ("state.ParticleState.constructions_per_step", "count", "lower"),
    ("state.ParticleState.ms", "ms", "lower"),
    ("diagnostics.radial_net_charge.ms_per_frame", "ms", "lower"),
    ("ewald.fourier_energy.ms", "ms", "lower"),
    ("ewald.fourier_force_exact_all.ms", "ms", "lower"),
    ("diagnostics.wasserstein1_1d.ms", "ms", "lower"),
    ("forces.division_forces.peak_alloc_mb", "MB", "lower"),
    ("ewald.real_space_force_all.peak_alloc_mb", "MB", "lower"),
    ("forces.short_range_force_all.peak_alloc_mb", "MB", "lower"),
    ("diagnostics.radial_net_charge.peak_alloc_mb", "MB", "lower"),
    ("runner.run.s", "s", "lower"),
    ("import_s", "s", "lower"),
    ("loop.step_ms_tail", "ms", "lower"),
    ("loop.step_tail_pct", "%", "higher"),
    ("loop.step_samples", "count", "higher"),
    ("probe.ms", "ms", "lower"),
    ("raw.setup_s", "s", "lower"),
    ("raw.step_ms", "ms", "lower"),
    ("raw.particle_steps_per_s", "1/s", "higher"),
    ("raw.analysis_s", "s", "lower"),
    ("raw.run_s", "s", "lower"),
    ("invariants.momentum_max", "force", "lower"),
    ("invariants.mean_wealth_rel_drift", "ratio", "lower"),
    ("invariants.mean_T", "kT", "higher"),
    ("trace.overhead", "ratio", "lower"),
    ("scaling.rbm_first_order.ratio_2N", "ratio", "lower"),
    ("scaling.direct.ratio_2N", "ratio", "lower"),
    ("scaling.rbe_md_step.ratio_2N", "ratio", "lower"),
]

DIVISION_SAMPLE = 100

PEAK_NAMES = ("forces.division_forces", "ewald.real_space_force_all",
              "forces.short_range_force_all", "diagnostics.radial_net_charge")

# Per workload: (stepper key, sizes, steps per block, blocks per size).
SCALING = {
    "wealth-rbm": [("rbm_first_order", None, 40, 8), ("direct", (1000, 2000), 4, 6)],
    "electrolyte-rbe": [("rbe_md_step", None, 1, 3)],
    "lj-split": [],
}


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def pairs_within(positions: np.ndarray, box_length: float, cutoff: float) -> int:
    """Unordered pairs closer than ``cutoff`` under the minimum image."""
    pos = np.mod(positions, box_length)
    pos[pos >= box_length] = 0.0
    tree = cKDTree(pos, boxsize=box_length)
    return int((tree.count_neighbors(tree, cutoff) - len(pos)) // 2)


def batch_pairs(assignment: np.ndarray) -> int:
    sizes = np.bincount(assignment)
    return int(np.sum(sizes * (sizes - 1) // 2))


class PairRecorder:
    """Trace hooks that keep what the pair oracle needs, counted afterwards."""

    def __init__(self):
        self.geometry = {}   # span name -> [(positions copy, box, cutoff)]
        self.divisions = []
        self.collisions = []
        self.frames = []

    def install(self, tracer):
        def geom(name, get):
            self.geometry[name] = []
            tracer.hooks[name] = lambda a, k, r: self.geometry[name].append(get(a, k))

        geom("ewald.real_space_force_all", lambda a, k: (
            _arg(a, k, 0, "system").state.positions.copy(), _arg(a, k, 0, "system").L,
            _arg(a, k, 1, "params").r_c))
        geom("models.ElectrolyteModel.lj_force", lambda a, k: (
            _arg(a, k, 1, "state").positions.copy(), _arg(a, k, 0, "self").L,
            _arg(a, k, 0, "self").lj_cutoff))
        geom("forces.short_range_force_all", lambda a, k: (
            _arg(a, k, 0, "state").positions.copy(), _arg(a, k, 0, "state").box_length,
            _arg(a, k, 2, "r0")))
        def division(a, k, r):
            if len(self.divisions) < DIVISION_SAMPLE:
                self.divisions.append(_arg(a, k, 1, "division").assignment)

        tracer.hooks["forces.division_forces"] = division
        tracer.hooks["thermostats.apply_andersen"] = lambda a, k, r: self.collisions.append(
            int(np.any(r.velocities != _arg(a, k, 0, "state").velocities, axis=1).sum()))
        tracer.hooks["diagnostics.radial_net_charge"] = lambda a, k, r: self.frames.append(
            _n_frames(_arg(a, k, 0, "frames")))

    def pairs_per_call(self, name: str) -> float:
        if name == "forces.division_forces":
            counts = [batch_pairs(a) for a in self.divisions]
        else:
            counts = [pairs_within(*g) for g in self.geometry.get(name, [])]
        return float(np.mean(counts)) if counts else 0.0


def _n_frames(frames) -> int:
    frames = np.asarray(frames)
    return 1 if frames.ndim == 2 else frames.shape[0]


def _install_tracer(tracer):
    modules = tracing.library_modules(randbatch)
    tracer.wrap_public_functions(modules)
    tracer.wrap_method(ParticleState, "__init__", "state.ParticleState")
    tracer.wrap_method(models.ElectrolyteModel, "lj_force", "models.ElectrolyteModel.lj_force")
    tracer.wrap_method(ewald.KSampleBank, "refill", "ewald.KSampleBank.refill")


def _all_restored(snapshot) -> bool:
    return all(owner.__dict__.get(attr) is value for owner, attr, value in snapshot)


def _snapshot():
    owners = tracing.library_modules(randbatch) + [ParticleState, models.ElectrolyteModel,
                                                   ewald.KSampleBank]
    return [(o, a, v) for o in owners for a, v in list(vars(o).items()) if callable(v)]


def _median_step(ep, block, n_blocks, probe_kind) -> float:
    """Median probe-normalised seconds per step over ``n_blocks`` blocks."""
    samples = measure.Samples(probe_kind=probe_kind)
    ep.step_fn(ep)  # warm-up, untimed

    def run_block():
        for _ in range(block):
            ep.step_fn(ep)

    for _ in range(n_blocks):
        samples.timed(run_block, 1, "step", units=block)
    return 1e-3 * probe_mod.median(measure.step_ms_samples(samples))


def _direct_episode(N: int, seed: int):
    """Full-batch Euler-Maruyama on the wealth system, for the O(N^2) baseline."""
    model = models.WealthModel(N=N)
    streams = SimStreams(seed)
    system = model.system()

    def step(e):
        e.state = integrators.direct_step(e.state, system, 1e-3, streams)

    state = ParticleState(positions=model.initial(streams.init)[:, None])
    return Episode(state=state, steps=0, step_fn=step)


def scaling_ratios(wl, cfg) -> dict:
    out = {}
    for key, sizes, block, n_blocks in SCALING[wl.name]:
        times = []
        if key == "direct":
            for N in sizes:
                times.append(_median_step(_direct_episode(N, cfg["seed"]), block, n_blocks,
                                          wl.probe_kind))
        else:
            for factor in (1, 2):
                c = copy.deepcopy(cfg)
                c["model"]["N"] = cfg["model"]["N"] * factor
                if "L" in c["model"]:  # fixed density
                    c["model"]["L"] = cfg["model"]["L"] * factor ** (1.0 / 3.0)
                ep = wl.setup(c)
                ep.steps = 10**9  # no end-of-episode bookkeeping
                times.append(_median_step(ep, block, n_blocks, wl.probe_kind))
        out[f"scaling.{key}.ratio_2N"] = times[1] / times[0]
    return out


def import_seconds(root: Path) -> float:
    code = ("import time; t = time.perf_counter(); import randbatch.runner; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, cwd=str(root), check=True, timeout=120)
    return float(proc.stdout.strip().splitlines()[-1])


def runner_seconds(cfg, root: Path, samples) -> float:
    out = root / ".perfbench_out" / f"{cfg['name']}-{os.getpid()}"
    try:
        samples.timed(lambda: runner.run(cfg, out_root=out), kind="runner.run")
    finally:
        shutil.rmtree(out, ignore_errors=True)
        try:
            out.parent.rmdir()
        except OSError:
            pass
    return samples.normalised()[-1]


def _memory_pass(wl, cfg, traced_ep) -> dict:
    tracer = tracing.Tracer(peak_names=PEAK_NAMES)
    _install_tracer(tracer)
    tracemalloc.start()
    try:
        ep = wl.setup(cfg)
        for _ in range(2):
            ep.step_fn(ep)
        wl.analyse(traced_ep)
    finally:
        tracemalloc.stop()
        tracer.uninstall()
    return {f"{n}.peak_alloc_mb": tracer.peaks.get(n, 0.0) for n in PEAK_NAMES}


def traced_run(workload: str, seed: int, root: Path):
    """Returns ({metric: (value, unit)}, tally, raw probe times)."""
    wl = WORKLOADS[workload]
    cfg = wl.config(seed)
    tally = measure.Tally()
    m = {name: 0.0 for name, _, _ in PER_LAYER}

    base = measure.Samples(probe_kind=wl.probe_kind)
    res0 = measure.run_episode(wl, cfg, base, tally)
    if res0 is None:
        raise RuntimeError(f"untraced episode of {workload} failed")
    e2e = measure.summarise(base, 0.0)
    for key in ("setup_s", "step_ms", "particle_steps_per_s", "analysis_s", "run_s"):
        m[f"raw.{key}"] = e2e[key][2]
    pct, value, n = probe_mod.tail(measure.step_ms_samples(base))
    m["loop.step_ms_tail"], m["loop.step_tail_pct"], m["loop.step_samples"] = value, pct, n
    for k, v in wl.invariants(res0.episode, res0.results).items():
        m[f"invariants.{k}"] = v

    snapshot = _snapshot()
    tracer = tracing.Tracer()
    pairs = PairRecorder()
    traced = measure.Samples(probe_kind=wl.probe_kind)
    _install_tracer(tracer)
    pairs.install(tracer)
    try:
        res1 = measure.run_episode(wl, cfg, traced, tally, span=tracer.span)
    finally:
        tracer.uninstall()
    tally.record(_all_restored(snapshot), "trace wrappers removed after the traced pass")
    if res1 is None:
        raise RuntimeError(f"traced episode of {workload} failed")
    mismatch = tracer.subtree_mismatch("loop.step")
    tally.record(mismatch < 1e-9, f"step self times add up to the step span ({mismatch:.3g})")
    m["trace.overhead"] = measure.summarise(traced, 0.0)["run_s"][0] / e2e["run_s"][0]

    summ = tracer.summary()

    def mean_ms(name, kind="total"):
        row = summ.get(name)
        return 1e3 * row[kind] / row["calls"] if row and row["calls"] else 0.0

    for name in ("ewald.rbe_force_all", "ewald.rbe_fourier_energy", "ewald.mh_sample_kvectors",
                 "thermostats.apply_andersen", "batching.random_division",
                 "batching.batch_index_matrices", "state.ParticleState",
                 "ewald.fourier_energy", "ewald.fourier_force_exact_all",
                 "diagnostics.wasserstein1_1d"):
        m[f"{name}.ms"] = mean_ms(name)
    for name in ("ewald.rbe_md_step", "integrators.rbm_step_first_order",
                 "integrators.rbm_split_step"):
        m[f"{name}.self_ms"] = mean_ms(name, "self")
    for name, kind in (("ewald.real_space_force_all", "total"),
                       ("models.ElectrolyteModel.lj_force", "total"),
                       ("forces.short_range_force_all", "total"),
                       ("forces.division_forces", "self")):
        per_call = pairs.pairs_per_call(name)
        m[f"{name}.pairs"] = per_call
        m[f"{name}.{'self_ms' if kind == 'self' else 'ms'}"] = mean_ms(name, kind)
        m[f"{name}.ns_per_pair"] = 1e6 * mean_ms(name, kind) / max(per_call, 1.0)

    steps = summ.get("loop.step", {"calls": 0})["calls"]
    m["state.ParticleState.constructions_per_step"] = (
        tracer.count_within("loop.step", "state.ParticleState") / steps if steps else 0.0)
    if pairs.collisions:
        m["thermostats.andersen.collisions_per_step"] = float(np.mean(pairs.collisions))
    rnc = summ.get("diagnostics.radial_net_charge")
    if rnc and rnc["calls"]:
        m["diagnostics.radial_net_charge.ms_per_frame"] = 1e3 * rnc["total"] / sum(pairs.frames)
    bank = res1.episode.extra.get("bank")
    if bank is not None:
        m["ewald.kbank.drawn"] = bank.cursor
        m["ewald.kbank.refills"] = summ.get("ewald.KSampleBank.refill", {"calls": 0})["calls"]
        m["ewald.kbank.acceptance"] = float(
            np.any(bank.samples[1:] != bank.samples[:-1], axis=1).mean())

    m.update(_memory_pass(wl, cfg, res1.episode))
    extra = measure.Samples(probe_kind=wl.probe_kind)
    m["runner.run.s"] = runner_seconds(cfg, root, extra)
    m["import_s"] = import_seconds(root)
    m.update(scaling_ratios(wl, cfg))

    probes = base.probes + traced.probes + extra.probes
    m["probe.ms"] = 1e3 * probe_mod.median(probes)
    for name, value in m.items():
        if not math.isfinite(value):
            tally.record(False, f"metric {name} is not finite")
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {name: (float(m[name]), units[name]) for name, _, _ in PER_LAYER}, tally, probes
