"""Config-driven experiment execution.

A YAML config describes one experiment: a model, a method, run parameters,
an optional thermostat, output settings and a list of diagnostics.

``MODELS`` is the registry behind both halves of this module.  For each model
it gives the model fields, the run fields and thermostat kinds the model
honours with their defaults, its state builder, one stepper per method, the
observable it records along the run and its final metrics.

``validate`` builds its schema from the registry.  It applies and echoes
every default, and a field that the chosen model, method or thermostat kind
does not use is rejected, never silently ignored.  It then builds replica 0,
so the range checks of model fields live only in the constructors the
builders call, and a config that validates builds.  ``run`` executes a
resolved config replica by replica.  ``_simulate`` is the one loop that steps
a model: it builds a replica, steps it with its per-step hooks (wealth
reflection, thermostats, the electrolyte's energy log, the 1e6 bound on the
Stein flow and the RBMC chain) and records every ``record_every`` steps past
the warmup, and the model's ``finish`` turns the result into metrics; the
toy's convergence study runs its coupled pairs through it too.  Dyson's RBMC
chain counts its run in moves, ``run.sweeps``, and a loop step advances it by
one block of them (``_loop_length``).  One step and its hooks are
``_take_step``, which ``ewald.rbe_md_step`` calls too.  ``run`` writes
``config.resolved.yaml``, ``metrics.json`` and ``log.txt`` into the output
directory, and the CSV artifacts there too for one replica; with
``run.replicas`` > 1, replica r writes its CSVs into ``replica<r>/`` under it.
The resolved config validates to itself, so a run repeats from its echo.
A rerun into the same directory first removes those files of the earlier run.
Identical (config, seed) pairs produce byte-identical metrics.
Without ``method`` a config runs its model's first: ``rbm`` for wealth,
cucker-smale and consensus, ``direct`` for the toy, and every other model's one.
``metrics.json`` is strict JSON: a run whose metrics hold a NaN or an
infinity fails with their key paths and writes no ``metrics.json``.
"""

import json
import math
import re
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np
import yaml

from . import __version__
from .backend import set_blas_threads
from .diagnostics import radial_net_charge, wasserstein1_1d
from .ewald import (
    CoulombSystem,
    EwaldParams,
    PeriodicChargeSystem,
    cube_m_max,
    fourier_energy,
    fourier_force_exact_all,
    mh_sample_kvectors,
    rbe_force_all,
    real_space_force_all,
)
from .integrators import (
    IntegrationError,
    SecondOrderSystem,
    direct_step,
    rbm_step_first_order,
    rbmr_step,
)
from .models import (
    ConsensusModel,
    CuckerSmaleModel,
    DysonModel,
    ElectrolyteModel,
    WealthModel,
    consensus_functionals,
    cubic_lattice,
    dh_kappa,
    flocking_functionals,
    lj_kernel_spec,
    semicircle_cdf,
    semicircle_density,
    toy_lipschitz_system,
)
from .rng import SimStreams
from .samplers import GaussianKernel, MarkovChainStats, run_log_gas_chain, stein_system
from .state import ParticleState
from .thermostats import Andersen, Langevin, NoseHoover, apply_andersen


class ConfigError(ValueError):
    """Schema violation; carries one message per offending field."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {e}" for e in self.errors))


# --- the registry: builders, steppers, observables and metrics --------------
#
# A builder makes one replica's ``sim`` namespace: the model's ``state`` plus
# ``streams``, the batch size ``p``, the recorded ``rows``, the per-step
# ``hooks``, and, for the ``integrators`` steppers in ``_STEPPERS``, the
# ``system`` they step.  After step k of size dt each hook(sim, k, dt) runs in
# order: it may replace ``sim.state``, adjust the system, log, or stop the run
# with an ``IntegrationError``.


@dataclass(frozen=True)
class ModelSpec:
    """One model: its schema and how the shared loop runs it.

    ``run`` lists the run fields the model honours with their defaults (a
    callable default is worked out from the resolved section).  ``steppers``
    maps each method, the default first, to ``step(sim, k, dt) -> state``:
    the ``integrators`` steppers of ``_STEPPERS``, or dyson's one block of
    RBMC moves.
    ``observe(sim, k)`` gives the row recorded every ``record_every`` steps
    past the warmup, and before the first step when ``observe_start`` is set;
    ``finish(sim, cfg, outdir)`` writes the model's CSVs and returns its metrics.
    ``positive`` names the model fields that must be positive numbers; one
    whose default is None may also be left unset.
    """

    fields: dict
    run: dict
    steppers: dict
    diagnostics: tuple
    build: Callable
    finish: Callable
    observe: Optional[Callable] = None
    observe_start: bool = False
    thermostats: tuple = ()
    output: tuple = ("directory",)
    positive: tuple = ()


def _sim(cfg, streams, **fields) -> SimpleNamespace:
    return SimpleNamespace(**{"streams": streams, "p": cfg["run"].get("p"), "rows": [],
                              "hooks": [], **fields})


def _thermostat(t: dict):
    kind = {"andersen": Andersen, "langevin": Langevin, "nose-hoover": NoseHoover}.get(t["kind"])
    return kind(**{k: v for k, v in t.items() if k != "kind"}) if kind else None


_STEPPERS = {
    "direct": lambda s, k, dt: direct_step(s.state, s.system, dt, s.streams),
    "rbm": lambda s, k, dt: rbm_step_first_order(s.state, s.system, s.p, dt, s.streams),
    "rbm-r": lambda s, k, dt: rbmr_step(s.state, s.system, s.p, dt, s.streams),
}


def _first_coordinates(sim, k):
    """(k, every particle's first coordinate): the toy's rows and the chain's samples."""
    return k, sim.state.positions[:, 0].copy()


def _build_toy(cfg, streams):
    m = cfg["model"]
    state = ParticleState(positions=streams.init.standard_normal((m["N"], 1)))
    return _sim(cfg, streams, state=state, system=toy_lipschitz_system(m["N"], sigma=m["sigma"]))


def _finish_toy(sim, cfg, outdir):
    _write_samples_csv(outdir / "samples.csv", sim.rows)
    x = sim.state.positions
    metrics = {"final_mean": float(x.mean()), "final_second_moment": float(np.mean(x**2))}
    if "convergence" in cfg["diagnostics"]:
        metrics["convergence"] = _toy_convergence_study(cfg)
    return metrics


def _toy_convergence_study(cfg, dts=(0.1, 0.05, 0.025), T=1.0, replicas=200, p=2):
    """Coupled strong error of RBM vs the full-batch reference at several dt: pair r
    runs ``direct`` and ``rbm`` through ``_simulate`` on the streams of replica 2r,
    so both start from one draw and share the noise."""
    errors = {}
    for dt in dts:
        run = {"p": p, "dt": dt, "steps": int(round(T / dt)), "replicas": 1}
        sup_sq = 0.0
        for rep in range(replicas):
            a, b = (_simulate({**cfg, "method": method, "run": run},
                              SimStreams(cfg["seed"], replica=2 * rep)).rows
                    for method in ("direct", "rbm"))
            sup_sq += np.array([float(np.mean((xa - xb) ** 2)) for (_, xa), (_, xb) in zip(a, b)])
        errors[dt] = float(np.sqrt((sup_sq / replicas).max()))
    dts_sorted = sorted(errors, reverse=True)
    slopes = [math.log2(errors[hi] / errors[lo]) for hi, lo in zip(dts_sorted, dts_sorted[1:])]
    return {"errors": {str(k): v for k, v in errors.items()}, "slopes": slopes}


def _build_wealth(cfg, streams):
    m = cfg["model"]
    model = WealthModel(N=m["N"], kappa=m["kappa"], D=m["D"])
    state = ParticleState(positions=model.initial(streams.init)[:, None])
    return _sim(cfg, streams, model=model, system=model.system(), state=state,
                reflections=0, hooks=[_reflect_wealth])


def _reflect_wealth(sim, k, dt):
    """Reflect zero crossings back to positive wealth, counting them."""
    neg = sim.state.positions <= 0
    if np.any(neg):
        sim.reflections += int(neg.sum())
        sim.state = sim.state.replace(positions=np.abs(sim.state.positions))


def _finish_wealth(sim, cfg, outdir):
    wealth = sim.state.positions[:, 0]
    _write_samples_csv(outdir / "samples.csv", [(_n_steps(cfg["run"]), wealth)])
    metrics = {"mean_wealth": float(wealth.mean()), "reflections": sim.reflections,
               "positive_fraction": float(np.mean(wealth > 0))}
    if "w1_equilibrium" in cfg["diagnostics"]:
        metrics["w1_equilibrium"] = wasserstein1_1d(
            wealth, sim.model.equilibrium_cdf, support=(0.0, max(60.0, wealth.max() * 2))
        )
    return metrics


def _build_dyson(cfg, streams):
    m = cfg["model"]
    model = DysonModel(N=m["N"], split_radius=m["split_radius"], m=m["m"])
    x = model.initial(streams.init).tolist()
    return _sim(cfg, streams, model=model, state=ParticleState(positions=np.array(x)[:, None]),
                x=x, ordered=sorted(x), stats=MarkovChainStats(), hooks=[_stop_far],
                sweeps=cfg["run"]["sweeps"], block=_block(cfg["run"]))


def _step_dyson(sim, k, dt):
    """Block k of the RBMC chain: ``sim.block`` moves, or what is left of run.sweeps."""
    run_log_gas_chain(sim, min(sim.block, sim.sweeps - (k - 1) * sim.block), dt,
                      sim.streams.proposal)
    return ParticleState(positions=np.array(sim.x)[:, None])


def _finish_dyson(sim, cfg, outdir):
    pooled = np.concatenate([x for _, x in sim.rows])
    _write_samples_csv(outdir / "samples.csv", [(sim.sweeps, pooled)])
    metrics = {"acceptance_rate": sim.stats.acceptance_rate, "pooled_samples": int(pooled.size),
               "clamp_count": sim.stats.clamp_count}
    if "w1_semicircle" in cfg["diagnostics"]:
        metrics["w1_semicircle"] = wasserstein1_1d(pooled, semicircle_cdf, support=(-2.0, 2.0))
    if "density_at_zero" in cfg["diagnostics"]:
        halfwidth = 0.1
        frac = float(np.mean(np.abs(pooled) < halfwidth))
        metrics["density_at_zero"] = frac / (2 * halfwidth)
        metrics["density_at_zero_reference"] = float(semicircle_density(0.0))
    return metrics


def _build_flocking(cfg, streams):
    m = cfg["model"]
    model = CuckerSmaleModel(N=m["N"], kappa=m["kappa"], beta=m["beta"], dim=m["dim"])
    return _sim(cfg, streams, system=model.system(), state=model.initial(streams.init),
                dt=float(cfg["run"]["dt"]))


def _finish_flocking(sim, cfg, outdir):
    _write_csv(outdir / "functionals.csv", ("time", "x_spread", "v_spread"), sim.rows)
    metrics = {}
    if "flocking_decay" in cfg["diagnostics"]:
        _, xs, vs = np.array(sim.rows).T
        skip = max(int(0.05 * len(vs)), 1)
        tail = vs[skip:]
        metrics["v_spread_monotone_after_transient"] = bool(np.all(np.diff(tail) <= 0))
        metrics["v_spread_decades"] = float(np.log10(vs[0] / max(tail[-1], 1e-300)))
        at10 = xs[max(int(0.10 * len(vs)), 1)]
        metrics["x_spread_sup_ratio"] = float(xs.max() / at10)
    return metrics


def _build_consensus(cfg, streams):
    m = cfg["model"]
    model = ConsensusModel(N=m["N"], kappa=m["kappa"], dim=m["dim"], nu=m["nu"])
    return _sim(cfg, streams, model=model, system=model.system(),
                state=model.initial(streams.init), dt=float(cfg["run"]["dt"]))


def _finish_consensus(sim, cfg, outdir):
    _write_csv(outdir / "functionals.csv", ("time", "m2", "diameter"), sim.rows)
    metrics = {}
    if "consensus_decay" in cfg["diagnostics"]:
        _, m2, diameter = np.array(sim.rows).T
        metrics["m2_final_over_initial"] = float(m2[-1] / m2[0])
        metrics["diameter_final_over_initial"] = float(diameter[-1] / diameter[0])
    if "reconstruction" in cfg["diagnostics"]:
        sim.model.check_decomposition()
        metrics["reconstruction_ok"] = True
    return metrics


def _couple(t, state):
    """(gamma, sigma, hooks): thermostat ``t`` as a second-order system's
    friction and noise and the hooks after each step, for a run from ``state``."""
    if isinstance(t, Langevin):
        return t.gamma, t.sigma, []
    if isinstance(t, Andersen):
        def andersen(sim, k, dt):
            sim.state = apply_andersen(sim.state, t.nu, t.temperature, dt, sim.streams.thermostat)
        return 0.0, 0.0, [andersen]
    if not isinstance(t, NoseHoover):
        return 0.0, 0.0, []
    kinetic_sum = float(np.sum(state.velocities * state.velocities))

    def nose_hoover(sim, k, dt):
        """The next kick's friction is xi + dt / Q (sum v^2 - d N / beta), with v from
        the state the step started from: ``state``, then the one the last step ended on."""
        nonlocal kinetic_sum
        st = sim.state
        t.xi = sim.system.gamma = t.xi + dt / t.Q * (kinetic_sum - st.dim * st.n_particles / t.beta)
        kinetic_sum = float(np.sum(st.velocities * st.velocities))

    return t.xi, 0.0, [nose_hoover]


def _build_lj(cfg, streams):
    m = cfg["model"]
    N = m["N"]
    L = (N / m["density"]) ** (1.0 / 3.0)
    if m["split_radius"] >= L / 2:
        raise ValueError(f"split_radius must be below L/2 = {L / 2:g}, L = (N / density)^(1/3)")
    kernel = lj_kernel_spec(m["sigma"], m["epsilon"], m["split_radius"])
    pos, _ = cubic_lattice(N, L)
    vel = math.sqrt(1.0 / m["beta"]) * streams.init.standard_normal((N, 3))
    state = ParticleState(positions=pos, velocities=vel, box_length=L)
    gamma, sigma, hooks = _couple(_thermostat(cfg["thermostat"]), state)
    system = SecondOrderSystem(kernel=kernel, alpha_N=1.0, gamma=gamma, sigma=sigma)
    return _sim(cfg, streams, state=state, system=system, hooks=hooks)


def _finish_lj(sim, cfg, outdir):
    tail = sim.rows[len(sim.rows) // 2:]
    return {"mean_temperature": float(2.0 * np.mean(tail) / (3 * cfg["model"]["N"]))}


def _build_electrolyte(cfg, streams):
    m, run = cfg["model"], cfg["run"]
    model = ElectrolyteModel(N=m["N"], L=m["L"], lj_sigma=m["lj_sigma"],
                             temperature=m["temperature"])
    params = EwaldParams.for_system(m["N"], m["L"], p=run["p"], alpha=m["alpha"])
    if m["r_c"] is not None:
        params = EwaldParams(alpha=params.alpha, r_c=m["r_c"], k_c=params.k_c, p=run["p"])
    if {"fourier_energy_error", "momentum"} & set(cfg["diagnostics"]):
        cube_m_max(m["L"], params.k_c)  # the exact sums' cube, checked before it is built
    ions = PeriodicChargeSystem(state=model.initial_state(streams.init), charges=model.charges())
    bank = mh_sample_kvectors(params.alpha, m["L"], 4096, streams.proposal)  # refills on demand
    return _electrolyte_sim(ions, params, _thermostat(cfg["thermostat"]), bank, streams,
                            lambda st: model.lj_force(st)[0], p=run["p"], model=model,
                            trajectory_every=cfg["output"]["trajectory_every"],
                            exact="fourier_energy_error" in cfg["diagnostics"])


def _electrolyte_sim(ions, params, thermostat, bank, streams, extra_force=None, S=None, **fields):
    """``ions`` as a ``CoulombSystem`` under ``thermostat``, with the energy log after its hooks."""
    gamma, sigma, hooks = _couple(thermostat, ions.state)
    system = CoulombSystem(ions, params, bank, extra_force, S, gamma, sigma)
    return SimpleNamespace(**{"state": ions.state, "system": system, "streams": streams,
                              "hooks": [*hooks, _log_electrolyte], "rows": [], "energy": [],
                              "trajectory": [], "trajectory_every": 0, **fields})


def _log_electrolyte(sim, k, dt):
    """The step's energies and, every trajectory_every steps, the state; after
    the thermostat's hooks, so the kinetic energy is the collided one."""
    st, system = sim.state, sim.system
    kinetic = float(0.5 * np.sum(st.velocities * st.velocities))
    sim.energy.append((k, system.U_real, system.U_fourier, system.U_self, kinetic,
                       2.0 * kinetic / (3.0 * st.n_particles)))
    if sim.trajectory_every and k % sim.trajectory_every == 0:
        sim.trajectory.extend((k, i, *st.positions[i], *st.velocities[i])
                              for i in range(st.n_particles))


def _finish_electrolyte(sim, cfg, outdir):
    _write_csv(outdir / "energy.csv", ENERGY_COLUMNS, sim.energy)
    if sim.trajectory:
        _write_csv(outdir / "trajectory.csv", ("step", "particle", "x", "y", "z", "vx", "vy",
                                               "vz"), sim.trajectory)
    system, params = sim.system.ions.replace_state(sim.state), sim.system.params
    diagnostics = cfg["diagnostics"]
    after_warmup = sim.energy[cfg["run"]["warmup"]:]
    metrics = {"mean_T_inst": float(np.mean([r[5] for r in after_warmup]))}
    if "dh_screening" in diagnostics and sim.rows:
        profile = radial_net_charge(np.array([f for f, _ in sim.rows]), system.charges,
                                    cfg["model"]["L"])
        # null when too few bins of the fit window hold net screening charge to fit a line
        fitted = math.isfinite(profile.slope)
        metrics["dh_slope"] = profile.slope if fitted else None
        metrics["dh_intercept"] = profile.intercept if fitted else None
        # the Debye-Hueckel line's slope, -kappa at the ions' density and temperature
        metrics["dh_slope_reference"] = -dh_kappa(sim.model.rho_r, 1.0 / sim.model.temperature)
    if "fourier_energy_error" in diagnostics and sim.rows:
        mean_rbe = float(np.mean([r[2] for r in after_warmup]))
        mean_exact = float(np.mean([u for _, u in sim.rows]))
        metrics["fourier_energy_rbe"] = mean_rbe
        metrics["fourier_energy_exact"] = mean_exact
        metrics["fourier_energy_rel_err"] = abs(mean_rbe - mean_exact) / abs(mean_exact)
    if "momentum" in diagnostics:
        f_real = real_space_force_all(system, params)[0]
        f = f_real + fourier_force_exact_all(system, params)
        bad = ~np.isfinite(f).all(axis=1)
        if bad.any():  # a last step can leave ions on one another: a finite state, infinite forces
            raise IntegrationError(f"non-finite exact force at particle {int(np.argmax(bad))} "
                                   f"at step {sim.energy[-1][0]}")
        metrics["momentum_exact"] = float(np.abs(f.sum(axis=0)).max())
        f_rbe = f_real + rbe_force_all(system, sim.system.bank.draw(params.p), sim.system.S)
        metrics["momentum_rbe"] = float(np.abs(f_rbe.sum(axis=0)).max())
    return metrics


def _build_svgd(cfg, streams):
    m = cfg["model"]
    X0 = m["init_mean"] + m["init_std"] * streams.init.standard_normal((m["N"], m["dim"]))
    system = stein_system(lambda x: x, GaussianKernel(bandwidth=m["bandwidth"]))
    return _sim(cfg, streams, state=ParticleState(positions=X0), system=system,
                hooks=[_stop_far])


def _stop_far(sim, k, dt):
    """Stop a diverging run while it is finite: no coordinate may pass 1e6."""
    far = np.abs(sim.state.positions).max(axis=1) > 1e6
    if np.any(far):
        raise IntegrationError("coordinate beyond 1e6 (decrease the step size) at particle "
                               f"{int(np.argmax(far))}")


def _finish_svgd(sim, cfg, outdir):
    particles = sim.state.positions
    _write_samples_csv(outdir / "samples.csv", [(cfg["run"]["steps"], particles[:, 0])])
    metrics = {}
    if "moments" in cfg["diagnostics"]:
        metrics["mean"] = [float(v) for v in particles.mean(axis=0)]
        metrics["variance"] = [float(v) for v in particles.var(axis=0)]
    return metrics


MODELS = {
    # dx = [-x + mean_j sin(x_i - x_j)] dt + sigma dW
    "toy": ModelSpec(
        fields={"N": 64, "sigma": 0.5},
        run={"p": 2, "dt": 0.05, "steps": 20, "T": None, "replicas": 1},
        steppers=_STEPPERS, diagnostics=("convergence",), build=_build_toy, finish=_finish_toy,
        observe=_first_coordinates,
    ),
    "wealth": ModelSpec(
        fields={"N": 10_000, "kappa": 1.0, "D": 0.5},
        run={"p": 2, "dt": 1e-3, "T": 3.0, "replicas": 1},
        steppers={m: _STEPPERS[m] for m in ("rbm", "direct")}, diagnostics=("w1_equilibrium",),
        build=_build_wealth, finish=_finish_wealth, positive=("kappa", "D"),
    ),
    "cucker-smale": ModelSpec(
        fields={"N": 256, "kappa": 1.0, "beta": 0.4, "dim": 3},
        run={"p": 2, "dt": 0.02, "steps": 750, "replicas": 1},
        steppers={m: _STEPPERS[m] for m in ("rbm", "direct")},
        diagnostics=("flocking_decay",), build=_build_flocking, finish=_finish_flocking,
        observe_start=True,
        observe=lambda s, k: (k * s.dt, *flocking_functionals(s.state.positions,
                                                              s.state.velocities)),
    ),
    "consensus": ModelSpec(
        fields={"N": 64, "kappa": 1.0, "dim": 1, "nu": None},
        run={"p": 2, "dt": 0.05, "steps": 400, "replicas": 1},
        steppers={m: _STEPPERS[m] for m in ("rbm", "direct")},
        diagnostics=("consensus_decay", "reconstruction"),
        build=_build_consensus, finish=_finish_consensus,
        observe=lambda s, k: (k * s.dt, *consensus_functionals(s.state.positions)),
        observe_start=True, positive=("kappa",),
    ),
    "lj-fluid": ModelSpec(
        fields={"N": 125, "density": 0.3, "sigma": 1.0, "epsilon": 1.0,
                "split_radius": 1.6, "beta": 0.5},
        run={"p": 2, "dt": 1e-3, "schedule": None, "steps": 500, "replicas": 1},
        steppers={"rbm-split": _STEPPERS["rbm"]},
        diagnostics=("temperature",), build=_build_lj, finish=_finish_lj,
        observe=lambda s, k: 0.5 * float(np.sum(s.state.velocities**2)),
        thermostats=("andersen", "langevin"),
        positive=("density", "sigma", "epsilon", "split_radius", "beta"),
    ),
    "electrolyte": ModelSpec(
        fields={"N": 300, "L": 10.0, "lj_sigma": 0.2, "temperature": 1.0,
                "alpha": None, "r_c": None},
        run={"p": 2, "dt": 2e-3, "steps": 5000, "warmup": lambda run: run["steps"] // 5,
             "record_every": 10, "replicas": 1},
        steppers={"rbe": _STEPPERS["direct"]},  # p sizes the frequency batch alone
        diagnostics=("dh_screening", "fourier_energy_error", "momentum"),
        build=_build_electrolyte, finish=_finish_electrolyte,
        # frames for the screening profile, with the exact Fourier energy when asked for
        observe=lambda s, k: (s.state.positions.copy(), fourier_energy(
            s.system.ions.replace_state(s.state), s.system.params) if s.exact else None),
        thermostats=("andersen", "langevin", "nose-hoover"),
        output=("directory", "trajectory_every"),
        positive=("L", "lj_sigma", "temperature", "alpha", "r_c"),
    ),
    # run.sweeps counts the RBMC chain's single-particle moves, not sweeps of all N (the
    # default 10^6 is 2000 sweeps at N = 500), run in blocks of max(sweeps // 400, 1)
    "dyson": ModelSpec(
        fields={"N": 500, "split_radius": 0.01, "m": 5},
        run={"dt": 1e-4, "sweeps": 1_000_000, "warmup": lambda run: run["sweeps"] // 3,
             "replicas": 1},
        steppers={"rbmc": _step_dyson}, diagnostics=("w1_semicircle", "density_at_zero"),
        build=_build_dyson, finish=_finish_dyson, observe=_first_coordinates,
        positive=("split_radius",),
    ),
    # random-batch SVGD toward exp(-|x|^2 / 2); run.dt is the step size eta
    "gaussian": ModelSpec(
        fields={"N": 64, "dim": 1, "bandwidth": "median", "init_mean": -2.0, "init_std": 1.0},
        run={"p": 2, "dt": 0.3, "steps": 2000, "replicas": 1},
        steppers={"rbm-svgd": _STEPPERS["rbm"]},
        diagnostics=("moments",), build=_build_svgd, finish=_finish_svgd,
        positive=("init_std",),
    ),
}

MODEL_METHODS = {name: tuple(spec.steppers) for name, spec in MODELS.items()}

_SECTIONS = ("model", "run", "thermostat", "output")
_RUN_KEYS = ("p", "dt", "schedule", "T", "steps", "sweeps", "warmup", "replicas", "record_every")
_THERMOSTAT_FIELDS = {
    "none": {},
    "andersen": {"nu": 1.0, "temperature": 1.0},
    "langevin": {"gamma": 1.0, "beta": 1.0},
    "nose-hoover": {"Q": 1.0, "beta": 1.0},
}
_SCHEDULE_FIELDS = {"log-decay": {"c": 1e-3}, "inverse": {"k0": 1.0}}
_OUTPUT_FIELDS = {"directory": "out", "trajectory_every": 0}
_FRAME_DIAGNOSTICS = ("dh_screening", "fourier_energy_error")  # electrolyte's recorded frames
ENERGY_COLUMNS = ("step", "U_real", "U_fourier", "U_self", "kinetic", "T_inst")  # energy.csv


# --- validation ------------------------------------------------------------------


def _resolve(raw: dict, fields: dict, known, path: str, owner: str, errors: list) -> dict:
    """``fields`` overlaid with ``raw``; a key outside ``fields`` is an error, and so
    is a value ``_finite`` refuses."""
    for key, value in raw.items():
        if key not in fields:
            errors.append(f"{path}.{key}: " + (f"not used by {owner}" if key in known
                                                 else "unknown key"))
        elif not _finite(value, fields[key]):
            errors.append(f"{path}.{key}: must be a finite number")
    return {**fields, **{k: v for k, v in raw.items() if k in fields}}


def _is_int(v, lo: int) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= lo


def _positive(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and v > 0


def _finite(v, default) -> bool:
    """Whether ``v`` may fill a field whose default is ``default``: a finite number where
    that is a float; where it is None (unset, or ``run.schedule``'s mapping), anything but
    a bool or a non-finite float.  Integer fields refuse a bool in their own checks."""
    if isinstance(v, bool) or isinstance(v, float) and not math.isfinite(v):
        return not (default is None or isinstance(default, float))
    return not isinstance(default, float) or isinstance(v, (int, float))


def _resolve_thermostat(raw: dict, model_id: str, kinds: tuple, errors: list) -> dict:
    """The chosen kind with its fields.  Kind ``none`` switches the thermostat
    off and drops the parameters of the model's other kinds, so a config can
    turn its thermostat off without deleting them."""
    kind = raw.get("kind", "none")
    if kind not in ("none", *kinds):
        errors.append(f"thermostat.kind: {model_id} supports {'|'.join(('none', *kinds))}")
        return {"kind": "none"}
    params = {k: v for k, v in raw.items() if k != "kind" and not (
        kind == "none" and any(k in _THERMOSTAT_FIELDS[t] for t in kinds))}
    known = {key for fields in _THERMOSTAT_FIELDS.values() for key in fields}
    return {"kind": kind, **_resolve(params, _THERMOSTAT_FIELDS[kind], known, "thermostat",
                                     f"thermostat kind {kind!r}", errors)}


def _check_run(run: dict, raw_run: dict, method: str, N, errors: list):
    """Range checks on the resolved run section; fills in derived defaults."""
    p = run.get("p", 2)  # dyson has no run.p: its RBMC chain moves pairs, p = 2
    min_p = 1 if method == "rbe" else 2
    if not _is_int(p, min_p):
        errors.append(f"run.p: batch size must be >= {min_p}")
    elif method != "rbe" and _is_int(N, 2) and p > N:
        errors.append("run.p: batch size cannot exceed model.N")
    elif method == "direct" and p not in (2, N):
        errors.append("run.p: method 'direct' sums over all N particles; "
                      "leave run.p at 2 or set it to model.N")
    s = run.get("schedule")
    if s is not None:
        del run["dt"]
        if not isinstance(s, dict) or s.get("kind") not in tuple(_SCHEDULE_FIELDS):
            errors.append("run.schedule.kind: must be one of log-decay|inverse; "
                          "a constant step is run.dt")
        else:
            if "dt" in raw_run:
                errors.append("run.dt: not used when run.schedule is set")
            params = _resolve({k: v for k, v in s.items() if k != "kind"},
                              _SCHEDULE_FIELDS[s["kind"]], (), "run.schedule", "", errors)
            errors += [f"run.schedule.{k}: must be positive" for k, v in params.items()
                       if not _positive(v)]
            run["schedule"] = {"kind": s["kind"], **params}
    elif not _positive(run["dt"]):
        errors.append("run.dt: must be positive")
    if "T" in run and "steps" in run:  # the toy runs for run.steps or for run.T
        if raw_run.get("T") is not None and "steps" in raw_run:
            errors.append("run.T: set run.steps or run.T, not both")
        del run["T" if run["T"] is None else "steps"]
    if "T" in run:
        if not _positive(run["T"]):
            errors.append("run.T: must be positive")
        elif _positive(run["dt"]) and math.isfinite(run["T"]):  # else refused by _resolve
            n = run["T"] / run["dt"]
            if not math.isfinite(n):
                errors.append(f"run.T: T / dt = {run['T']:g} / {run['dt']:g} overflows")
            elif round(n) < 1:
                errors.append("run.T: must span at least one step of run.dt")
            elif abs(n - round(n)) > 1e-9 * n:  # a run takes whole steps
                errors.append("run.T: must be a whole number of run.dt steps, "
                              f"not T / dt = {n:.10g}")
    errors += [f"run.{key}: must be an integer >= 1" for key in
               ("steps", "sweeps", "record_every", "replicas") if key in run
               and not _is_int(run[key], 1)]
    if "warmup" in run:
        length = "steps" if "steps" in run else "sweeps"
        n = run[length]
        if callable(run["warmup"]):
            run["warmup"] = run["warmup"](run) if _is_int(n, 1) else 0
        if not _is_int(run["warmup"], 0):
            errors.append("run.warmup: must be an integer >= 0")
        elif _is_int(n, 1) and run["warmup"] >= n:
            errors.append(f"run.warmup: must be below run.{length}")


def validate_dict(raw: dict, name: str = "run") -> dict:
    """Resolve a config mapping against the registry's schema; raises ConfigError.

    A config past the schema is built (replica 0, on throwaway streams), and a
    TypeError, ValueError or ArithmeticError of the build is ``model: <message>``.
    """
    if not isinstance(raw, dict):
        raise ConfigError(["top level: expected a mapping"])
    errors = [f"config.{key}: unknown key" for key in raw
              if key not in ("name", "seed", "version", "method", "diagnostics", *_SECTIONS)]
    if raw.get("version", __version__) != __version__:  # a run's echo names its version
        errors.append(f"config.version: {raw['version']!r} is not this randbatch's "
                      f"{__version__!r}")
    sections = {key: raw.get(key) or {} for key in _SECTIONS}
    errors += [f"{key}: expected a mapping" for key, section in sections.items()
               if not isinstance(section, dict)]
    model_id = sections["model"].get("id") if isinstance(sections["model"], dict) else None
    if model_id not in tuple(MODELS):
        errors.append(f"model.id: must be one of {sorted(MODELS)}")
    if model_id not in tuple(MODELS) or any(not isinstance(s, dict) for s in sections.values()):
        raise ConfigError(errors)
    spec, owner = MODELS[model_id], f"model {model_id!r}"

    method = raw.get("method")
    cfg = {"name": str(raw.get("name", name)), "seed": raw.get("seed", 0), "version": __version__,
           "method": MODEL_METHODS[model_id][0] if method is None else method}
    if not _is_int(cfg["seed"], 0):
        errors.append("seed: must be an integer >= 0")
    if cfg["method"] not in MODEL_METHODS[model_id]:
        errors.append(f"method: {cfg['method']!r} not available for model {model_id!r}; "
                      f"available: {MODEL_METHODS[model_id]}")

    model_raw = {k: v for k, v in sections["model"].items() if k != "id"}
    cfg["model"] = {**_resolve(model_raw, spec.fields, (), "model", owner, errors), "id": model_id}
    cfg["run"] = _resolve(sections["run"], spec.run, _RUN_KEYS, "run", owner, errors)
    if spec.thermostats:
        cfg["thermostat"] = _resolve_thermostat(sections["thermostat"], model_id,
                                                spec.thermostats, errors)
        try:  # the thermostat's own range checks
            _thermostat(cfg["thermostat"])
        except (TypeError, ValueError) as exc:
            errors.append(f"thermostat: {exc}")
    elif "thermostat" in raw:
        errors.append(f"thermostat: {owner} takes no thermostat")
    cfg["output"] = _resolve(sections["output"], {k: _OUTPUT_FIELDS[k] for k in spec.output},
                             _OUTPUT_FIELDS, "output", owner, errors)
    diagnostics = raw.get("diagnostics")
    cfg["diagnostics"] = list(spec.diagnostics if diagnostics is None else diagnostics)
    errors += [f"diagnostics: {d!r} unknown for model {model_id!r}; available: {spec.diagnostics}"
               for d in cfg["diagnostics"] if d not in spec.diagnostics]
    if model_id == "electrolyte" and not set(_FRAME_DIAGNOSTICS) & set(cfg["diagnostics"]):
        del cfg["run"]["record_every"]
        if "record_every" in sections["run"]:
            errors.append(f"run.record_every: not used by {owner} without a diagnostic that "
                          f"reads recorded frames ({' or '.join(_FRAME_DIAGNOSTICS)})")
    if model_id == "lj-fluid" and "temperature" not in cfg["diagnostics"]:
        errors.append(f"diagnostics: {owner} writes no results without 'temperature', "
                      "so no run field would change its output")

    model = cfg["model"]
    N = model["N"]
    if not _is_int(N, 2):
        errors.append("model.N: must be an integer >= 2")
    if "dim" in model and not _is_int(model["dim"], 1):
        errors.append("model.dim: must be an integer >= 1")
    _check_run(cfg["run"], sections["run"], cfg["method"], N, errors)
    run = cfg["run"]  # record_every is left only where a frame diagnostic reads the rows
    if not errors and "record_every" in run and (
            run["steps"] // run["record_every"] <= run["warmup"] // run["record_every"]):
        frames = " and ".join(d for d in _FRAME_DIAGNOSTICS if d in cfg["diagnostics"])
        errors.append(f"run.record_every: no multiple of {run['record_every']} lies in "
                      f"(run.warmup, run.steps] = ({run['warmup']}, {run['steps']}], so "
                      f"{frames} would read no recorded frame")
    if not _is_int(cfg["output"].get("trajectory_every", 0), 0):
        errors.append("output.trajectory_every: must be an integer >= 0")
    errors += [f"model.{k}: must be positive" for k in spec.positive if not _positive(model[k])
               and not (model[k] is None and spec.fields[k] is None)]
    if model_id == "toy" and "convergence" in cfg["diagnostics"] and _is_int(N, 2) and N < 4:
        errors.append(f"model.N: the 'convergence' diagnostic needs N >= 4; at N = {N} its "
                      "p = 2 division is one batch, so RBM is the direct step and no error "
                      "is measured")
    if errors:
        raise ConfigError(errors)
    try:
        spec.build(cfg, SimStreams(cfg["seed"]))
    except (TypeError, ValueError, ArithmeticError) as exc:  # L = 1e300 overflows L^3
        raise ConfigError([f"model: {exc}"]) from exc
    return cfg


class _ConfigLoader(yaml.SafeLoader):
    """``yaml.SafeLoader`` that also reads YAML 1.2's exponent floats.

    YAML 1.1 wants a dot and a signed exponent, so it reads ``1e-3`` and
    ``1.0e6`` as strings; here they, and ``-2E+5``, are floats.
    """


_ConfigLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"))


def validate(path, seed: Optional[int] = None, replicas: Optional[int] = None) -> dict:
    """Load and validate a YAML config file.

    Exponent floats load as floats in both spellings, ``1e-3`` and ``1.0e-3``.
    ``seed`` and ``replicas``, when given, replace the file's values before
    validation, so they are checked like the fields they replace.
    """
    path = Path(path)
    with open(path) as fh:
        try:
            raw = yaml.load(fh, Loader=_ConfigLoader) or {}
        except yaml.YAMLError as exc:
            raise ConfigError([f"yaml: {exc}"]) from exc
    if seed is not None and isinstance(raw, dict):
        raw["seed"] = seed
    if replicas is not None and isinstance(raw, dict) and isinstance(raw.get("run") or {}, dict):
        raw["run"] = {**(raw.get("run") or {}), "replicas": replicas}
    return validate_dict(raw, name=path.stem)


# --- the experiment loop ----------------------------------------------------------


def _n_steps(run: dict) -> int:
    return run["steps"] if "steps" in run else int(round(run["T"] / run["dt"]))


def _block(run: dict) -> int:
    """Moves per loop step of a chain that runs for run.sweeps moves."""
    return max(run["sweeps"] // 400, 1)


def _loop_length(run: dict) -> tuple:
    """(steps, warmup steps) of the loop.  A chain's run.sweeps moves take one ``_block``
    per step, the last step what is left; its warmup is the blocks run.warmup covers."""
    if "sweeps" not in run:
        return _n_steps(run), run.get("warmup") or 0
    return -(-run["sweeps"] // _block(run)), run["warmup"] // _block(run)


def _schedule(run: dict) -> Callable[[int], float]:
    """The size of step k (from 1): run.dt, or run.schedule's c / log(k + 1)
    (``log-decay``) or 1 / (k + k0) (``inverse``)."""
    s = run.get("schedule")
    if s is None:
        return lambda k: run["dt"]
    if s["kind"] == "log-decay":
        return lambda k: s["c"] / math.log(k + 1)
    return lambda k: 1.0 / (k + s["k0"])


def _take_step(sim, step, k: int, dt: float):
    """Step k of size dt: ``sim.state = step(sim, k, dt)``, then each of ``sim.hooks``."""
    sim.state = step(sim, k, dt)
    for hook in sim.hooks:
        hook(sim, k, dt)


def _simulate(cfg: dict, streams: SimStreams) -> SimpleNamespace:
    """One replica's sim: built, stepped through ``_take_step`` and recorded."""
    spec, run = MODELS[cfg["model"]["id"]], cfg["run"]
    step, schedule = spec.steppers[cfg["method"]], _schedule(run)
    (n_steps, warmup), every = _loop_length(run), run.get("record_every", 1)
    # validation drops record_every from a model that honours it when nothing reads the rows
    observe = None if "record_every" in spec.run and "record_every" not in run else spec.observe
    sim = spec.build(cfg, streams)
    if spec.observe_start:
        sim.rows.append(observe(sim, 0))
    for k in range(1, n_steps + 1):
        try:
            _take_step(sim, step, k, schedule(k))
        except IntegrationError as exc:
            raise IntegrationError(f"{exc} at step {k}") from exc
        if observe is not None and k > warmup and k % every == 0:
            sim.rows.append(observe(sim, k))
    return sim


def _run_replica(cfg: dict, streams: SimStreams, outdir: Path) -> dict:
    return MODELS[cfg["model"]["id"]].finish(_simulate(cfg, streams), cfg, outdir)


# --- output writers -----------------------------------------------------------


def _write_csv(path, header, rows):
    """Integers as written, every other value as the repr of a float."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) if isinstance(v, int) else repr(float(v)) for v in row) + "\n")


def _write_samples_csv(path, rows):
    """rows: iterable of (sweep, values) with values (N,) or (N, d)."""
    blocks = [(sweep, np.asarray(v, dtype=np.float64).reshape(len(v), -1)) for sweep, v in rows]
    coords = [f"x{c}" for c in range(blocks[0][1].shape[1] if blocks else 1)]
    _write_csv(path, ("sweep", "particle", *coords),
               ((sweep, i, *x) for sweep, xs in blocks for i, x in enumerate(xs)))


def _non_finite_paths(value, path):
    """Key paths of the non-finite floats in a metrics tree, in key order."""
    if isinstance(value, dict):
        return [p for k in sorted(value)
                for p in _non_finite_paths(value[k], f"{path}.{k}" if path else str(k))]
    if isinstance(value, list):
        return [p for i, v in enumerate(value) for p in _non_finite_paths(v, f"{path}[{i}]")]
    return [path] if isinstance(value, float) and not math.isfinite(value) else []


# every file a run writes, into its output directory or a replica<r>/ under it
_ARTIFACTS = ("config.resolved.yaml", "metrics.json", "log.txt", "samples.csv", "energy.csv",
             "functionals.csv", "trajectory.csv")


def _clear_artifacts(outdir: Path):
    """Remove an earlier run's ``_ARTIFACTS`` from ``outdir`` and its ``replica<r>/``
    directories, and each such directory left empty; every other file stays."""
    for name in _ARTIFACTS:
        (outdir / name).unlink(missing_ok=True)
    for rep_dir in list(outdir.iterdir()):
        if re.fullmatch(r"replica\d+", rep_dir.name) and rep_dir.is_dir():
            for name in _ARTIFACTS:
                (rep_dir / name).unlink(missing_ok=True)
            if not any(rep_dir.iterdir()):
                rep_dir.rmdir()


def run(cfg: dict, out_root=None, threads: Optional[int] = None) -> Path:
    """Execute a resolved config; returns the artifact directory.

    An earlier run's artifacts in that directory are removed first (see
    ``_clear_artifacts``), so what it holds afterwards is this run's alone.
    ``threads`` caps numpy's BLAS thread pool first, so a count below 1 is
    refused before any file is touched; None leaves it as it is.
    """
    capped = threads is not None and set_blas_threads(threads)
    out_root = Path(out_root or cfg["output"]["directory"])
    outdir = out_root / f"{cfg['name']}-seed{cfg['seed']}"
    outdir.mkdir(parents=True, exist_ok=True)
    _clear_artifacts(outdir)
    with open(outdir / "config.resolved.yaml", "w") as fh:
        yaml.safe_dump(cfg, fh, sort_keys=True)
    log_lines = [f"randbatch {__version__}", f"method={cfg['method']} model={cfg['model']['id']}"]
    if threads is not None:
        log_lines.append(f"blas_threads={threads}" if capped else
                         "blas_threads: not capped, numpy's BLAS exposes no thread-count call")
    t0 = time.perf_counter()
    replicas = cfg["run"]["replicas"]
    dirs = [outdir] if replicas == 1 else [outdir / f"replica{rep}" for rep in range(replicas)]
    per_replica = []
    for rep, rep_dir in enumerate(dirs):
        rep_dir.mkdir(exist_ok=True)
        per_replica.append(_run_replica(cfg, SimStreams(cfg["seed"], replica=rep), rep_dir))
    metrics = {"version": __version__, "name": cfg["name"], "seed": cfg["seed"],
               "method": cfg["method"], "model": cfg["model"]["id"]}
    if replicas == 1:
        metrics.update(per_replica[0])
    else:
        metrics["replicas"] = per_replica
        numeric = {k for k in per_replica[0]
                   if all(isinstance(r[k], (int, float)) for r in per_replica)}
        metrics["aggregate"] = {
            k: float(np.mean([r[k] for r in per_replica])) for k in sorted(numeric)
        }
    try:
        text = json.dumps(metrics, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        raise ValueError("metrics.json: non-finite value at "
                         + ", ".join(_non_finite_paths(metrics, ""))) from None
    (outdir / "metrics.json").write_text(text + "\n")
    log_lines.append(f"elapsed_seconds={time.perf_counter() - t0:.3f}")
    (outdir / "log.txt").write_text("\n".join(log_lines) + "\n")
    return outdir
