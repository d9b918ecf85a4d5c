"""Config-driven experiment execution.

A YAML config describes one experiment: a model, a method, run parameters,
an optional thermostat and a list of diagnostics.  ``validate`` resolves it
against the schema (unknown keys rejected, defaults applied); ``run``
executes it and writes ``config.resolved.yaml``, ``metrics.json``, CSV
artifacts and ``log.txt`` into the output directory.  Identical (config,
seed) pairs produce byte-identical metrics.
"""

import json
import math
import time
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from . import __version__
from .backend import set_blas_threads
from .diagnostics import radial_net_charge, scaling_benchmark, wasserstein1_1d
from .ewald import (
    EwaldParams,
    PeriodicChargeSystem,
    fourier_energy,
    mh_sample_kvectors,
    rbe_md_step,
    sum_S,
)
from .integrators import (
    SecondOrderSystem,
    StepSchedule,
    direct_step,
    rbm_split_step,
    rbm_step_first_order,
    rbmr_step,
)
from .models import (
    ConsensusModel,
    CuckerSmaleModel,
    DysonModel,
    ElectrolyteModel,
    WealthModel,
    lj_kernel_spec,
    semicircle_cdf,
    semicircle_density,
    simulate_consensus,
    simulate_flocking,
    simulate_wealth,
    toy_lipschitz_system,
)
from .rng import SimStreams
from .samplers import GaussianKernel, SvgdState, rbm_svgd_step, run_log_gas_chain
from .state import ParticleState
from .thermostats import Andersen, Langevin, NoseHoover


class ConfigError(ValueError):
    """Schema violation; carries one message per offending field."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {e}" for e in self.errors))


METHODS = ("direct", "rbm", "rbm-r", "rbm-split", "rbe", "rbmc", "rbm-svgd")
MODEL_METHODS = {
    "toy": ("direct", "rbm", "rbm-r"),
    "wealth": ("direct", "rbm"),
    "cucker-smale": ("rbm", "direct"),
    "consensus": ("rbm", "direct"),
    "lj-fluid": ("rbm-split",),
    "electrolyte": ("rbe",),
    "dyson": ("rbmc",),
    "gaussian": ("rbm-svgd",),
}
MODEL_DIAGNOSTICS = {
    "toy": ("convergence",),
    "wealth": ("w1_equilibrium",),
    "cucker-smale": ("flocking_decay",),
    "consensus": ("consensus_decay", "reconstruction"),
    "lj-fluid": ("temperature",),
    "electrolyte": ("dh_screening", "fourier_energy_error", "momentum"),
    "dyson": ("w1_semicircle", "density_at_zero"),
    "gaussian": ("moments",),
}

_MODEL_FIELDS = {
    "toy": {"N": 64, "sigma": 0.5},
    "wealth": {"N": 10_000, "kappa": 1.0, "D": 0.5},
    "cucker-smale": {"N": 256, "kappa": 1.0, "beta": 0.4, "dim": 3},
    "consensus": {"N": 64, "kappa": 1.0, "dim": 1, "nu": None},
    "lj-fluid": {"N": 125, "density": 0.3, "sigma": 1.0, "epsilon": 1.0,
                 "split_radius": 1.6, "beta": 0.5},
    "electrolyte": {"N": 300, "L": 10.0, "lj_sigma": 0.2, "temperature": 1.0,
                    "alpha": None, "r_c": None},
    "dyson": {"N": 500, "split_radius": 0.01, "m": 5},
    "gaussian": {"N": 64, "dim": 1, "bandwidth": "median", "init_mean": -2.0,
                 "init_std": 1.0},
}
_RUN_FIELDS = {
    "p": 2,
    "dt": None,
    "schedule": None,
    "T": None,
    "steps": None,
    "sweeps": None,
    "warmup": None,
    "replicas": 1,
    "record_every": 10,
}
_THERMOSTAT_FIELDS = {
    "kind": "none",
    "nu": 1.0,
    "temperature": 1.0,
    "gamma": 1.0,
    "beta": 1.0,
    "Q": 1.0,
}
_OUTPUT_FIELDS = {"directory": "out", "trajectory_every": 0}
_BENCH_FIELDS = {"sizes": [500, 1000, 2000], "p": 2, "steps": 100, "repeats": 3}


def _reject_unknown(section: dict, allowed, path: str, errors: list):
    for key in section:
        if key not in allowed:
            errors.append(f"{path}.{key}: unknown key")


def _resolve_section(raw: dict, fields: dict, path: str, errors: list) -> dict:
    _reject_unknown(raw, fields.keys(), path, errors)
    out = dict(fields)
    out.update({k: v for k, v in raw.items() if k in fields})
    return out


def validate_dict(raw: dict, name: str = "run") -> dict:
    """Resolve a config mapping against the schema; raises ConfigError."""
    errors: list = []
    if not isinstance(raw, dict):
        raise ConfigError(["top level: expected a mapping"])
    _reject_unknown(raw, ("name", "seed", "method", "model", "run", "thermostat",
                          "output", "diagnostics", "bench"), "config", errors)
    cfg = {
        "name": str(raw.get("name", name)),
        "seed": raw.get("seed", 0),
        "method": raw.get("method", None),
        "version": __version__,
    }
    if not isinstance(cfg["seed"], int):
        errors.append("seed: must be an integer")

    model_raw = raw.get("model", {})
    model_id = model_raw.get("id") if isinstance(model_raw, dict) else None
    if model_id not in _MODEL_FIELDS:
        errors.append(f"model.id: must be one of {sorted(_MODEL_FIELDS)}")
        raise ConfigError(errors)
    model = _resolve_section(
        {k: v for k, v in model_raw.items() if k != "id"},
        _MODEL_FIELDS[model_id], "model", errors,
    )
    model["id"] = model_id

    if cfg["method"] is None:
        cfg["method"] = MODEL_METHODS[model_id][0]
    if cfg["method"] not in METHODS:
        errors.append(f"method: must be one of {METHODS}")
    elif cfg["method"] not in MODEL_METHODS[model_id]:
        errors.append(f"method: {cfg['method']!r} not available for model {model_id!r}")

    run = _resolve_section(raw.get("run", {}), _RUN_FIELDS, "run", errors)
    thermostat = _resolve_section(raw.get("thermostat", {}), _THERMOSTAT_FIELDS,
                                  "thermostat", errors)
    output = _resolve_section(raw.get("output", {}), _OUTPUT_FIELDS, "output", errors)
    bench = _resolve_section(raw.get("bench", {}), _BENCH_FIELDS, "bench", errors)

    diagnostics = raw.get("diagnostics")
    if diagnostics is None:
        diagnostics = list(MODEL_DIAGNOSTICS[model_id])
    for d in diagnostics:
        if d not in MODEL_DIAGNOSTICS[model_id]:
            errors.append(
                f"diagnostics: {d!r} unknown for model {model_id!r}; "
                f"available: {MODEL_DIAGNOSTICS[model_id]}"
            )

    # semantic checks
    N = model.get("N")
    if not isinstance(N, int) or N < 2:
        errors.append("model.N: must be an integer >= 2")
    p = run["p"]
    min_p = 1 if cfg["method"] == "rbe" else 2
    if not isinstance(p, int) or p < min_p:
        errors.append(f"run.p: batch size must be >= {min_p}")
    elif cfg["method"] != "rbe" and isinstance(N, int) and p > N:
        errors.append("run.p: batch size cannot exceed model.N")
    if run["dt"] is not None and run["dt"] <= 0:
        errors.append("run.dt: must be positive")
    if thermostat["kind"] not in ("none", "andersen", "langevin", "nose-hoover"):
        errors.append("thermostat.kind: must be none|andersen|langevin|nose-hoover")

    if model_id == "electrolyte":
        if isinstance(N, int) and N % 2 != 0:
            errors.append("model.N: electrolyte needs equal numbers of +1/-1 charges "
                          "(electroneutrality)")
        L = model["L"]
        r_c = model["r_c"]
        if r_c is not None and r_c >= L / 2:
            errors.append("model.r_c: real-space cutoff must be below L/2")
    if model_id == "lj-fluid" and thermostat["kind"] == "nose-hoover":
        errors.append("thermostat.kind: lj-fluid supports none|andersen|langevin")
    if model_id == "dyson" and model["split_radius"] <= 0:
        errors.append("model.split_radius: must be positive")

    if errors:
        raise ConfigError(errors)

    cfg.update({"model": model, "run": run, "thermostat": thermostat,
                "output": output, "diagnostics": list(diagnostics), "bench": bench})
    return cfg


def validate(path) -> dict:
    """Load and validate a YAML config file."""
    path = Path(path)
    with open(path) as fh:
        raw = yaml.safe_load(fh) or {}
    return validate_dict(raw, name=path.stem)


def _schedule(run: dict, default_dt: float) -> StepSchedule:
    if run["schedule"]:
        s = run["schedule"]
        kind = s.get("kind", "constant")
        if kind == "log-decay":
            return StepSchedule(kind="log_decay", c=s.get("c", 1e-3))
        if kind == "inverse":
            return StepSchedule(kind="inverse", k0=s.get("k0", 1.0))
        return StepSchedule(kind="constant", dt=s.get("dt", default_dt))
    return StepSchedule(kind="constant", dt=run["dt"] if run["dt"] else default_dt)


def _thermostat(cfg: dict):
    t = cfg["thermostat"]
    if t["kind"] == "andersen":
        return Andersen(nu=t["nu"], temperature=t["temperature"])
    if t["kind"] == "langevin":
        return Langevin(gamma=t["gamma"], beta=t["beta"])
    if t["kind"] == "nose-hoover":
        return NoseHoover(Q=t["Q"], beta=t["beta"])
    return None


# --- experiment drivers -------------------------------------------------------


def _run_toy(cfg, streams, outdir):
    model = cfg["model"]
    run = cfg["run"]
    system = toy_lipschitz_system(model["N"], sigma=model["sigma"])
    dt = run["dt"] or 0.05
    steps = run["steps"] or (int(round(run["T"] / dt)) if run["T"] else 20)
    state = ParticleState(positions=streams.init.standard_normal((model["N"], 1)))
    rows = []
    for k in range(steps):
        if cfg["method"] == "rbm":
            state = rbm_step_first_order(state, system, run["p"], dt, streams)
        elif cfg["method"] == "rbm-r":
            state = rbmr_step(state, system, run["p"], dt, streams)
        else:
            state = direct_step(state, system, dt, streams)
        rows.append((k + 1, state.positions[:, 0].copy()))
    _write_samples_csv(outdir / "samples.csv", rows)
    metrics = {"final_mean": float(state.positions.mean()),
               "final_second_moment": float(np.mean(state.positions**2))}
    if "convergence" in cfg["diagnostics"]:
        metrics["convergence"] = _toy_convergence_study(model["N"], model["sigma"], cfg["seed"])
    return metrics


def _toy_convergence_study(N, sigma, seed, dts=(0.1, 0.05, 0.025), T=1.0, replicas=200, p=2):
    """Coupled strong error of RBM vs the full-batch reference at several dt."""
    errors = {}
    for dt in dts:
        steps = int(round(T / dt))
        sup_sq = np.zeros(steps)
        for rep in range(replicas):
            st_d = SimStreams(seed, replica=2 * rep)
            st_r = SimStreams(seed, replica=2 * rep)  # same noise stream: coupling
            system = toy_lipschitz_system(N, sigma=sigma)
            x0 = st_d.init.standard_normal((N, 1))
            a = ParticleState(positions=x0.copy())
            b = ParticleState(positions=x0.copy())
            for k in range(steps):
                a = direct_step(a, system, dt, st_d)
                b = rbm_step_first_order(b, system, p, dt, st_r)
                sup_sq[k] += float(np.mean((a.positions - b.positions) ** 2))
        errors[dt] = float(np.sqrt((sup_sq / replicas).max()))
    slopes = []
    dts_sorted = sorted(errors, reverse=True)
    for hi, lo in zip(dts_sorted, dts_sorted[1:]):
        slopes.append(math.log2(errors[hi] / errors[lo]))
    return {"errors": {str(k): v for k, v in errors.items()}, "slopes": slopes}


def _run_wealth(cfg, streams, outdir):
    model = WealthModel(N=cfg["model"]["N"], kappa=cfg["model"]["kappa"], D=cfg["model"]["D"])
    run = cfg["run"]
    dt = run["dt"] or 1e-3
    T = run["T"] or 3.0
    res = simulate_wealth(model, run["p"], dt, T, streams, method=cfg["method"])
    _write_samples_csv(outdir / "samples.csv", [(int(round(T / dt)), res.wealth)])
    metrics = {
        "mean_wealth": float(res.wealth.mean()),
        "reflections": res.reflections,
        "positive_fraction": res.positive_fraction,
    }
    if "w1_equilibrium" in cfg["diagnostics"]:
        metrics["w1_equilibrium"] = wasserstein1_1d(
            res.wealth, model.equilibrium_cdf, support=(0.0, max(60.0, res.wealth.max() * 2))
        )
    return metrics


def _run_dyson(cfg, streams, outdir):
    m = cfg["model"]
    run = cfg["run"]
    model = DysonModel(N=m["N"], split_radius=m["split_radius"])
    target = model.gibbs_target()
    sweeps = run["sweeps"] or 1_000_000
    warmup = run["warmup"] if run["warmup"] is not None else sweeps // 3
    dt = run["dt"] or 1e-4
    x0 = model.initial(streams.init)
    _, pooled, stats = run_log_gas_chain(
        x0, target, sweeps, m["m"], dt, streams, warmup=warmup,
        snapshot_every=max(sweeps // 400, 1),
    )
    _write_samples_csv(outdir / "samples.csv", [(sweeps, pooled)])
    metrics = {"acceptance_rate": stats.acceptance_rate, "pooled_samples": int(pooled.size)}
    if "w1_semicircle" in cfg["diagnostics"]:
        metrics["w1_semicircle"] = wasserstein1_1d(
            pooled, lambda x: semicircle_cdf(x), support=(-2.0, 2.0)
        )
    if "density_at_zero" in cfg["diagnostics"]:
        halfwidth = 0.1
        frac = float(np.mean(np.abs(pooled) < halfwidth))
        metrics["density_at_zero"] = frac / (2 * halfwidth)
        metrics["density_at_zero_reference"] = float(semicircle_density(0.0))
    return metrics


def _run_flocking(cfg, streams, outdir):
    m = cfg["model"]
    run = cfg["run"]
    model = CuckerSmaleModel(N=m["N"], kappa=m["kappa"], beta=m["beta"], dim=m["dim"])
    dt = run["dt"] or 0.02
    steps = run["steps"] or 750
    res = simulate_flocking(model, run["p"], dt, steps, streams, record_every=1,
                            method=cfg["method"])
    _write_table_csv(outdir / "functionals.csv", ("time", "x_spread", "v_spread"),
                     zip(res.times, res.x_spread, res.v_spread))
    metrics = {}
    if "flocking_decay" in cfg["diagnostics"]:
        vs = res.v_spread
        skip = max(int(0.05 * len(vs)), 1)
        tail = vs[skip:]
        metrics["v_spread_monotone_after_transient"] = bool(np.all(np.diff(tail) <= 0))
        metrics["v_spread_decades"] = float(np.log10(vs[0] / max(tail[-1], 1e-300)))
        at10 = res.x_spread[max(int(0.10 * len(vs)), 1)]
        metrics["x_spread_sup_ratio"] = float(res.x_spread.max() / at10)
    return metrics


def _run_consensus(cfg, streams, outdir):
    m = cfg["model"]
    run = cfg["run"]
    nu = np.asarray(m["nu"], dtype=np.float64) if m["nu"] is not None else None
    model = ConsensusModel(N=m["N"], kappa=m["kappa"], dim=m["dim"], nu=nu)
    dt = run["dt"] or 0.05
    steps = run["steps"] or 400
    res = simulate_consensus(model, run["p"], dt, steps, streams, method=cfg["method"])
    _write_table_csv(outdir / "functionals.csv", ("time", "m2", "diameter"),
                     zip(res.times, res.m2, res.diameter))
    metrics = {}
    if "consensus_decay" in cfg["diagnostics"]:
        metrics["m2_final_over_initial"] = float(res.m2[-1] / res.m2[0])
        metrics["diameter_final_over_initial"] = float(res.diameter[-1] / res.diameter[0])
    if "reconstruction" in cfg["diagnostics"]:
        model.check_decomposition()
        metrics["reconstruction_ok"] = True
    return metrics


def _run_lj_fluid(cfg, streams, outdir):
    m = cfg["model"]
    run = cfg["run"]
    N = m["N"]
    L = (N / m["density"]) ** (1.0 / 3.0)
    kernel = lj_kernel_spec(m["sigma"], m["epsilon"], m["split_radius"])
    thermostat = _thermostat(cfg)
    gamma, sigma = 0.0, 0.0
    if isinstance(thermostat, Langevin):
        gamma, sigma = thermostat.gamma, thermostat.sigma
    system = SecondOrderSystem(kernel=kernel, alpha_N=1.0, gamma=gamma, sigma=sigma)
    n_side = math.ceil(N ** (1 / 3))
    coords = np.stack(np.meshgrid(*([np.arange(n_side)] * 3), indexing="ij"), -1).reshape(-1, 3)[:N]
    pos = (coords + 0.5) * (L / n_side)
    vel = math.sqrt(1.0 / m["beta"]) * streams.init.standard_normal((N, 3))
    state = ParticleState(positions=pos, velocities=vel, box_length=L)
    schedule = _schedule(run, 1e-3)
    steps = run["steps"] or 500
    kinetic = []
    for k in range(1, steps + 1):
        dt = schedule(k)
        state = rbm_split_step(state, system, run["p"], dt, streams)
        if isinstance(thermostat, Andersen):
            from .thermostats import apply_andersen

            state = apply_andersen(state, thermostat.nu, thermostat.temperature, dt,
                                   streams.thermostat)
        kinetic.append(0.5 * float(np.sum(state.velocities**2)))
    metrics = {}
    if "temperature" in cfg["diagnostics"]:
        tail = kinetic[len(kinetic) // 2:]
        metrics["mean_temperature"] = float(2.0 * np.mean(tail) / (3 * N))
    return metrics


def _run_electrolyte(cfg, streams, outdir):
    m = cfg["model"]
    run = cfg["run"]
    model = ElectrolyteModel(N=m["N"], L=m["L"], lj_sigma=m["lj_sigma"],
                             temperature=m["temperature"])
    params = EwaldParams.for_system(m["N"], m["L"], p=run["p"], alpha=m["alpha"])
    if m["r_c"] is not None:
        params = EwaldParams(alpha=params.alpha, r_c=m["r_c"], k_c=params.k_c, p=run["p"])
    params.validate_box(m["L"])
    system = PeriodicChargeSystem(state=model.initial_state(streams.init),
                                  charges=model.charges())
    thermostat = _thermostat(cfg)
    dt = run["dt"] or 2e-3
    steps = run["steps"] or 5000
    warmup = run["warmup"] if run["warmup"] is not None else steps // 5
    S = sum_S(params.alpha, m["L"])
    bank = mh_sample_kvectors(params.alpha, m["L"], max(10 * params.p * steps // 8, 4096),
                              streams.proposal)
    energy_rows, frames, traj_rows = [], [], []
    rbe_u, exact_u = [], []
    record_every = run["record_every"]
    for k in range(1, steps + 1):
        system, info = rbe_md_step(system, params, thermostat, bank, dt, streams,
                                   extra_force=lambda st: model.lj_force(st)[0], S=S)
        energy_rows.append((k, info["U_real"], info["U_fourier"], info["U_self"],
                            info["kinetic"], info["T_inst"]))
        if k > warmup:
            rbe_u.append(info["U_fourier"])
            if k % record_every == 0:
                frames.append(system.state.positions.copy())
                if "fourier_energy_error" in cfg["diagnostics"]:
                    exact_u.append(fourier_energy(system, params))
        if cfg["output"]["trajectory_every"] and k % cfg["output"]["trajectory_every"] == 0:
            traj_rows.append((k, system.state))
    _write_energy_csv(outdir / "energy.csv", energy_rows)
    if traj_rows:
        _write_trajectory_csv(outdir / "trajectory.csv", traj_rows)
    metrics = {"mean_T_inst": float(np.mean([r[5] for r in energy_rows[warmup:]]))}
    if "dh_screening" in cfg["diagnostics"] and frames:
        profile = radial_net_charge(np.array(frames), system.charges, m["L"])
        metrics["dh_slope"] = profile.slope
        metrics["dh_intercept"] = profile.intercept
    if "fourier_energy_error" in cfg["diagnostics"] and exact_u:
        mean_rbe = float(np.mean(rbe_u))
        mean_exact = float(np.mean(exact_u))
        metrics["fourier_energy_rbe"] = mean_rbe
        metrics["fourier_energy_exact"] = mean_exact
        metrics["fourier_energy_rel_err"] = abs(mean_rbe - mean_exact) / abs(mean_exact)
    if "momentum" in cfg["diagnostics"]:
        from .ewald import fourier_force_exact_all, real_space_force_all, rbe_force_all

        f_real = real_space_force_all(system, params)[0]
        f = f_real + fourier_force_exact_all(system, params)
        metrics["momentum_exact"] = float(np.abs(f.sum(axis=0)).max())
        f_rbe = f_real + rbe_force_all(system, bank.draw(params.p), S)
        metrics["momentum_rbe"] = float(np.abs(f_rbe.sum(axis=0)).max())
    return metrics


def _run_svgd(cfg, streams, outdir):
    m = cfg["model"]
    run = cfg["run"]
    N, dim = m["N"], m["dim"]
    X0 = m["init_mean"] + m["init_std"] * streams.init.standard_normal((N, dim))
    kernel = GaussianKernel(bandwidth=m["bandwidth"])
    state = SvgdState(particles=X0, grad_V=lambda x: x, kernel=kernel)
    eta = run["dt"] or 0.3
    steps = run["steps"] or 2000
    for _ in range(steps):
        state = rbm_svgd_step(state, run["p"], eta, streams)
    _write_samples_csv(outdir / "samples.csv", [(steps, state.particles[:, 0])])
    metrics = {}
    if "moments" in cfg["diagnostics"]:
        metrics["mean"] = [float(v) for v in state.particles.mean(axis=0)]
        metrics["variance"] = [float(v) for v in state.particles.var(axis=0)]
    return metrics


_DRIVERS = {
    "toy": _run_toy,
    "wealth": _run_wealth,
    "dyson": _run_dyson,
    "cucker-smale": _run_flocking,
    "consensus": _run_consensus,
    "lj-fluid": _run_lj_fluid,
    "electrolyte": _run_electrolyte,
    "gaussian": _run_svgd,
}


# --- output writers -----------------------------------------------------------


def _fmt(x) -> str:
    return repr(float(x))


def _write_table_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_samples_csv(path, rows):
    """rows: iterable of (sweep, values) with values (N,) or (N, d)."""
    with open(path, "w") as fh:
        first = True
        for sweep, values in rows:
            values = np.atleast_2d(np.asarray(values, dtype=np.float64))
            if values.shape[0] == 1:
                values = values.T
            if first:
                coords = ",".join(f"x{c}" for c in range(values.shape[1]))
                fh.write(f"sweep,particle,{coords}\n")
                first = False
            for i, row in enumerate(values):
                fh.write(f"{sweep},{i}," + ",".join(_fmt(v) for v in row) + "\n")


def _write_energy_csv(path, rows):
    with open(path, "w") as fh:
        fh.write("step,U_real,U_fourier,U_self,kinetic,T_inst\n")
        for step, *vals in rows:
            fh.write(f"{step}," + ",".join(_fmt(v) for v in vals) + "\n")


def _write_trajectory_csv(path, rows):
    with open(path, "w") as fh:
        fh.write("step,particle,x,y,z,vx,vy,vz\n")
        for step, state in rows:
            v = state.velocities if state.velocities is not None else np.zeros_like(state.positions)
            for i in range(state.n_particles):
                vals = list(state.positions[i]) + list(v[i])
                fh.write(f"{step},{i}," + ",".join(_fmt(x) for x in vals) + "\n")


def run(cfg: dict, out_root=None, threads: Optional[int] = None) -> Path:
    """Execute a resolved config; returns the artifact directory.

    ``threads`` caps numpy's BLAS thread pool before the run starts; None
    leaves it as it is.
    """
    out_root = Path(out_root or cfg["output"]["directory"])
    outdir = out_root / f"{cfg['name']}-seed{cfg['seed']}"
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "config.resolved.yaml", "w") as fh:
        yaml.safe_dump(cfg, fh, sort_keys=True)
    log_lines = [f"randbatch {__version__}", f"method={cfg['method']} model={cfg['model']['id']}"]
    if threads is not None:
        log_lines.append(f"blas_threads={threads}" if set_blas_threads(threads) else
                         "blas_threads: not capped, numpy's BLAS exposes no thread-count call")
    t0 = time.perf_counter()
    driver = _DRIVERS[cfg["model"]["id"]]
    replicas = cfg["run"]["replicas"]
    per_replica = []
    for rep in range(replicas):
        streams = SimStreams(cfg["seed"], replica=rep)
        per_replica.append(driver(cfg, streams, outdir))
    metrics = {"version": __version__, "name": cfg["name"], "seed": cfg["seed"],
               "method": cfg["method"], "model": cfg["model"]["id"]}
    if replicas == 1:
        metrics.update(per_replica[0])
    else:
        metrics["replicas"] = per_replica
        numeric = {k for k in per_replica[0] if isinstance(per_replica[0][k], (int, float))}
        metrics["aggregate"] = {
            k: float(np.mean([r[k] for r in per_replica])) for k in sorted(numeric)
        }
    with open(outdir / "metrics.json", "w") as fh:
        json.dump(metrics, fh, sort_keys=True, indent=2)
        fh.write("\n")
    log_lines.append(f"elapsed_seconds={time.perf_counter() - t0:.3f}")
    (outdir / "log.txt").write_text("\n".join(log_lines) + "\n")
    return outdir


def run_bench(cfg: dict, out_root=None) -> Path:
    """Per-step timing table for the direct and RBM methods."""
    out_root = Path(out_root or cfg["output"]["directory"])
    outdir = out_root / f"{cfg['name']}-bench"
    outdir.mkdir(parents=True, exist_ok=True)
    bench = cfg["bench"]
    table = {}
    for method in ("rbm", "direct"):
        table[method] = scaling_benchmark(
            method, bench["sizes"], p=bench["p"], steps=bench["steps"],
            repeats=bench["repeats"], seed=cfg["seed"],
        )
    with open(outdir / "bench.csv", "w") as fh:
        fh.write("method,N,seconds_per_step\n")
        for method, entries in table.items():
            for N, sec in entries:
                fh.write(f"{method},{N},{_fmt(sec)}\n")
    summary = {"version": __version__, "results": {
        m: {str(N): sec for N, sec in entries} for m, entries in table.items()
    }}
    for m, entries in table.items():
        ratios = [entries[i + 1][1] / entries[i][1] for i in range(len(entries) - 1)]
        summary["results"][m]["doubling_ratios"] = ratios
    with open(outdir / "bench.json", "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return outdir
