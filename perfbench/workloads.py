"""The benchmark's workloads: set-up, one step, analysis and output checks.

Each workload reads its YAML config through ``randbatch.runner.validate`` and
rebuilds the experiment from the resolved values, so ``randbatch run
perfbench/configs/<name>.yaml`` runs what the benchmark times.  The benchmark
owns the step loop (rather than timing one multi-second ``runner.run``) so
that every timed piece stays short enough for the probe next to it to track
the machine's speed.

Library functions are always called through their module
(``ewald.rbe_md_step``), so the traced run sees them once it has patched the
module attributes.
"""

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Tuple

import numpy as np

from randbatch import diagnostics, ewald, integrators, models, runner, thermostats
from randbatch.rng import SimStreams
from randbatch.state import ParticleState

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

MOMENTUM_TOL = 1e-8
FOURIER_REL_TOL = 0.25
T_INST_BAND = (0.7, 1.3)
WEALTH_MEAN_REL_TOL = 0.12
WEALTH_W1_EXCESS_TOL = 0.03
LJ_T_BAND = (1.6, 2.6)


@dataclass
class Check:
    name: str
    ok: bool
    value: float


def _check(name: str, value: float, lo: float, hi: float) -> Check:
    value = float(value)
    return Check(name, bool(math.isfinite(value) and lo <= value <= hi), value)


def _force_momentum(results: dict) -> float:
    """Largest total-force component over the exact and the RBE forces."""
    return max(float(np.abs(results[k].sum(axis=0)).max()) for k in ("f_exact", "f_rbe"))


@dataclass
class Episode:
    """Mutable state of one episode between set-up and analysis."""

    state: ParticleState
    steps: int
    step_fn: Callable[["Episode"], None]
    k: int = 0
    extra: dict = field(default_factory=dict)

    def final_bytes(self) -> bytes:
        st = self.state
        vel = b"" if st.velocities is None else st.velocities.tobytes()
        return st.positions.tobytes() + vel


class Workload:
    """Base: subclasses define set-up, step, analysis pieces and checks."""

    name: str = ""
    # which probe in probe.py tracks this workload's mix of code
    probe_kind: str = "interpreted"
    # set-ups per probe-timed block, and blocks per episode
    setup_block: int = 1
    setup_blocks: int = 3
    # steps per probe-timed block (each block stays well under 0.5 s)
    step_block: int = 1
    # analysis repeats per episode, and calls per probe-timed analysis piece
    analysis_repeats: int = 2
    analysis_block: int = 1

    def config(self, seed: Optional[int] = None) -> dict:
        cfg = runner.validate(CONFIG_DIR / f"{self.name}.yaml")
        if seed is not None:
            cfg["seed"] = int(seed)
        return cfg

    def n_particles(self, cfg: dict) -> int:
        return int(cfg["model"]["N"])

    def setup(self, cfg: dict) -> Episode:
        raise NotImplementedError

    def analysis_pieces(self, ep: Episode) -> List[Tuple[str, Callable[[], dict]]]:
        """Independently timed parts of the analysis; each returns results."""
        raise NotImplementedError

    def checks(self, ep: Episode, results: dict) -> List[Check]:
        raise NotImplementedError

    def invariants(self, ep: Episode, results: dict) -> dict:
        return {}

    def analyse(self, ep: Episode) -> dict:
        out = {}
        for _, piece in self.analysis_pieces(ep):
            out.update(piece())
        return out


class ElectrolyteRBE(Workload):
    name = "electrolyte-rbe"
    setup_blocks = 10
    step_block = 1
    analysis_repeats = 3

    def setup(self, cfg):
        m, run, t = cfg["model"], cfg["run"], cfg["thermostat"]
        if t["kind"] != "andersen":
            raise ValueError("electrolyte-rbe expects an explicit Andersen thermostat")
        streams = SimStreams(cfg["seed"])
        model = models.ElectrolyteModel(N=m["N"], L=m["L"], lj_sigma=m["lj_sigma"],
                                        temperature=m["temperature"])
        if m["r_c"] is not None:
            raise ValueError("electrolyte-rbe takes the default real-space cutoff")
        params = ewald.EwaldParams.for_system(m["N"], m["L"], p=run["p"], alpha=m["alpha"])
        params.validate_box(m["L"])
        system = ewald.PeriodicChargeSystem(state=model.initial_state(streams.init),
                                            charges=model.charges())
        steps = run["steps"]
        S = ewald.sum_S(params.alpha, m["L"])
        bank = ewald.mh_sample_kvectors(params.alpha, m["L"],
                                        max(10 * params.p * steps // 8, 4096), streams.proposal)
        extra = {
            "model": model, "params": params, "system": system, "S": S, "bank": bank,
            "streams": streams, "dt": run["dt"], "warmup": run["warmup"],
            "record_every": run["record_every"],
            "thermostat": thermostats.Andersen(nu=t["nu"], temperature=t["temperature"]),
            "lj": lambda st: model.lj_force(st)[0],
            "frames": [], "rbe_u": [], "t_inst": [],
        }
        return Episode(state=system.state, steps=steps, step_fn=self._step, extra=extra)

    @staticmethod
    def _step(ep):
        x = ep.extra
        x["system"], info = ewald.rbe_md_step(x["system"], x["params"], x["thermostat"],
                                              x["bank"], x["dt"], x["streams"],
                                              extra_force=x["lj"], S=x["S"])
        ep.state = x["system"].state
        ep.k += 1
        if ep.k > x["warmup"]:
            x["t_inst"].append(info["T_inst"])
            x["rbe_u"].append(info["U_fourier"])
            if ep.k % x["record_every"] == 0:
                x["frames"].append(ep.state.positions.copy())
        if ep.k == ep.steps:
            # the frequency batch the momentum diagnostic uses, as in the runner
            x["kbatch"] = x["bank"].draw(x["params"].p).copy()

    def analysis_pieces(self, ep):
        x = ep.extra
        system, params, L = x["system"], x["params"], x["model"].L

        def screening():
            profile = diagnostics.radial_net_charge(np.array(x["frames"]), system.charges, L)
            return {"dh_slope": profile.slope, "dh_intercept": profile.intercept}

        def exact_energy(i):
            frame = ParticleState(positions=x["frames"][i], box_length=L)
            u = ewald.fourier_energy(
                ewald.PeriodicChargeSystem(state=frame, charges=system.charges), params)
            return {f"fourier_exact_{i}": u}

        def forces():
            f_real = ewald.real_space_force_all(system, params)[0]
            return {"f_exact": f_real + ewald.fourier_force_exact_all(system, params),
                    "f_rbe": f_real + ewald.rbe_force_all(system, x["kbatch"], x["S"])}

        # one piece per frame keeps every timed piece short
        energies = [(f"fourier_energy_{i}", lambda i=i: exact_energy(i))
                    for i in range(len(x["frames"]))]
        return [("radial_net_charge", screening), *energies, ("forces", forces)]

    def checks(self, ep, results):
        x = ep.extra
        exact = float(np.mean([results[f"fourier_exact_{i}"]
                               for i in range(len(x["frames"]))]))
        rel = abs(float(np.mean(x["rbe_u"])) - exact) / abs(exact)
        return [
            _check("momentum_at_roundoff", _force_momentum(results), 0.0, MOMENTUM_TOL),
            _check("fourier_energy_rel_err", rel, 0.0, FOURIER_REL_TOL),
            _check("mean_T_inst", float(np.mean(x["t_inst"])), *T_INST_BAND),
        ]

    def invariants(self, ep, results):
        return {"momentum_max": _force_momentum(results),
                "mean_T": float(np.mean(ep.extra["t_inst"]))}


class WealthRBM(Workload):
    name = "wealth-rbm"
    # numpy calls on 10^4-element arrays; over six runs the vector probe left
    # a step-time spread of 2.3%, a mix with interpreted loops 4.9%, raw 9.1%
    probe_kind = "vector"
    setup_block = 50
    setup_blocks = 20
    step_block = 100
    analysis_repeats = 16

    def setup(self, cfg):
        m, run = cfg["model"], cfg["run"]
        if cfg["method"] != "rbm":
            raise ValueError("wealth-rbm expects method rbm")
        streams = SimStreams(cfg["seed"])
        model = models.WealthModel(N=m["N"], kappa=m["kappa"], D=m["D"])
        state = ParticleState(positions=model.initial(streams.init)[:, None])
        extra = {"model": model, "system": model.system(), "streams": streams,
                 "p": run["p"], "dt": run["dt"]}
        steps = int(round(run["T"] / run["dt"]))
        return Episode(state=state, steps=steps, step_fn=self._step, extra=extra)

    @staticmethod
    def _step(ep):
        x = ep.extra
        state = integrators.rbm_step_first_order(ep.state, x["system"], x["p"], x["dt"],
                                                 x["streams"])
        if np.any(state.positions <= 0):  # reflect at zero wealth, as the runner does
            state = state.replace(positions=np.abs(state.positions))
        ep.state = state
        ep.k += 1

    def analysis_pieces(self, ep):
        model = ep.extra["model"]
        wealth = ep.state.positions[:, 0]

        def w1():
            support = (0.0, max(60.0, float(wealth.max()) * 2))
            return {"w1": diagnostics.wasserstein1_1d(wealth, model.equilibrium_cdf,
                                                      support=support)}

        return [("wasserstein1_1d", w1)]

    def checks(self, ep, results):
        wealth = ep.state.positions[:, 0]
        positive = float(np.min(wealth)) if np.all(np.isfinite(wealth)) else math.nan
        drift = float(np.mean(wealth)) / models.ETA_WEALTH - 1.0
        # The mean wealth is conserved only in expectation (std about 2.5% here),
        # and rescaling a positive law by 1 + r moves W1 by |r| times its mean.
        # So W1 to the law at the nominal mean, less that share, bounds from
        # below the misfit of the equilibrium shape itself.
        excess = results["w1"] - abs(drift) * models.ETA_WEALTH
        return [
            _check("wealth_positive_min", positive, 1e-300, math.inf),
            _check("mean_wealth_rel_drift", drift, -WEALTH_MEAN_REL_TOL, WEALTH_MEAN_REL_TOL),
            _check("w1_equilibrium_excess", excess, -math.inf, WEALTH_W1_EXCESS_TOL),
        ]

    def invariants(self, ep, results):
        return {"mean_wealth_rel_drift":
                abs(float(np.mean(ep.state.positions)) / models.ETA_WEALTH - 1.0)}


class LJSplit(Workload):
    name = "lj-split"
    # the cell-list search is a Python loop over particles; over six runs the
    # interpreted probe left a step-time spread of 3.6%, the vector one 16%
    setup_block = 40
    setup_blocks = 20
    step_block = 3
    analysis_repeats = 20
    analysis_block = 500

    def setup(self, cfg):
        m, run, t = cfg["model"], cfg["run"], cfg["thermostat"]
        if t["kind"] != "langevin":
            raise ValueError("lj-split expects a Langevin thermostat")
        streams = SimStreams(cfg["seed"])
        N = m["N"]
        L = (N / m["density"]) ** (1.0 / 3.0)
        kernel = models.lj_kernel_spec(m["sigma"], m["epsilon"], m["split_radius"])
        langevin = thermostats.Langevin(gamma=t["gamma"], beta=t["beta"])
        system = integrators.SecondOrderSystem(kernel=kernel, alpha_N=1.0,
                                               gamma=langevin.gamma, sigma=langevin.sigma)
        n_side = math.ceil(N ** (1 / 3))
        coords = np.stack(np.meshgrid(*([np.arange(n_side)] * 3), indexing="ij"),
                          -1).reshape(-1, 3)[:N]
        pos = (coords + 0.5) * (L / n_side)
        vel = math.sqrt(1.0 / m["beta"]) * streams.init.standard_normal((N, 3))
        state = ParticleState(positions=pos, velocities=vel, box_length=L)
        extra = {"system": system, "streams": streams, "p": run["p"], "dt": run["dt"],
                 "kinetic": []}
        return Episode(state=state, steps=run["steps"], step_fn=self._step, extra=extra)

    @staticmethod
    def _step(ep):
        x = ep.extra
        ep.state = integrators.rbm_split_step(ep.state, x["system"], x["p"], x["dt"],
                                              x["streams"])
        x["kinetic"].append(0.5 * float(np.sum(ep.state.velocities ** 2)))
        ep.k += 1

    def analysis_pieces(self, ep):
        kinetic = ep.extra["kinetic"]
        N = ep.state.n_particles

        def temperature():
            tail = kinetic[len(kinetic) // 2:]
            return {"mean_temperature": float(2.0 * np.mean(tail) / (3 * N))}

        return [("temperature", temperature)]

    def checks(self, ep, results):
        return [_check("mean_temperature", results["mean_temperature"], *LJ_T_BAND)]

    def invariants(self, ep, results):
        return {"mean_T": results["mean_temperature"]}


WORKLOADS = {w.name: w for w in (ElectrolyteRBE(), WealthRBM(), LJSplit())}
