"""The benchmark's workloads: generated configs, sizes and seeds.

Every config is written by the benchmark into its own work directory, so
the program sees only these files.  The study master seed of operation i in
a run with ``--seed s`` is ``derive_seed(s, i)``; single-path call j of
operation i uses ``derive_seed(s, i, j)``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle

# the flagship model of configs/anderson_acceptance.json, written out here so
# that a later change to the shipped config does not change the benchmark
_FLAGSHIP = {
    "model": {"theta": 1.0, "n_ref": 256, "grid_points": 512,
              "initial": {"pos": {"1": 1.0}, "vel": {}}},
    "time": {"t_final": 1.0, "n_steps": 512},
    "noise": {"m_noise": 256},
    "coefficients": {
        "preset": "anderson",
        "declared_norms": {
            "gamma": 0.9, "beta": 0.7, "rho": 0.45, "hs_tol": 0.1, "phi_c2b": 3.86,
            "f_lip0": 0.0, "f_lip_rho": 0.0, "f_lip_smooth": 0.0,
            "b_lip0_hs": 0.5774, "b_lip_rho_hs": 2.46, "b_lip_gamma_op": 3.0,
            "f_second": 0.0, "b_second": 0.0,
            "moment_f_lip": 0.0, "moment_b_hs": 0.5774,
        },
    },
    "study": {"levels": [4, 8, 16, 32, 64], "n_paths": 20000,
              "functional": {"kind": "exp_neg_norm"}, "rho_monitor": 0.0},
}


def _fine_reference() -> dict:
    cfg = json.loads(json.dumps(_FLAGSHIP))
    cfg["model"]["n_ref"] = 512
    cfg["model"]["grid_points"] = 768  # n_ref + m_noise
    cfg["time"]["n_steps"] = 16
    return cfg


# pointwise multiplicative diffusion and a Lipschitz drift; the expressions
# and the oracle's callables below must say the same thing
_SEMI_B, _SEMI_F = "0.5*sin(y)", "-tanh(y)"


def _semi_b(x, y):
    return 0.5 * np.sin(y)


def _semi_f(x, y):
    return -np.tanh(y)


def _semilinear() -> dict:
    return {
        # grid_points is left out: the documented default 4 * max(n_ref, m_noise)
        "model": {"theta": 1.0, "n_ref": 64,
                  "initial": {"pos": {str(n): 0.5 / n for n in range(1, 64)}, "vel": {}}},
        "time": {"t_final": 1.0, "n_steps": 16},
        "noise": {"m_noise": 64},
        "coefficients": {"kind": "pointwise", "b": _SEMI_B, "drift": _SEMI_F},
        "study": {"levels": [4, 8, 16, 32], "n_paths": 256,
                  "functional": {"kind": "exp_neg_norm"}, "rho_monitor": 0.0},
    }


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    command: str            # "convergence" or "simulate"
    paths: int              # paths per study, or simulate calls per operation
    workers: int | None     # --workers; None keeps the program's default
    target: float | None = None  # weak stderr a study's time_to_accuracy_s aims at

    @property
    def study(self) -> bool:
        return self.command == "convergence"

    @property
    def levels(self) -> tuple[int, ...]:
        return tuple(self.config["study"]["levels"])

    @property
    def n_ref(self) -> int:
        return self.config["model"]["n_ref"]

    @property
    def n_steps(self) -> int:
        return self.config["time"]["n_steps"]

    def write_config(self, path: Path) -> None:
        path.write_text(json.dumps(self.config, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")

    def oracle_model(self, grid_points: int = 0) -> oracle.Model:
        """The oracle's view of the config; grid_points as the program reports it."""
        m = self.config["model"]
        n = m["n_ref"]
        pos, vel = np.zeros(n), np.zeros(n)
        for key, val in m["initial"]["pos"].items():
            pos[int(key) - 1] = val
        for key, val in m["initial"]["vel"].items():
            vel[int(key) - 1] = val
        pointwise = self.config["coefficients"].get("kind") == "pointwise"
        return oracle.Model(
            theta=m["theta"], n_ref=n, m_noise=self.config["noise"]["m_noise"],
            n_steps=self.n_steps, t_final=self.config["time"]["t_final"],
            init_pos=pos, init_vel=vel,
            kind="pointwise" if pointwise else "anderson",
            b=_semi_b if pointwise else None,
            drift=_semi_f if pointwise else None,
            grid_points=grid_points)


WORKLOADS = {w.name: w for w in (
    Workload("flagship", _FLAGSHIP, "convergence", paths=3072, workers=None, target=1e-5),
    Workload("fine-reference", _fine_reference(), "convergence", paths=4096, workers=1,
             target=1e-5),
    Workload("semilinear", _semilinear(), "convergence", paths=256, workers=1,
             target=1e-4),
    Workload("single-path", _FLAGSHIP, "simulate", paths=20, workers=None),
)}


def derive_seed(seed: int, *keys: int) -> int:
    """A 32-bit seed for the program, fixed by the run's seed and the keys."""
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in keys))
    return int(ss.generate_state(1, np.uint32)[0])
