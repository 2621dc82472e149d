"""The benchmark's workloads and the inputs each one is generated from.

A workload is one CLI sweep at a fixed size: a subcommand, a thread count and
a config. The config's trajectory seeds, omega values, two-stage schedule and
mask pixels are drawn from the workload seed, so one seed always yields the
same files while the amount of work stays the same for every seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MIXTURE = {
    "kind": "gaussian_mixture",
    "weights": [0.3, 0.4, 0.3],
    "means": [-1.5, 0.0, 1.5],
    "variances": [0.25, 0.5, 0.25],
}


@dataclass(frozen=True)
class Workload:
    command: str
    threads: int


# Why each gated workload was chosen is recorded beside its name in
# BENCHMARK.json. euler-masked-32-csv -- 9,600 tiny churned euler steps with
# an omega mask and schedule and CSV snapshots, where per-call overhead and
# CSV output dominate -- is left out of it: its Python-bound sweeps ran up to
# 1.7x slower when a shared 2-vCPU host was busy, so run-to-run spread
# exceeded 25%. It stays runnable for traced and ad-hoc runs.
WORKLOADS = {
    "ddim-mixture-256": Workload("sample", 1),
    "flow-spectrum-256-t2": Workload("spectrum", 2),
    "euler-masked-32-csv": Workload("sample", 1),
}


@dataclass(frozen=True)
class Inputs:
    """Generated config (as JSON data) plus the mask PGM bytes it names, if any."""

    config: dict
    mask_pgm: bytes | None

    @property
    def cell_steps(self) -> int:
        """Latent cells x steps x seeds x omega values: the work of one sweep."""
        cells = int(np.prod(self.config["latent"]["shape"]))
        c = self.config
        return cells * c["sampler"]["steps"] * len(c["seeds"]) * len(c["omega"]["values"])


def _omegas(rng: np.random.Generator) -> list[float]:
    # Three distinct values straddling 1, inside the paper's visibly distinct range.
    return [float(rng.uniform(0.93, 0.97)), 1.0, float(rng.uniform(1.03, 1.07))]


def _seeds(rng: np.random.Generator, count: int) -> list[int]:
    return [int(s) for s in rng.choice(2**31, size=count, replace=False)]


def make_inputs(name: str, seed: int, small: bool = False) -> Inputs:
    """Inputs of one workload; ``small`` shrinks every size for the smoke test."""
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    if name == "ddim-mixture-256":
        side, steps = (16, 10) if small else (256, 50)
        snapshots = [0, steps // 5, steps // 2, steps]
        config = {
            "sampler": {"kind": "ddim", "steps": steps, "snapshots": snapshots},
            "omega": {"values": _omegas(rng)},
            "oracle": MIXTURE,
            "init": {"kind": "white"},
            "latent": {"shape": [side, side]},
            "seeds": _seeds(rng, 2 if small else 4),
            "snapshot_format": "binary",
        }
        return Inputs(config, None)
    if name == "flow-spectrum-256-t2":
        side, steps = (16, 10) if small else (256, 50)
        config = {
            # Step 0 is left out: there every omega shares the initial latent,
            # so the strict high-band ordering cannot hold.
            "sampler": {"kind": "flow", "steps": steps, "snapshots": list(range(2, steps + 1, 2))},
            "omega": {"values": _omegas(rng)},
            "oracle": {"kind": "standard_normal"},
            "init": {"kind": "gaussian_field", "exponent": -1.0},
            "latent": {"shape": [side, side]},
            "seeds": _seeds(rng, 2 if small else 4),
        }
        return Inputs(config, None)
    if name == "euler-masked-32-csv":
        side, steps = (8, 20) if small else (32, 200)
        factor = 2
        pixels = rng.integers(0, 256, size=(side * factor, side * factor), dtype=np.uint8)
        header = f"P5\n{side * factor} {side * factor}\n255\n".encode("ascii")
        config = {
            "sampler": {
                "kind": "euler",
                "steps": steps,
                "schedule": {"kind": "karras", "churn": 0.2},
                "snapshots": [0, steps // 2, steps],
            },
            "omega": {
                "values": _omegas(rng),
                "mask": {"path": "mask.pgm", "factor": factor, "low": 0.95, "high": 1.05},
                "schedule": {
                    "kind": "two_stage",
                    "switch_step": steps // 4,
                    "early": float(rng.uniform(0.96, 0.99)),
                    "late": 1.0,
                },
            },
            "oracle": MIXTURE,
            "init": {"kind": "white"},
            "latent": {"shape": [side, side]},
            "seeds": _seeds(rng, 2 if small else 16),
            "snapshot_format": "csv",
        }
        return Inputs(config, header + pixels.tobytes())
    raise KeyError(f"unknown workload {name!r}")
