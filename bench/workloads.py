"""The three benchmark workloads: op shapes, config pools and per-op work.

A workload seed expands into a small *pool* of CLI configs.  Op ``i`` of a
run executes ``pool[i % len(pool)]``, so the mix of walk kinds is fixed by
the pool and every op has a recorded output digest for its pool slot.

The shapes are fixed; only the angles, tables and base seeds come from the
workload seed:

``spread``   ``oamwalk run`` at half_width=1024, steps=1000, kinds cycling
             ssqw -> dtqw -> electric-dtqw (homogeneous coins, default outputs).
``certify``  ``oamwalk compile --verify`` at half_width=256, steps=16, a 2:1
             mix of ssqw and generalized (random tables) walks.
``disorder`` ``oamwalk localize --seeds 16`` on generalized walks with random
             tables at half_width=302, steps=300.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("spread", "certify", "disorder")

SPREAD_HALF_WIDTH, SPREAD_STEPS = 1024, 1000
CERTIFY_HALF_WIDTH, CERTIFY_STEPS = 256, 16
DISORDER_HALF_WIDTH, DISORDER_STEPS, DISORDER_SEEDS = 302, 300, 16


@dataclass(frozen=True)
class Op:
    """One CLI invocation: its config, its argv and the files it writes."""

    config: dict
    command: str  # "run", "compile" or "localize"
    site_steps: int  # sum of (2*half_width+1)*steps over the walks it evolves

    def argv(self, config_path: str, out_path: str) -> list[str]:
        if self.command == "run":
            return ["run", "--config", config_path, "--out", out_path]
        if self.command == "compile":
            return ["compile", "--verify", "--config", config_path, "--out", out_path]
        return ["localize", "--seeds", str(DISORDER_SEEDS), "--config", config_path, "--out", out_path]

    @property
    def out_suffix(self) -> str:
        return ".csv" if self.command == "run" else ".json"

    def outputs(self, out_path: str) -> list[str]:
        """Every file the op writes, in a fixed order (the digest order)."""
        if self.command == "run":
            return [out_path, str(Path(out_path).with_suffix(".summary.json"))]
        return [out_path]


def _sites(half_width: int) -> int:
    return 2 * half_width + 1


def _spread_pool(rng: random.Random) -> list[Op]:
    base = {"schema_version": 1, "steps": SPREAD_STEPS, "half_width": SPREAD_HALF_WIDTH}
    work = _sites(SPREAD_HALF_WIDTH) * SPREAD_STEPS
    ssqw = dict(base, walk="ssqw", theta1=rng.uniform(0.2, 1.3), theta2=rng.uniform(-1.3, -0.2))
    dtqw = dict(base, walk="dtqw", theta=rng.uniform(0.2, 1.3))
    electric = dict(base, walk="electric-dtqw", theta=rng.uniform(0.2, 1.3), phi_e=rng.uniform(0.01, 0.3))
    return [Op(cfg, "run", work) for cfg in (ssqw, dtqw, electric)]


def _certify_pool(rng: random.Random) -> list[Op]:
    base = {"schema_version": 1, "steps": CERTIFY_STEPS, "half_width": CERTIFY_HALF_WIDTH}
    work = _sites(CERTIFY_HALF_WIDTH) * CERTIFY_STEPS

    def ssqw():
        return dict(base, walk="ssqw", theta1=rng.uniform(-math.pi, math.pi), theta2=rng.uniform(-math.pi, math.pi))

    first, second = ssqw(), ssqw()
    generalized = dict(base, walk="generalized", table1="random", table2="random", seed=rng.randrange(2**31))
    return [Op(cfg, "compile", work) for cfg in (first, second, generalized)]


def _disorder_pool(rng: random.Random) -> list[Op]:
    cfg = {
        "schema_version": 1,
        "walk": "generalized",
        "steps": DISORDER_STEPS,
        "half_width": DISORDER_HALF_WIDTH,
        "table1": "random",
        "table2": "random",
        "seed": rng.randrange(2**31),
    }
    # the ensemble plus the ballistic baseline walk
    work = _sites(DISORDER_HALF_WIDTH) * DISORDER_STEPS * (DISORDER_SEEDS + 1)
    return [Op(cfg, "localize", work)]


_POOLS = {"spread": _spread_pool, "certify": _certify_pool, "disorder": _disorder_pool}


def pool(workload: str, seed: int) -> list[Op]:
    """The ops a run cycles through, generated only from (workload, seed)."""
    # str seeds hash with SHA-512, so the pool is stable across interpreters
    return _POOLS[workload](random.Random(f"oamwalk-bench/{workload}/{seed}"))


def write_configs(ops: list[Op], directory: Path) -> list[dict]:
    """Write each op's config; return each op's argv and output files, by pool slot."""
    plan = []
    for slot, op in enumerate(ops):
        config_path = directory / f"op{slot}.config.json"
        config_path.write_text(json.dumps(op.config, indent=2) + "\n")
        out_path = str(directory / f"op{slot}.out{op.out_suffix}")
        plan.append({"argv": op.argv(str(config_path), out_path), "outputs": op.outputs(out_path)})
    return plan


def digest(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
