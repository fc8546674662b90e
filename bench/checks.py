"""Output checks of the benchmark and its own reference walk.

Everything here runs outside the timed region.  The reference walk is a
short numpy re-implementation of the four step rules; it deliberately does
not import ``oamwalk.walk``, so it checks the program rather than itself.
"""

from __future__ import annotations

import json
import math

import numpy as np

TOTAL_TOL = 1e-12
FIDELITY_FLOOR = 1.0 - 1e-10
REFERENCE_TOL = 1e-12


# --- reference walk ------------------------------------------------------------


def _coin(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -1j * s], [-1j * s, c]])


def _table_coin(amps: np.ndarray, theta: np.ndarray) -> np.ndarray:
    # exp(i*theta*s2) per site: the random-disorder tables set chi = xi = eta = 0
    c, s = np.cos(theta), np.sin(theta)
    return np.stack([c * amps[0] + s * amps[1], c * amps[1] - s * amps[0]])


def _left(amps: np.ndarray) -> np.ndarray:
    out = amps.copy()
    out[0, :-1], out[0, -1] = amps[0, 1:], 0.0
    return out


def _right(amps: np.ndarray) -> np.ndarray:
    out = amps.copy()
    out[1, 1:], out[1, 0] = amps[1, :-1], 0.0
    return out


def reference_probability(cfg: dict) -> np.ndarray:
    """Final P(x) on [-L, L] of the walk a ``run``/``localize`` config describes.

    A generalized config stands for its first ensemble member: both tables
    are drawn from ``cfg["seed"]`` (theta uniform on [0, 2*pi), site order).
    """
    half_width, steps, kind = cfg["half_width"], cfg["steps"], cfg["walk"]
    n = 2 * half_width + 1
    amps = np.zeros((2, n), dtype=complex)
    amps[:, half_width] = 1.0 / math.sqrt(2.0)
    x = np.arange(-half_width, half_width + 1)
    if kind == "generalized":
        rng = np.random.default_rng(cfg["seed"])
        theta1 = rng.uniform(0.0, 2.0 * math.pi, size=n)
        theta2 = rng.uniform(0.0, 2.0 * math.pi, size=n)
    if kind == "electric-dtqw":
        phases = np.exp(1j * (math.remainder(cfg["phi_e"], 2.0 * math.pi) * x))
    for _ in range(steps):
        if kind == "ssqw":
            amps = _right(_coin(cfg["theta2"]) @ _left(_coin(cfg["theta1"]) @ amps))
        elif kind == "generalized":
            amps = _right(_table_coin(_left(_table_coin(amps, theta1)), theta2))
        else:
            amps = _right(_left(_coin(cfg["theta"]) @ amps))
            if kind == "electric-dtqw":
                amps = amps * phases
    return np.sum(np.abs(amps) ** 2, axis=0)


def _sigma(p: np.ndarray) -> float:
    x = np.arange(p.size) - (p.size - 1) // 2
    mean = x @ p / p.sum()
    return math.sqrt((x - mean) ** 2 @ p / p.sum())


def reference_spread(cfg: dict, outputs: list[bytes]) -> str | None:
    """Compare the final CSV distribution of a ``run`` op with the reference."""
    want = reference_probability(cfg)
    got = np.zeros_like(want)
    half_width = cfg["half_width"]
    for line in outputs[0].decode().splitlines()[1:]:
        _, x, p = line.split(",")
        got[int(x) + half_width] = float(p)
    err = float(np.max(np.abs(got - want)))
    return None if err <= REFERENCE_TOL else f"final distribution differs from the reference walk by {err:.3e}"


def reference_disorder(cfg: dict, outputs: list[bytes]) -> str | None:
    """Compare the final sigma of the first ensemble member (the config's seed) with the reference.

    The tolerance is relative to sigma, since the output holds sigma(t), not
    the distribution itself.
    """
    want = _sigma(reference_probability(cfg))
    got = json.loads(outputs[0])["sigma_per_seed"][0][-1]
    err = abs(got - want) / max(1.0, want)
    return None if err <= REFERENCE_TOL else f"final sigma of seed {cfg['seed']} differs from the reference walk by {err:.3e} (relative)"


REFERENCE = {"spread": reference_spread, "disorder": reference_disorder}


# --- per-output content checks -------------------------------------------------


def check_spread(outputs: list[bytes], cli) -> str | None:
    summary = json.loads(outputs[1])
    worst = max(abs(m["total"] - 1.0) for m in summary["moments"])
    if worst > TOTAL_TOL:
        return f"summary total deviates from 1 by {worst:.3e}"
    return None


def check_certify(outputs: list[bytes], cli) -> str | None:
    doc = json.loads(outputs[0])
    for block in doc["step_blocks"]:
        report = block["verification"]
        if not report["passed"] or report["fidelity"] < FIDELITY_FLOOR:
            return f"step {block['step']}: passed={report['passed']} fidelity={report['fidelity']!r}"
    steps = cli.parse_parts_list(doc)
    if len(steps) != doc["step_count"]:
        return f"parts list parsed into {len(steps)} steps, expected {doc['step_count']}"
    for block, cs in zip(doc["step_blocks"], steps):
        records = [
            cli.element_to_record(el, order, prov)
            for order, (el, prov) in enumerate(zip(cs.elements, cs.provenance))
        ]
        if records != block["elements"]:
            return f"step {block['step']}: elements do not round-trip through parse_parts_list"
    return None


def check_disorder(outputs: list[bytes], cli) -> str | None:
    doc = json.loads(outputs[0])
    if not doc["final_ratio"] < 1.0:
        return f"final_ratio {doc['final_ratio']!r} is not below 1"
    sigmas = [v for history in doc["sigma_per_seed"] for v in history]
    sigmas += doc["sigma_ensemble_mean"] + doc["sigma_ballistic"]
    if not all(math.isfinite(v) for v in sigmas):
        return "a sigma is not finite"
    return None


CONTENT = {"spread": check_spread, "certify": check_certify, "disorder": check_disorder}
