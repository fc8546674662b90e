"""Homogeneous walks against the long-time limits of their Fourier symbol (``symbol_oracle``)."""

import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oamwalk import cli

from symbol_oracle import spreading_limits

#: |mean/T - vbar| and |variance/T^2 - sigma2bar| shrink as C/T.  Over 400 random plain and split-step
#: walks (angles and coin states uniform) the largest C was 0.61 for the mean and 0.49 for the variance
#: at T=200.  ROADMAP item 8 measured a largest mean error of 2.5e-3 at T=200 (C = 0.50) and a largest relative
#: variance error 2.1e-3 at T=800 (C = 1.68 on a variance/T^2 of at most 1).
MEAN_C, VARIANCE_C = 1.5, 3.5
STEPS = 200

angles = st.floats(-math.pi, math.pi)


@st.composite
def coin_states(draw):
    """A normalized coin state as a config's ``coin_state``: [[re, im], [re, im]]."""
    mix, phase = draw(st.floats(0.0, math.pi / 2)), draw(angles)
    return [[math.cos(mix), 0.0], [math.sin(mix) * math.cos(phase), math.sin(mix) * math.sin(phase)]]


def last_moments(config: dict) -> tuple[float, float]:
    """Mean and variance in the last row of ``run``'s summary for ``config``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "walk.json"
        path.write_text(json.dumps({"schema_version": 1, **config}))
        assert cli.main(["run", "--config", str(path), "--out", str(Path(tmp) / "dist.csv")]) == 0
        row = json.loads((Path(tmp) / "dist.summary.json").read_text())["moments"][-1]
    assert row["t"] == config["steps"]
    return row["mean"], row["variance"]


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["dtqw", "ssqw"]), theta1=angles, theta2=angles, coin=coin_states())
def test_run_spreads_as_its_symbol_predicts(kind, theta1, theta2, coin):
    keys = {"theta": theta1} if kind == "dtqw" else {"theta1": theta1, "theta2": theta2}
    mean, variance = last_moments({"walk": kind, "steps": STEPS, "half_width": STEPS + 2, "coin_state": coin,
                                   **keys})
    vbar, sigma2 = spreading_limits(kind, theta1, theta2, [complex(*c) for c in coin])
    assert abs(mean / STEPS - vbar) <= MEAN_C / STEPS
    assert abs(variance / STEPS**2 - sigma2) <= VARIANCE_C / STEPS


def test_balanced_plain_walk_variance():
    """The plain walk at theta = pi/4 from the equal real coin state spreads as sigma^2/T^2 -> 1 - 1/sqrt(2)."""
    steps, r = 800, 1 / math.sqrt(2)
    _, sigma2 = spreading_limits("dtqw", math.pi / 4, 0.0, (r, r))
    assert sigma2 == pytest.approx(1 - r, rel=1e-12)
    _, variance = last_moments({"walk": "dtqw", "theta": math.pi / 4, "steps": steps, "half_width": steps + 2})
    assert variance / steps**2 == pytest.approx(1 - r, rel=3e-6)


def test_localize_baseline_spreads_as_its_symbol_predicts():
    """``localize``'s ballistic baseline, the plain walk at theta = pi/4 from the default equal real coin state.

    sigma/T - sqrt(sigma2bar) read 1.2e-5 at T=200 and falls about as 1/T^2.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "ensemble.json", Path(tmp) / "loc.json"
        path.write_text(json.dumps({"schema_version": 1, "walk": "generalized", "steps": STEPS,
                                    "half_width": STEPS + 2, "seed": 1}))
        assert cli.main(["localize", "--config", str(path), "--seeds", "1", "--out", str(out)]) == 0
        ballistic = json.loads(out.read_text())["sigma_ballistic"]
    r = 1 / math.sqrt(2)
    _, sigma2 = spreading_limits("dtqw", math.pi / 4, 0.0, (r, r))
    assert len(ballistic) == STEPS + 1
    assert abs(ballistic[-1] / STEPS - math.sqrt(sigma2)) <= 1e-4
