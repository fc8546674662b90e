"""Walks against their Fourier symbol (``symbol_oracle``): homogeneous and electric walks' long-time limits,
and the electric walk's amplitudes step by step."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oamwalk import cli, walk

from symbol_oracle import electric_spreading_limits, electric_symbol, spreading_limits

#: |mean/T - vbar| and |variance/T^2 - sigma2bar| shrink as C/T.  Over 400 random plain and split-step
#: walks (angles and coin states uniform) the largest C was 0.61 for the mean and 0.49 for the variance
#: at T=200.  ROADMAP item 8 measured a largest mean error of 2.5e-3 at T=200 (C = 0.50) and a largest relative
#: variance error 2.1e-3 at T=800 (C = 1.68 on a variance/T^2 of at most 1).
MEAN_C, VARIANCE_C = 1.5, 3.5
STEPS = 200

#: The same errors C/T of the electric walk at phi_e = 2*pi*p/q and T = q*ceil(200/q), against its q-step
#: symbol on 1024 k points (quadrature error at most 3e-4 against 16384 points over 300 draws).  Over 2000 draws
#: (theta uniform, q uniform in 1..8, p in 0..q-1, coin states as below) the largest C was 1.63 for the mean and
#: 2.72 for the variance.  Coins near the identity converge slowest: over grids within 1e-6..0.5 of theta = 0, pi/2
#: and pi, and 2000 more draws with |theta| in 0.004..0.08, it was 2.26 and 4.00 (theta near 0.01, q = 7).
#: The bounds are about twice those.
ELECTRIC_MEAN_C, ELECTRIC_VARIANCE_C = 4.5, 8.0

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


@settings(max_examples=200, deadline=None)
@given(theta=angles, field=st.integers(1, 8).flatmap(lambda q: st.tuples(st.integers(0, q - 1), st.just(q))),
       coin=coin_states())
def test_electric_walk_spreads_as_its_q_step_symbol_predicts(theta, field, coin):
    """``distribution_blocks``' last moments of the electric walk at phi_e = 2*pi*p/q against its q-step symbol."""
    p, q = field
    steps = q * math.ceil(STEPS / q)
    coin_state = tuple(complex(*c) for c in coin)
    spec = walk.WalkSpec("electric-dtqw", steps, steps + 2, theta1=theta, phi_e=2 * math.pi * p / q,
                         coin_state=coin_state)
    *_, (_, _, means, variances, _) = walk.distribution_blocks([spec])
    vbar, sigma2 = electric_spreading_limits(theta, p, q, coin_state, points=1024)
    assert abs(means[-1, 0] / steps - vbar) <= ELECTRIC_MEAN_C / steps
    assert abs(variances[-1, 0] / steps**2 - sigma2) <= ELECTRIC_VARIANCE_C / steps


@settings(max_examples=100, deadline=None)
@given(theta=angles, phi=st.floats(-4 * math.pi, 4 * math.pi), steps=st.integers(1, 12), start=st.integers(-3, 3),
       coin=coin_states())
def test_electric_steps_follow_their_symbol(theta, phi, steps, start, coin):
    """The electric walk's state psi_T(k) = U(k - phi) ... U(k - T*phi) psi_0(k - T*phi), exactly.

    The moments above cannot tell where each step's field phase goes or its sign: a phase applied before
    the step changes no probability from a delta start, and phi and -phi have the same limits.  The
    amplitudes can: the first would give U(k) ... U(k - (T-1)*phi), the second U(k + phi) ... U(k + T*phi).
    """
    c = np.array([complex(*a) for a in coin])
    spec = walk.WalkSpec("electric-dtqw", steps, steps + 5, theta1=theta, phi_e=phi, coin_state=tuple(c),
                         start=start)
    *_, last = walk.iterate(spec)
    k = np.linspace(-math.pi, math.pi, 16, endpoint=False)
    fourier = np.exp(-1j * np.outer(k, last.sites)) @ last.amps.T  # psi(k) = sum_x exp(-i*k*x) psi(x)
    v, _ = electric_symbol(theta, phi, steps, k)
    expected = (v @ c) * np.exp(-1j * (k - steps * phi) * start)[:, np.newaxis]
    assert np.max(np.abs(fourier - expected)) <= 1e-12
