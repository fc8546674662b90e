"""Property-based tests over random inputs drawn by hypothesis."""

import dataclasses
import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oamwalk import cli, walk
from oamwalk.compiler import PdcBlock, compile_ssqw, euler_decompose, euler_recompose, su2_normalize, verify
from oamwalk.optics import HalfWavePlate, JPlate, VariableWavePlate

from conftest import random_u2


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 5), half_width=st.integers(1, 40))
def test_batched_site_coin_equals_single_applications(seed, count, half_width):
    """A per-site coin on (S, 2, n) equals S one-walk applications, bit for bit.

    The tables are general U(2) coins with all four angle columns nonzero, so
    the complex products have nonzero imaginary parts on both sides.
    """
    rng = np.random.default_rng(seed)
    n = 2 * half_width + 1
    tables = [walk.CoinTable(-half_width, *rng.uniform(0.1, 3.0, (4, n)) * rng.choice([-1, 1], (4, n)))
              for _ in range(count)]
    amps = rng.normal(size=(count, 2, n)) + 1j * rng.normal(size=(count, 2, n))
    batched = walk._coin(amps, np.stack([walk._site_coefficients(t) for t in tables]))
    for s, t in enumerate(tables):
        single = walk.apply_coin(walk.WalkerState(-half_width, amps[s]), t).amps
        assert np.array_equal(batched[s], single)
        # the per-site einsum form earlier releases used, and that recorded outputs rest on
        assert np.array_equal(single, np.einsum("xij,jx->ix", t.matrices(), amps[s]))


# --- parts-list records ------------------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def pdc_blocks(draw):
    n = draw(st.integers(1, 6))
    rows = st.lists(st.tuples(finite, finite, finite), min_size=n, max_size=n)
    return PdcBlock(draw(st.integers(-10**6, 10**6)), np.array(draw(rows)), np.array(draw(rows)))


elements = st.one_of(
    st.builds(JPlate, st.integers(-3, 3), finite, st.integers(-3, 3), finite, finite),
    st.builds(HalfWavePlate, finite),
    st.builds(VariableWavePlate, finite),
    pdc_blocks(),
)


def explicit_record(element, order, provenance):
    """A parts-list record spelled out per element type, parameter by parameter."""
    if isinstance(element, JPlate):
        kind, params = "jplate", {
            "m_x": element.m_x,
            "c_x": element.c_x,
            "m_y": element.m_y,
            "c_y": element.c_y,
            "angle": element.angle,
        }
    elif isinstance(element, HalfWavePlate):
        kind, params = "half_waveplate", {"angle": element.angle}
    elif isinstance(element, VariableWavePlate):
        kind, params = "variable_waveplate", {"retardance": element.retardance}
    else:
        kind, params = "pdc_block", {
            "lattice_min": element.lattice_min,
            "hwp_angle": 0.0,
            "q2": element.q2.tolist(),
            "q1": element.q1.tolist(),
        }
    return {"order": order, "element_type": kind, "parameters": params, "provenance": provenance}


@settings(max_examples=150, deadline=None)
@given(element=elements, order=st.integers(0, 10), provenance=st.text(max_size=20))
def test_element_record_matches_explicit_record(element, order, provenance):
    record = cli.element_to_record(element, order, provenance)
    expect = explicit_record(element, order, provenance)
    assert record == expect
    # the bytes the parts list holds: -0.0 and int/float distinctions included
    assert json.dumps(record, sort_keys=True) == json.dumps(expect, sort_keys=True)


@settings(max_examples=150, deadline=None)
@given(element=elements)
def test_element_record_round_trips_through_json(element):
    text = json.dumps(cli.element_to_record(element, 0, "p"), indent=2, sort_keys=True)
    rebuilt = cli.element_from_record(json.loads(text))
    assert type(rebuilt) is type(element)
    for field in dataclasses.fields(element):
        got, want = getattr(rebuilt, field.name), getattr(element, field.name)
        assert type(got) is type(want), field.name
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), field.name


# --- the compiler over U(2) --------------------------------------------------

seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=200, deadline=None)
@given(seed=seeds)
def test_haar_u2_euler_round_trip(seed):
    u = random_u2(np.random.default_rng(seed))
    su, chi = su2_normalize(u)
    angles = euler_decompose(su)
    assert 0.0 <= angles.gamma2 <= math.pi
    assert np.max(np.abs(euler_recompose(angles) - su)) < 1e-12
    assert np.max(np.abs(np.exp(1j * chi) * euler_recompose(angles) - u)) < 1e-12


@st.composite
def near_degenerate_coins(draw):
    """A U(2) coin whose diagonal or off-diagonal magnitude lies in [1e-14, 1e-10].

    That spans both sides of the 1e-12 thresholds at which euler_decompose
    and column_params switch to their degenerate conventions.
    """
    small = 10.0 ** draw(st.floats(-14, -10))
    big = math.sqrt(1.0 - small**2)
    phase_a, phase_b, chi = (draw(st.floats(-math.pi, math.pi)) for _ in range(3))
    a, b = big * np.exp(1j * phase_a), small * np.exp(1j * phase_b)
    if draw(st.booleans()):
        a, b = b, a
    su = np.array([[a, b], [-np.conj(b), np.conj(a)]])
    return np.exp(1j * chi) * su


@settings(max_examples=100, deadline=None)
@given(u=near_degenerate_coins())
def test_near_degenerate_euler_round_trip(u):
    su, chi = su2_normalize(u)
    angles = euler_decompose(su)
    # the degenerate branch drops a phase on an entry below 1e-12, so up to 2e-12
    assert np.max(np.abs(euler_recompose(angles) - su)) < 3e-12


@settings(max_examples=120, deadline=None)
@given(
    c1=st.one_of(near_degenerate_coins(), seeds.map(lambda s: random_u2(np.random.default_rng(s)))),
    c2=st.one_of(near_degenerate_coins(), seeds.map(lambda s: random_u2(np.random.default_rng(s)))),
)
def test_compiled_split_step_verifies(c1, c2):
    half_width = 6
    report = verify(compile_ssqw(c1, c2), walk.split_step_operator(c1, c2, half_width))
    assert report.passed and report.fidelity >= 1 - 1e-10


# --- the run summary's total --------------------------------------------------

SMALLEST_NORMAL = 2.2250738585072014e-308


def sparse_distribution(rng, shape, scale, zero_share, subnormal_share):
    p = rng.random(shape) * 10.0**scale
    p[rng.random(shape) < subnormal_share] = rng.random() * SMALLEST_NORMAL
    p[rng.random(shape) < zero_share] = 0.0
    return p


@settings(max_examples=150, deadline=None)
@given(seed=seeds, n=st.integers(1, 3000), scale=st.floats(-320, 0),
       zero_share=st.floats(0, 1), subnormal_share=st.floats(0, 1))
def test_accumulated_total_is_the_sequential_sum(seed, n, scale, zero_share, subnormal_share):
    """The last running sum of ``np.add.accumulate`` is the left-to-right sum, bit for bit.

    ``run`` reports this total; Python's ``sum`` is not a fixed definition of
    it (3.12 compensates), numpy's ``sum`` adds pairwise.
    """
    p = sparse_distribution(np.random.default_rng(seed), n, scale, zero_share, subnormal_share)
    total = 0.0
    for v in p.tolist():
        total += v
    assert float(np.add.accumulate(p)[-1]).hex() == total.hex()


@settings(max_examples=150, deadline=None)
@given(seed=seeds, height=st.integers(1, 40), n=st.integers(1, 3000), scale=st.floats(-320, 0),
       zero_share=st.floats(0, 1), subnormal_share=st.floats(0, 1))
def test_block_reductions_equal_lone_rows(seed, height, n, scale, zero_share, subnormal_share):
    """Moments and running-sum totals of a block of distributions are each row's own, bit for bit.

    ``run`` reduces its distributions in blocks and relies on this.
    """
    rng = np.random.default_rng(seed)
    block = sparse_distribution(rng, (height, n), scale, zero_share, subnormal_share)
    block[np.arange(height), rng.integers(0, n, height)] = rng.random(height) + SMALLEST_NORMAL  # no empty rows
    sites = np.arange(n) - n // 2
    means, variances = walk.site_moments(block, sites)
    totals = np.add.accumulate(block, axis=-1)[:, -1]
    for row, mean, var, total in zip(block, means.tolist(), variances.tolist(), totals.tolist(), strict=True):
        lone_mean, lone_var = (float(m) for m in walk.site_moments(row, sites))
        assert (mean.hex(), var.hex()) == (lone_mean.hex(), lone_var.hex())
        assert total.hex() == float(np.add.accumulate(row)[-1]).hex()
