"""Property-based tests over random inputs drawn by hypothesis."""

import dataclasses
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oamwalk import cli, optics, walk
from oamwalk.compiler import PdcBlock, compile_ssqw, euler_decompose, euler_recompose, su2_normalize, verify
from oamwalk.optics import HalfWavePlate, JPlate, VariableWavePlate

from conftest import random_u2
from test_walk import coin_product, landed, reference_moments, reference_step, site_coefficients


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


#: Each element type's fields, each with a value the element holds.
ELEMENT_FIELDS = {
    JPlate: {"m_x": -1, "c_x": 0.5, "m_y": 2, "c_y": -0.25, "angle": 1.0},
    HalfWavePlate: {"angle": 0.3},
    VariableWavePlate: {"retardance": 0.75},
    PdcBlock: {"lattice_min": -1, "q2": [[0.1, 0.2, 0.3]] * 3, "q1": [[0.0, math.pi, 1.5]] * 3},
}
INTEGER_FIELDS = {"m_x", "m_y", "lattice_min"}
#: Values no field holds; the integer fields also refuse a fraction.
NOT_NUMBERS = [True, False, "a", "0.5", None, math.nan, math.inf, -math.inf]
BAD_FIELDS = [(cls, name, bad) for cls, fields in ELEMENT_FIELDS.items() for name in fields
              for bad in NOT_NUMBERS + [2.5] * (name in INTEGER_FIELDS)]
BAD_FIELDS += [(PdcBlock, name, [[0.1, 0.2, 0.3], [0.1, bad, 0.3], [0.1, 0.2, 0.3]])
               for name in ("q2", "q1") for bad in NOT_NUMBERS]


@pytest.mark.parametrize("cls, name, bad", BAD_FIELDS,
                         ids=[f"{cls.__name__}-{name}-{bad!r}" for cls, name, bad in BAD_FIELDS])
def test_elements_refuse_a_field_they_cannot_hold(cls, name, bad):
    with pytest.raises((TypeError, ValueError), match=name):
        cls(**{**ELEMENT_FIELDS[cls], name: bad})


@settings(max_examples=200, deadline=None)
@given(data=st.data(), field=st.sampled_from([(cls, name) for cls, fields in ELEMENT_FIELDS.items()
                                              for name in fields if name not in ("q2", "q1")]))
def test_elements_keep_a_field_they_hold_with_its_type(data, field):
    cls, name = field
    value = data.draw(st.integers(-10**6, 10**6) if name in INTEGER_FIELDS
                      else st.one_of(st.integers(-10**6, 10**6), finite))
    got = getattr(cls(**{**ELEMENT_FIELDS[cls], name: value}), name)
    assert type(got) is type(value) and got == value


@pytest.mark.parametrize("bad", [1.5, True, "3"], ids=repr)
@pytest.mark.parametrize("name", ["steps", "half_width", "start", "seed"])
def test_walk_spec_refuses_a_count_that_is_no_integer(name, bad):
    with pytest.raises(ValueError, match=f"{name} must be an integer, got {bad!r}"):
        walk.WalkSpec("dtqw", **{"steps": 3, "half_width": 8, "start": 0, "seed": 1, name: bad})


def test_walk_spec_reads_an_integral_float_as_that_integer():
    spec = walk.WalkSpec("dtqw", 3.0, 8.0, start=-1.0, seed=2.0)
    assert [(type(v), v) for v in (spec.steps, spec.half_width, spec.start, spec.seed)] == [(int, 3), (int, 8),
                                                                                            (int, -1), (int, 2)]


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.floats(), min_size=1, max_size=12))
def test_float_array_reads_as_its_entries_do(values):
    """A float array, checked in one pass, is refused with the words, or read as the values, of its entries."""
    def read(values):
        try:
            return optics._as_reals("q2 entry", values)
        except ValueError as err:
            return str(err)

    fast, by_entry = read(np.array(values)), read(values)
    if isinstance(by_entry, str):
        assert fast == by_entry
    else:
        assert fast.dtype == by_entry.dtype == np.float64 and np.array_equal(fast, by_entry)
        assert not fast.flags.writeable and not by_entry.flags.writeable


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


# --- light-cone ensembles and the per-site coin --------------------------------


def general_tables(rng, count, half_width):
    """U(2) coin tables with all four angle columns nonzero (chi, xi, eta as well as theta)."""
    n = 2 * half_width + 1
    return [walk.CoinTable(-half_width, *rng.uniform(0.1, 3.0, (4, n)) * rng.choice([-1, 1], (4, n)))
            for _ in range(count)]


@settings(max_examples=80, deadline=None)
@given(seed=seeds, kind=st.sampled_from(sorted(walk.STEP_MOVES)), count=st.integers(1, 4),
       steps=st.integers(0, 30), start=st.integers(-12, 12))
def test_light_cone_ensemble_equals_full_width_reference(seed, kind, count, steps, start):
    """Every array ``iterate_ensemble`` yields equals a chain of full-width reference steps.

    So does every block of ``distribution_blocks``: its rows are the
    references' site probabilities and moments, it is zero outside the cone
    it yields, and it holds ``max(1, BLOCK_ROWS // S)`` steps (fewer only at
    the end).  The lattice is the smallest the spec allows, so the last
    light-cone windows reach the guard margin.
    """
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
    nrm = math.hypot(abs(a), abs(b))
    spec = walk.WalkSpec(kind, steps, 1, coin_state=(a / nrm, b / nrm), start=start,
                         theta1=rng.uniform(-3, 3), theta2=rng.uniform(-3, 3),
                         phi_e=rng.uniform(-3, 3) if kind == "electric-dtqw" else 0.0)
    spec = dataclasses.replace(spec, half_width=spec.required_half_width())
    if kind == "generalized":
        tables = general_tables(rng, 2 * count, spec.half_width)
        members = [dataclasses.replace(spec, table1=t1, table2=t2) for t1, t2 in zip(tables[::2], tables[1::2])]
    else:
        members = [spec] * count
    refs, probabilities = [m.initial_state().amps for m in members], []
    for t, batch in enumerate(walk.iterate_ensemble(members)):
        if t:
            refs = [reference_step(r, m) for r, m in zip(refs, members)]
        for row, ref in zip(batch, refs, strict=True):
            assert np.array_equal(row, ref), t
            assert walk.site_probabilities(row).tobytes() == walk.site_probabilities(ref).tobytes(), t
        probabilities.append([walk.site_probabilities(ref) for ref in refs])

    sites, height, t = np.arange(-spec.half_width, spec.half_width + 1), max(1, walk.BLOCK_ROWS // count), 0
    for t0, p, means, variances, cone in walk.distribution_blocks(members):
        assert (t0, len(p)) == (t, min(height, steps + 1 - t))
        expected = np.array(probabilities[t0:t0 + len(p)])
        assert p.tobytes() == expected.tobytes(), t0
        assert not p[..., :cone.start].any() and not p[..., cone.stop:].any(), t0
        lone = [walk.site_moments(q, sites) for q in expected.reshape(-1, sites.size)]
        assert means.tobytes() == np.array([m for m, _ in lone]).tobytes(), t0
        assert variances.tobytes() == np.array([v for _, v in lone]).tobytes(), t0
        t += len(p)
    assert t == steps + 1


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(sorted(walk.STEP_MOVES)), steps=st.integers(0, 80), start=st.integers(-60, 60),
       extra=st.integers(0, 40))
def test_validated_light_cones_keep_clear_of_the_edges(kind, steps, start, extra):
    """Validation is the one check that a configured walk fits its lattice.

    At every half-width it accepts, each light cone up to the last keeps 2
    sites clear of each edge, so the ensemble kernel's unguarded shifts never
    reach one; at the smallest it accepts the last cone touches that margin,
    and one site less raises with the required half-width.
    """
    spec = walk.WalkSpec(kind, steps, 1, start=start, seed=0)
    need = spec.required_half_width()
    spec = dataclasses.replace(spec, half_width=need + extra)
    spec.validate()
    n = 2 * spec.half_width + 1
    for k in range(steps + 1):
        cone = walk._light_cone(spec, k)
        assert 2 <= cone.start < cone.stop <= n - 2, k
    if not extra:
        assert cone.start == 2 or cone.stop == n - 2
    with pytest.raises(walk.LatticeGuardError) as err:
        dataclasses.replace(spec, half_width=need - 1).validate()
    assert err.value.required_half_width == need


@settings(max_examples=100, deadline=None)
@given(seed=seeds, count=st.integers(1, 5), half_width=st.integers(0, 60), zero_share=st.floats(0, 1))
def test_batched_site_coin_equals_single_applications(seed, count, half_width, zero_share):
    """A per-site coin on (S, 2, n) equals S one-walk applications and the earlier forms, byte for byte.

    The tables are general U(2) coins with all four angle columns nonzero, so
    the complex products have nonzero imaginary parts on both sides.  The
    amplitudes span 1e-300 to 1e300 and include exact zeros.  The earlier
    forms, which recorded outputs rest on, are the elementwise ``...ijx``
    products plus an add, and the ``xij,jx->ix`` reduction.  Computed on a
    window outside which the amplitudes vanish, the columns inside are the
    same and the rest are zero.  Landed through a move's shifted view, the
    product keeps its bytes, one column over.
    """
    rng = np.random.default_rng(seed)
    n = 2 * half_width + 1
    tables = general_tables(rng, count, half_width)
    coin = np.stack([site_coefficients(t) for t in tables])
    amps = (rng.choice([-1, 1], (count, 2, n)) * 10.0 ** rng.uniform(-300, 300, (count, 2, n))
            + 1j * rng.choice([-1, 1], (count, 2, n)) * 10.0 ** rng.uniform(-300, 300, (count, 2, n)))
    amps[rng.random((count, 2, n)) < zero_share] = 0.0
    got = coin_product(amps, coin)
    terms = np.einsum("...ijx,...jx->...ijx", coin, amps)
    assert got.tobytes() == (terms[..., 0, :] + terms[..., 1, :]).tobytes()
    for s, t in enumerate(tables):
        assert got[s].tobytes() == coin_product(amps[s], site_coefficients(t)).tobytes()
        assert got[s].tobytes() == np.einsum("xij,jx->ix", t.matrices(), amps[s]).tobytes()
    lo, hi = sorted(rng.integers(0, n + 1, 2))
    inside = np.zeros_like(amps)
    inside[..., lo:hi] = amps[..., lo:hi]
    windowed = coin_product(inside, coin, slice(lo, hi))
    assert windowed[..., lo:hi].tobytes() == got[..., lo:hi].tobytes()
    assert not windowed[..., :lo].any() and not windowed[..., hi:].any()
    buffer = landed(amps, coin, True, True)
    assert buffer[..., 0, :n].tobytes() == got[..., 0, :].tobytes()
    assert buffer[..., 1, 2:].tobytes() == got[..., 1, :].tobytes()


# --- run and localize documents against full-width reductions -----------------


#: Moments json spells specially or at the ends of the float range, among arbitrary floats.
SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308]
moment_floats = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))
#: Variances ``run`` can take a square root of: none is negative, but -0.0, NaN and inf are possible.
variance_floats = st.one_of(st.floats(min_value=0.0), st.sampled_from([math.nan, math.inf, -0.0, 5e-324, 1e308]))


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(sorted(walk.STEP_MOVES)), steps=st.integers(0, 40), half_width=st.integers(1, 10**6),
       data=st.data())
def test_summary_template_writes_json_dumps(kind, steps, half_width, data):
    """``run``'s summary template writes the text ``json.dumps(summary, indent=2, sort_keys=True)`` writes.

    For every walk kind, and moments that hold NaN, +-inf, -0.0, the
    smallest subnormal and 1e308 among arbitrary floats, so the template
    keeps json's spelling of each float, ``float.__repr__`` or NaN, Infinity
    and -Infinity.  Sigma is ``math.sqrt`` of the variance, as the mapping
    of earlier releases took it.
    """
    rows = st.lists(st.tuples(moment_floats, variance_floats, moment_floats), min_size=steps + 1,
                    max_size=steps + 1)
    means, variances, totals = (np.array(column, dtype=np.float64) for column in zip(*data.draw(rows)))
    moments = [{"t": t, "mean": m, "variance": v, "sigma": math.sqrt(v), "total": total}
               for t, (m, v, total) in enumerate(zip(means.tolist(), variances.tolist(), totals.tolist()))]
    summary = {"schema_version": 1, "walk": kind, "steps": steps, "half_width": half_width, "moments": moments}
    text = cli._summary_text(walk.WalkSpec(kind, steps, half_width), means, variances, totals)
    assert text == json.dumps(summary, indent=2, sort_keys=True) + "\n"


def table_config(table):
    return {name: getattr(table, name).tolist() for name in ("chi", "xi", "eta", "theta")}


def full_width_sigmas(specs, sites):
    """(T+1, S) spreads from the whole-lattice distributions of ``iterate_ensemble``'s arrays."""
    return np.array([np.sqrt(reference_moments(walk.site_probabilities(a), sites)[1])
                     for a in walk.iterate_ensemble(specs)])


@settings(max_examples=60, deadline=None)
@given(seed=seeds, kind=st.sampled_from(sorted(walk.STEP_MOVES)), steps=st.integers(1, 24),
       start=st.integers(-10, 10), n_seeds=st.integers(1, 20), emit_trajectory=st.booleans(),
       emit_all_sites=st.booleans())
def test_run_and_localize_documents_equal_full_width_reductions(seed, kind, steps, start, n_seeds, emit_trajectory,
                                                                emit_all_sites):
    """``run`` and ``localize`` write the bytes of documents reduced over the whole lattice.

    Both reduce each state over its light cone only.  The lattice is the
    smallest the spec allows, so the last light cones reach the guard
    margin; ``localize`` draws its members' second tables from their seeds,
    so the members differ.
    """
    rng = np.random.default_rng(seed)
    half_width = abs(start) + steps + 2
    a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
    nrm = math.hypot(abs(a), abs(b))
    coin = [[c.real, c.imag] for c in (a / nrm, b / nrm)]
    t1, t2 = (table_config(t) for t in general_tables(rng, 2, half_width))
    base = {"schema_version": 1, "steps": steps, "half_width": half_width, "start": start, "coin_state": coin}
    kind_keys = {"dtqw": {"theta": rng.uniform(-3, 3)},
                 "ssqw": {"theta1": rng.uniform(-3, 3), "theta2": rng.uniform(-3, 3)},
                 "generalized": {"table1": t1, "table2": t2},
                 "electric-dtqw": {"theta": rng.uniform(-3, 3), "phi_e": rng.uniform(-3, 3)}}[kind]
    run_cfg = {**base, "walk": kind, "emit_trajectory": emit_trajectory, "emit_all_sites": emit_all_sites,
               **kind_keys}
    loc_cfg = {**base, "walk": "generalized", "seed": seed % 1000, "table1": t1, "table2": "random"}
    sites = np.arange(-half_width, half_width + 1)

    spec = cli.build_spec(run_cfg)
    lines, moments = ["t,x,P"], []
    for t, amps in enumerate(walk.iterate_ensemble([spec])):
        p = walk.site_probabilities(amps[0])
        mean, var = (float(m) for m in reference_moments(p, sites))
        total = 0.0
        for v in p.tolist():
            total += v
        moments.append({"t": t, "mean": mean, "variance": var, "sigma": math.sqrt(var), "total": total})
        if emit_trajectory or t == steps:
            lines += [f"{t},{x},{v:.17g}" for x, v in zip(sites.tolist(), p.tolist()) if emit_all_sites or v > 0.0]
    summary = {"schema_version": 1, "walk": kind, "steps": steps, "half_width": half_width, "moments": moments}

    loc_spec = cli.build_spec(loc_cfg)
    seed_list = [loc_spec.seed + i for i in range(n_seeds)]
    per_seed = full_width_sigmas([dataclasses.replace(loc_spec, seed=s) for s in seed_list], sites).T.tolist()
    mean = np.mean(np.asarray(per_seed), axis=0).tolist()
    baseline = walk.WalkSpec("dtqw", steps, half_width, coin_state=loc_spec.coin_state, start=start,
                             theta1=math.pi / 4)
    ballistic = full_width_sigmas([baseline], sites)[:, 0].tolist()
    loc = {"schema_version": 1, "walk": "generalized", "steps": steps, "half_width": half_width,
           "ensemble": n_seeds, "seeds": seed_list, "sigma_per_seed": per_seed, "sigma_ensemble_mean": mean,
           "sigma_ballistic": ballistic, "final_ratio": mean[-1] / ballistic[-1]}

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "run.json").write_text(json.dumps(run_cfg))
        (tmp / "loc.json").write_text(json.dumps(loc_cfg))
        assert cli.main(["run", "--config", str(tmp / "run.json"), "--out", str(tmp / "dist.csv")]) == 0
        assert cli.main(["localize", "--config", str(tmp / "loc.json"), "--seeds", str(n_seeds),
                         "--out", str(tmp / "out.json")]) == 0
        assert (tmp / "dist.csv").read_bytes() == ("\n".join(lines) + "\n").encode()
        assert (tmp / "dist.summary.json").read_bytes() == (json.dumps(summary, indent=2, sort_keys=True) + "\n").encode()
        assert (tmp / "out.json").read_bytes() == (json.dumps(loc, indent=2, sort_keys=True) + "\n").encode()
