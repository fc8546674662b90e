"""Acceptance suite: the end-to-end gates, one test per criterion.

Every test prints a single pass/fail line (visible with ``pytest -s``) and
asserts its criterion at the stated tolerance.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import json
import math
import time

import numpy as np

from oamwalk import cli, compiler, walk
from oamwalk.compiler import compile_ssqw, verify
from oamwalk.continuum import WavepacketSpec, continuum_residual, mass_matrix
from oamwalk.optics import (
    JPlate,
    VariableWavePlate,
    compose,
    equal_up_to_phase,
    jplate_pointwise,
    lift,
)
from oamwalk.walk import (
    CoinParams,
    WalkSpec,
    coin_matrix,
    evolve,
    probability,
    spread,
    u2_matrix,
)

from conftest import (
    dense_coin,
    dense_shift_full,
    dense_shift_minus,
    dense_shift_plus,
    random_su2,
    state_vector,
)
from trains import gamma2_variant


def report(num: int, description: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'} - {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_unitarity_all_walk_kinds():
    L, T = 128, 100
    rng = np.random.default_rng(1)
    t1 = walk.CoinTable.random_disorder(L, rng)
    t2 = walk.CoinTable.random_disorder(L, rng)
    specs = [
        WalkSpec("dtqw", T, L, theta1=math.pi / 4),
        WalkSpec("ssqw", T, L, theta1=0.7, theta2=-0.4),
        WalkSpec("generalized", T, L, table1=t1, table2=t2),
        WalkSpec("electric-dtqw", T, L, theta1=math.pi / 4, phi_e=0.6),
    ]
    start = time.perf_counter()
    worst = 0.0
    for spec in specs:
        for state in evolve(spec):
            worst = max(worst, abs(sum(probability(state).values()) - 1.0))
    elapsed = time.perf_counter() - start
    report(
        1,
        "100-step evolutions on L=128 conserve probability within 1e-10 in under 5 s",
        worst <= 1e-10 and elapsed < 5.0,
        f"worst drift {worst:.2e}, {elapsed:.2f} s",
    )


def test_criterion_02_shift_identities():
    L = 16
    minus = lift(JPlate(-1, 0, 0, 0, 0), L)
    plus = lift(JPlate(0, 0, +1, 0, 0), L)
    full = lift(JPlate(-1, 0, +1, 0, 0), L)
    errs = [
        np.max(np.abs(minus - dense_shift_minus(L))),
        np.max(np.abs(plus - dense_shift_plus(L))),
        np.max(np.abs(full - dense_shift_full(L))),
        np.max(np.abs(plus @ minus - full)),
    ]
    report(
        2,
        "lifted half/full-shift plates equal the shift operators entrywise at 1e-14",
        max(errs) <= 1e-14,
        f"worst entry error {max(errs):.2e}",
    )


def test_criterion_03_pdc_factorization_exact():
    rng = np.random.default_rng(2)
    sigma3 = np.diag([1.0, -1.0])
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        p = CoinParams(*rng.uniform(-2 * math.pi, 2 * math.pi, size=4))
        q2, q1 = compiler.pdc_plates(p)
        prod = jplate_pointwise(*q2) @ jplate_pointwise(*q1) @ sigma3
        worst = max(worst, float(np.max(np.abs(prod - u2_matrix(p)))))
    elapsed = time.perf_counter() - start
    report(
        3,
        "1000 random coins factor into two plates and a half-waveplate within 1e-13 in under 1 s",
        worst <= 1e-13 and elapsed < 1.0,
        f"worst entry error {worst:.2e}, {elapsed:.2f} s",
    )


def test_criterion_04_conjugated_half_shift_identity():
    rng = np.random.default_rng(3)
    L = 6
    s_minus = dense_shift_minus(L)
    worst = 1.0
    for _ in range(100):
        c1 = random_su2(rng)
        cp = compiler.column_params(c1)
        train = compose(
            [
                VariableWavePlate(-(math.pi - cp.beta)),
                JPlate(-1, 0.0, 0, 0.0, cp.alpha),
                VariableWavePlate(math.pi - cp.beta),
            ],
            L,
        )
        block = np.kron(c1, np.eye(2 * L + 1))
        ref = block.conj().T @ s_minus @ block
        worst = min(worst, equal_up_to_phase(train, ref).fidelity)
    report(
        4,
        "waveplate-wrapped shift plate equals the coin-conjugated half shift, fidelity >= 1-1e-12",
        worst >= 1 - 1e-12,
        f"worst fidelity 1-{1 - worst:.2e}",
    )


def test_criterion_05_split_step_compilation_and_angle_convention():
    rng = np.random.default_rng(4)
    L = 6
    worst = 1.0
    wrong_passes = 0
    for _ in range(100):
        c1, c2 = random_su2(rng), random_su2(rng)
        ref = walk.split_step_operator(c1, c2, L)
        rep = verify(compile_ssqw(c1, c2), ref)
        worst = min(worst, rep.fidelity)
        if verify(gamma2_variant(c1, c2), ref).passed:
            wrong_passes += 1
    report(
        5,
        "100 random coin pairs compile to 5-element trains at fidelity >= 1-1e-10; "
        "the middle-Euler-angle variant always fails",
        worst >= 1 - 1e-10 and wrong_passes == 0,
        f"worst fidelity 1-{1 - worst:.2e}, wrong-constant passes {wrong_passes}",
    )


def test_criterion_06_split_step_reduces_to_plain_walk():
    L = 16
    theta = 0.83
    delta = np.linalg.norm(
        walk.step_operator(WalkSpec("ssqw", 1, L, theta1=theta, theta2=0.0))
        - walk.step_operator(WalkSpec("dtqw", 1, L, theta1=theta)),
    )
    report(
        6,
        "split step with second coin at zero equals the plain walk operator, ||diff||_F <= 1e-13",
        delta <= 1e-13,
        f"Frobenius diff {delta:.2e}",
    )


def test_criterion_07_symmetric_state_mirror_symmetry():
    # The equal real superposition is this coin convention's symmetric state
    # (see the package notes); the circular state belongs to Hadamard-type
    # coins and walks off to one side here.
    spec = WalkSpec("dtqw", 100, 128, coin_state=walk.SYMMETRIC_COIN, theta1=math.pi / 4)
    p = probability(evolve(spec)[-1])
    asym = max(abs(p[x] - p[-x]) for x in range(1, 101))
    report(
        7,
        "100-step walk from the symmetric coin state has P(x) = P(-x) within 1e-12",
        asym <= 1e-12,
        f"max asymmetry {asym:.2e}",
    )


def test_criterion_08_ballistic_spreading_vs_disorder_localization():
    L, T = 128, 100
    spec = WalkSpec("dtqw", T, L, theta1=math.pi / 4)
    sigmas = [spread(probability(s)) for s in evolve(spec)]

    # independent dense oracle for the t=100 reference value
    op = dense_shift_full(L) @ dense_coin(coin_matrix(math.pi / 4), L)
    vec = state_vector(spec.initial_state())
    for _ in range(T):
        vec = op @ vec
    prob = np.abs(vec.reshape(2, -1)) ** 2
    p_oracle = {int(x): float(v) for x, v in zip(range(-L, L + 1), prob.sum(axis=0))}
    rate_oracle = spread(p_oracle) / T

    max_rel = max(abs(sigmas[t] / t - rate_oracle) / rate_oracle for t in range(50, 101))

    disordered = [
        spread(probability(evolve(WalkSpec("generalized", T, L, seed=seed))[-1]))
        for seed in range(20)
    ]
    ratio = float(np.mean(disordered)) / sigmas[-1]
    report(
        8,
        "sigma(t)/t stays within 2% of the dense-oracle ballistic rate; "
        "20-seed disorder ensemble spreads below half the ballistic sigma(100)",
        max_rel <= 0.02 and ratio < 0.5,
        f"max rate deviation {max_rel:.2%}, localization ratio {ratio:.3f}",
    )


def test_criterion_09_continuum_refinement():
    residuals = [
        continuum_residual(0.1, -0.1, WavepacketSpec(width=w)) for w in (10.0, 20.0, 40.0)
    ]
    monotone = residuals[0] > residuals[1] > residuals[2]
    ratio = residuals[2] / residuals[1]
    mass_zero = np.array_equal(mass_matrix(0.7, -0.7), np.zeros((2, 2)))
    report(
        9,
        "continuum residual shrinks monotonically with packet width "
        "(factor <= 0.6 per doubling) and the mass matrix vanishes for opposite angles",
        monotone and ratio <= 0.6 and mass_zero,
        f"residuals {residuals[0]:.2e} > {residuals[1]:.2e} > {residuals[2]:.2e}, ratio {ratio:.2f}",
    )


def test_criterion_10_byte_identical_outputs(tmp_path):
    run_cfg = tmp_path / "run.json"
    run_cfg.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "walk": "generalized",
                "steps": 25,
                "half_width": 32,
                "seed": 2024,
                "emit_trajectory": True,
            }
        )
    )
    outs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.csv"
        assert cli.main(["run", "--config", str(run_cfg), "--out", str(out)]) == 0
        outs.append((out.read_bytes(), (tmp_path / f"{name}.summary.json").read_bytes()))
    same_run = outs[0] == outs[1]

    compile_cfg = tmp_path / "compile.json"
    compile_cfg.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "walk": "ssqw",
                "steps": 3,
                "half_width": 8,
                "theta1": 0.7,
                "theta2": -0.2,
            }
        )
    )
    parts = []
    for name in ("p1", "p2"):
        out = tmp_path / f"{name}.json"
        assert cli.main(["compile", "--config", str(compile_cfg), "--out", str(out), "--verify"]) == 0
        parts.append(out.read_bytes())
    same_compile = parts[0] == parts[1]
    report(
        10,
        "identical configs produce byte-identical CSV/JSON outputs",
        same_run and same_compile,
    )


def test_criterion_11_electric_walk_periodicity():
    T, L = 100, 128
    base = WalkSpec("electric-dtqw", T, L, theta1=math.pi / 4, phi_e=0.5)
    turned = WalkSpec("electric-dtqw", T, L, theta1=math.pi / 4, phi_e=0.5 + 2 * math.pi)
    worst = max(
        float(np.max(np.abs(a.amps - b.amps)))
        for a, b in zip(evolve(base), evolve(turned))
    )

    zero_field = WalkSpec("electric-dtqw", T, L, theta1=math.pi / 4, phi_e=0.0)
    plain = WalkSpec("dtqw", T, L, theta1=math.pi / 4)
    exact = all(
        np.array_equal(a.amps, b.amps) for a, b in zip(evolve(zero_field), evolve(plain))
    )
    report(
        11,
        "field phase is 2*pi periodic (trajectories within 1e-14) and zero field "
        "reproduces the plain walk exactly",
        worst <= 1e-14 and exact,
        f"max trajectory difference {worst:.2e}",
    )
