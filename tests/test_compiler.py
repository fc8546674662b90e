"""Tests for the optical compiler: decompositions, recipes, verification."""

import math
import tracemalloc

import numpy as np
import pytest

from oamwalk import optics, walk
from oamwalk.compiler import (
    CompiledStep,
    PdcBlock,
    column_params,
    compile_generalized,
    compile_pdc,
    compile_ssqw,
    euler_decompose,
    euler_recompose,
    pdc_plates,
    su2_normalize,
    verify,
)
from oamwalk.optics import JPlate, VariableWavePlate, compose, equal_up_to_phase
from oamwalk.walk import CoinParams, CoinTable, WalkSpec, coin_matrix, u2_matrix

from conftest import (
    SIGMA2,
    SIGMA3,
    dense_coin,
    dense_shift_full,
    dense_shift_minus,
    expm_unitary,
    random_su2,
    random_u2,
)


def euler_oracle(angles):
    """Recomposition through eigendecomposition exponentials only."""
    return (
        expm_unitary(0.5 * angles.gamma1 * SIGMA3)
        @ expm_unitary(0.5 * angles.gamma2 * SIGMA2)
        @ expm_unitary(0.5 * angles.gamma3 * SIGMA3)
    )


class TestSu2Normalize:
    def test_random_u2_splits(self, rng):
        for _ in range(20):
            u = random_u2(rng)
            su, chi = su2_normalize(u)
            assert abs(np.linalg.det(su) - 1.0) < 1e-12
            assert np.allclose(np.exp(1j * chi) * su, u, atol=1e-12)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            su2_normalize(np.array([[1.0, 0.1], [0.0, 1.0]]))


class TestEulerDecompose:
    def test_identity(self):
        g = euler_decompose(np.eye(2))
        assert (g.gamma1, g.gamma2, g.gamma3) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("gamma", [0.3, 1.0, 2.0, 3.0])
    def test_pure_middle_rotation(self, gamma):
        u = expm_unitary(0.5 * gamma * SIGMA2)
        g = euler_decompose(u)
        assert g.gamma1 == pytest.approx(0.0, abs=1e-12)
        assert g.gamma2 == pytest.approx(gamma, abs=1e-12)
        assert g.gamma3 == pytest.approx(0.0, abs=1e-12)

    def test_hundred_random_su2_recompose(self, rng):
        for _ in range(100):
            u = random_su2(rng)
            g = euler_decompose(u)
            assert 0.0 <= g.gamma2 <= math.pi
            assert np.max(np.abs(euler_oracle(g) - u)) < 1e-12
            assert np.max(np.abs(euler_recompose(g) - u)) < 1e-12

    def test_diagonal_degeneracy_convention(self):
        u = np.diag([np.exp(0.4j), np.exp(-0.4j)])
        g = euler_decompose(u)
        assert g.gamma3 == 0.0
        assert g.gamma1 == pytest.approx(0.8, abs=1e-12)
        assert np.max(np.abs(euler_recompose(g) - u)) < 1e-14

    def test_antidiagonal_degeneracy_convention(self):
        u = np.array([[0, np.exp(0.7j)], [-np.exp(-0.7j), 0]])
        g = euler_decompose(u)
        assert g.gamma3 == 0.0 and g.gamma2 == pytest.approx(math.pi)
        assert np.max(np.abs(euler_recompose(g) - u)) < 1e-14

    def test_rejects_u2(self):
        with pytest.raises(ValueError, match="determinant"):
            euler_decompose(np.exp(0.3j) * np.eye(2))


class TestColumnParams:
    def test_identity(self):
        cp = column_params(np.eye(2))
        assert (cp.alpha, cp.beta) == (0.0, 0.0)

    def test_balanced_coin(self):
        cp = column_params(coin_matrix(math.pi / 4))
        assert cp.alpha == pytest.approx(math.pi / 4, abs=1e-14)
        assert cp.beta == pytest.approx(math.pi / 2, abs=1e-14)

    def test_reconstructs_first_column_projectively(self, rng):
        for _ in range(30):
            c1 = random_su2(rng)
            cp = column_params(c1)
            u1 = np.conj(c1[0, :])
            model = np.array([math.cos(cp.alpha), np.exp(1j * cp.beta) * math.sin(cp.alpha)])
            # compare projectors, not vectors: column phase is unphysical
            assert np.allclose(np.outer(u1, u1.conj()), np.outer(model, model.conj()), atol=1e-12)

    def test_alpha_range(self, rng):
        for _ in range(30):
            cp = column_params(random_su2(rng))
            assert 0.0 <= cp.alpha <= math.pi / 2
            assert 0.0 <= cp.beta < 2 * math.pi


class TestConjugatedHalfShift:
    def test_identity_against_conjugated_operator(self, rng):
        # The waveplate-wrapped left-shift plate reproduces C1† S- C1.
        L = 6
        for _ in range(25):
            c1 = random_su2(rng)
            cp = column_params(c1)
            train = compose(
                [
                    VariableWavePlate(-(math.pi - cp.beta)),
                    JPlate(-1, 0.0, 0, 0.0, cp.alpha),
                    VariableWavePlate(math.pi - cp.beta),
                ],
                L,
            )
            block = np.kron(c1, np.eye(2 * L + 1))
            ref = block.conj().T @ dense_shift_minus(L) @ block
            m = equal_up_to_phase(train, ref)
            assert m.fidelity >= 1 - 1e-12


class TestPdcCompilation:
    def test_zero_angles_give_identity(self):
        q2, q1 = pdc_plates(CoinParams())
        prod = optics.jplate_pointwise(*q2) @ optics.jplate_pointwise(*q1) @ SIGMA3
        assert np.allclose(prod, np.eye(2), atol=1e-14)

    def test_theta_only_gives_coin_rotation(self, rng):
        for theta in rng.uniform(-3, 3, size=10):
            q2, q1 = pdc_plates(CoinParams(theta=theta))
            prod = optics.jplate_pointwise(*q2) @ optics.jplate_pointwise(*q1) @ SIGMA3
            assert np.allclose(prod, expm_unitary(theta * SIGMA2), atol=1e-13)

    def test_hundred_random_coins_factor_exactly(self, rng):
        for _ in range(100):
            p = CoinParams(*rng.uniform(-2 * math.pi, 2 * math.pi, size=4))
            q2, q1 = pdc_plates(p)
            prod = optics.jplate_pointwise(*q2) @ optics.jplate_pointwise(*q1) @ SIGMA3
            assert np.max(np.abs(prod - u2_matrix(p))) < 1e-13

    def test_block_lift_equals_coin_block(self, rng):
        L = 5
        table = CoinTable(
            -L,
            rng.uniform(-3, 3, 11),
            rng.uniform(-3, 3, 11),
            rng.uniform(-3, 3, 11),
            rng.uniform(-3, 3, 11),
        )
        block = compile_pdc(table)
        got = block.lift(L)
        ref = dense_coin(table.matrices(), L)
        assert np.max(np.abs(got - ref)) < 1e-13

    def test_site_accessors(self, rng):
        table = CoinTable.random_disorder(3, rng)
        block = compile_pdc(table)
        assert np.allclose(block.site_matrix(-2), u2_matrix(table[-2]), atol=1e-13)
        with pytest.raises(KeyError):
            block.plates(9)


class TestCompileSsqw:
    def test_identity_coins_give_full_shift(self):
        cs = compile_ssqw(np.eye(2), np.eye(2))
        ref = dense_shift_full(5)
        m = equal_up_to_phase(cs.lift(5), ref)
        assert m.match and m.fidelity >= 1 - 1e-12

    def test_five_elements_in_order(self):
        cs = compile_ssqw(coin_matrix(0.3), coin_matrix(0.8))
        kinds = [type(e).__name__ for e in cs.elements]
        assert kinds == [
            "VariableWavePlate",
            "JPlate",
            "VariableWavePlate",
            "HalfWavePlate",
            "JPlate",
        ]
        assert len(cs.provenance) == 5
        assert cs.elements[1].m_x == -1 and cs.elements[4].m_y == +1

    def test_theta2_zero_matches_plain_walk_operator(self, rng):
        L = 6
        for theta in rng.uniform(-2, 2, size=5):
            cs = compile_ssqw(coin_matrix(theta), np.eye(2))
            ref = walk.step_operator(WalkSpec("dtqw", 1, L, theta1=theta))
            rep = verify(cs, ref)
            assert rep.passed and rep.fidelity >= 1 - 1e-10

    def test_random_pairs_verify(self, rng):
        L = 5
        for _ in range(25):
            c1, c2 = random_su2(rng), random_su2(rng)
            cs = compile_ssqw(c1, c2)
            ref = walk.split_step_operator(c1, c2, L)
            rep = verify(cs, ref)
            assert rep.passed and rep.fidelity >= 1 - 1e-10
            # measured phase is the negative of the predicted train phase
            assert math.remainder(rep.phase + cs.phase, 2 * math.pi) == pytest.approx(0.0, abs=1e-9)

    def test_u2_inputs_change_phase_not_elements(self, rng):
        c1, c2 = random_su2(rng), random_su2(rng)
        base = compile_ssqw(c1, c2)
        shifted = compile_ssqw(np.exp(0.9j) * c1, c2)
        assert base.elements == shifted.elements
        assert math.remainder(base.phase - shifted.phase - 0.9, 2 * math.pi) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_u2_random_pairs_verify(self, rng):
        L = 5
        for _ in range(10):
            c1, c2 = random_u2(rng), random_u2(rng)
            cs = compile_ssqw(c1, c2)
            ref = walk.split_step_operator(c1, c2, L)
            rep = verify(cs, ref)
            assert rep.passed

    def test_gamma2_variant_fails_generically(self, rng):
        L = 5
        failures = 0
        for _ in range(10):
            c1, c2 = random_su2(rng), random_su2(rng)
            wrong = compile_ssqw(c1, c2, first_plate="gamma2")
            ref = walk.split_step_operator(c1, c2, L)
            rep = verify(wrong, ref)
            failures += not rep.passed
        assert failures == 10

    def test_bad_first_plate_choice(self):
        with pytest.raises(ValueError, match="first_plate"):
            compile_ssqw(np.eye(2), np.eye(2), first_plate="gamma3")


class TestCompileGeneralized:
    def test_identity_tables_compile_to_full_shift(self):
        L = 4
        t = CoinTable.homogeneous(CoinParams(), L)
        cs = compile_generalized(WalkSpec("generalized", 1, L, table1=t, table2=t))
        m = equal_up_to_phase(cs.lift(L), dense_shift_full(L))
        assert m.match

    def test_homogeneous_tables_match_ssqw_compilation(self, rng):
        # A table repeating one coin everywhere and the homogeneous recipe
        # compile to phase-equivalent operators.
        L = 4
        p = CoinParams(0.2, -0.5, 0.9, 1.1)
        t1 = CoinTable.homogeneous(p, L)
        t2 = CoinTable.homogeneous(CoinParams(0.0, 0.3, -0.7, 0.4), L)
        gen = compile_generalized(WalkSpec("generalized", 1, L, table1=t1, table2=t2))
        hom = compile_ssqw(u2_matrix(t1[0]), u2_matrix(t2[0]))
        m = equal_up_to_phase(gen.lift(L), hom.lift(L))
        assert m.match and m.fidelity >= 1 - 1e-10

    def test_random_tables_verify(self, rng):
        L = 16
        spec = WalkSpec("generalized", 2, L, seed=5)
        rep = verify(compile_generalized(spec), walk.step_operator(spec))
        assert rep.passed and rep.fidelity >= 1 - 1e-10

    def test_rejects_other_kinds(self):
        with pytest.raises(ValueError, match="generalized"):
            compile_generalized(WalkSpec("dtqw", 1, 4))


class TestVerify:
    def test_train_against_its_own_lift(self):
        cs = compile_ssqw(coin_matrix(0.4), coin_matrix(-0.2))
        rep = verify(cs, cs.lift(5))
        assert rep.passed and rep.fidelity == pytest.approx(1.0, abs=1e-15)

    def test_perturbed_retardance_fails(self, rng):
        L = 5
        c1, c2 = random_su2(rng), random_su2(rng)
        cs = compile_ssqw(c1, c2)
        bumped = list(cs.elements)
        bumped[0] = VariableWavePlate(bumped[0].retardance + 1e-3)
        wrong = CompiledStep(tuple(bumped), cs.provenance, cs.phase, cs.notes)
        rep = verify(wrong, walk.split_step_operator(c1, c2, L))
        assert not rep.passed
        assert rep.fidelity < 1 - 1e-8

    def test_report_contents(self, rng):
        c1, c2 = random_su2(rng), random_su2(rng)
        cs = compile_ssqw(c1, c2)
        rep = verify(cs, walk.split_step_operator(c1, c2, 4))
        assert len(rep.factors) == 5
        assert all(f.unitarity_defect < 1e-12 for f in rep.factors)
        assert rep.tol == 1e-10
        assert any("gamma1" in note for note in rep.notes)

    def test_dimension_validation(self):
        cs = compile_ssqw(np.eye(2), np.eye(2))
        with pytest.raises(ValueError, match="dimension"):
            verify(cs, np.eye(7))


def four_angle_spec(rng, half_width):
    """One generalized step with general U(2) tables (nonzero chi, xi, eta)."""

    def table():
        return CoinTable(-half_width, *rng.uniform(-math.pi, math.pi, size=(4, 2 * half_width + 1)))

    return WalkSpec("generalized", 1, half_width, table1=table(), table2=table())


def verify_cases(rng, half_width):
    """(name, train, reference): ssqw, its gamma2 variant, a four-angle generalized step."""
    c1, c2 = random_u2(rng), random_u2(rng)
    ref = walk.split_step_operator(c1, c2, half_width)
    spec = four_angle_spec(rng, half_width)
    return [
        ("ssqw", compile_ssqw(c1, c2), ref),
        ("gamma2", compile_ssqw(c1, c2, first_plate="gamma2"), ref),
        ("generalized", compile_generalized(spec), walk.step_operator(spec)),
    ]


def shift_margin(element) -> int:
    """Edge sites a lifted element's OAM shift empties."""
    return max(abs(element.m_x), abs(element.m_y)) if isinstance(element, JPlate) else 0


def lift_methods():
    return [optics.JPlate, optics.HalfWavePlate, optics.VariableWavePlate, PdcBlock]


class TestVerifyFold:
    """verify lifts each element once and reports what compose-then-relift reported."""

    @pytest.mark.parametrize("half_width", [5, 40])
    def test_each_element_lifted_once(self, rng, monkeypatch, half_width):
        lifted = []
        for cls in lift_methods():
            original = cls.lift

            def counting(self, hw, _original=original):
                lifted.append(id(self))
                return _original(self, hw)

            monkeypatch.setattr(cls, "lift", counting)
        for name, cs, ref in verify_cases(rng, half_width):
            lifted.clear()
            verify(cs, ref)
            assert sorted(lifted) == sorted(id(el) for el in cs.elements), name

    @pytest.mark.parametrize("half_width", [5, 40])
    def test_report_equals_compose_then_relift(self, rng, half_width):
        for name, cs, ref in verify_cases(rng, half_width):
            # The report as computed before the fold: the whole train composed
            # from the identity, then every factor lifted again for its check.
            op = np.eye(ref.shape[0], dtype=complex)
            for el in cs.elements:
                op = el.lift(half_width) @ op
            expect = equal_up_to_phase(op, ref)
            rep = verify(cs, ref)
            assert (rep.passed, rep.fidelity, rep.phase) == tuple(expect), name
            assert rep.passed == (name != "gamma2")
            defects = [
                optics.unitarity_defect(el.lift(half_width), margin=shift_margin(el)) for el in cs.elements
            ]
            assert [f.unitarity_defect for f in rep.factors] == defects, name
            assert [f.description for f in rep.factors] == list(cs.provenance)

    def test_empty_train_is_the_identity(self):
        L = 3
        rep = verify(CompiledStep((), (), 0.0), np.eye(2 * (2 * L + 1)))
        assert rep.passed and rep.fidelity == 1.0 and rep.factors == ()

    def test_unnamed_element_is_rejected(self):
        cs = compile_ssqw(np.eye(2), np.eye(2))
        short = CompiledStep(cs.elements, cs.provenance[:-1], cs.phase)
        with pytest.raises(ValueError):
            verify(short, walk.split_step_operator(np.eye(2), np.eye(2), 3))

    @pytest.mark.parametrize("kind", ["ssqw", "generalized"])
    def test_peak_memory_is_about_three_dense_matrices(self, rng, kind):
        L = 64
        dense_bytes = (2 * (2 * L + 1)) ** 2 * 16
        _, cs, ref = next(case for case in verify_cases(rng, L) if case[0] == kind)
        tracemalloc.start()
        try:
            rep = verify(cs, ref)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.passed
        assert peak <= 3.5 * dense_bytes
