"""Tests for the optical compiler: decompositions, recipes, verification."""

import contextlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oamwalk import compiler, optics, walk
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
from oamwalk.optics import TOL, HalfWavePlate, JPlate, VariableWavePlate, compose, equal_up_to_phase
from oamwalk.walk import CoinParams, CoinTable, WalkSpec, coin_matrix, u2_matrix

from conftest import (
    SIGMA2,
    SIGMA3,
    dense_coin,
    dense_shift_full,
    dense_shift_minus,
    expm_unitary,
    full_residual_match,
    random_su2,
    random_u2,
    traced_peak,
)
from test_walk import four_kinds
from trains import gamma2_variant


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, math.nan)])
    @pytest.mark.parametrize("check", [su2_normalize, euler_decompose, column_params])
    def test_rejects_non_finite_entries(self, check, bad):
        u = np.eye(2, dtype=complex)
        u[1, 0] = bad
        with pytest.raises(ValueError, match="unitary"):
            check(u)


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

    def test_float_plates_are_read_in_one_pass(self):
        """A float array names its first non-finite entry and is copied, so the caller's buffer stays writable."""
        q = np.zeros((3, 3), dtype=np.float32)
        block = PdcBlock(-1, q, q)
        assert block.q2.dtype == np.float64 and not block.q2.flags.writeable and q.flags.writeable
        q2 = np.zeros((3, 3))
        q2[1, 2], q2[2, 0] = math.nan, math.inf
        with pytest.raises(ValueError, match=r"^q2 entry must be a finite real number, got nan$"):
            PdcBlock(-1, q2, q)

    @pytest.mark.parametrize("call, message", [
        (lambda: compiler._check_unitary(np.eye(3)), r"expected a 2x2 matrix, got shape \(3, 3\)"),
        (lambda: PdcBlock(-1, np.zeros((3, 2)), np.zeros((3, 2))), r"must both have shape \(n_sites, 3\)"),
        (lambda: PdcBlock(-1, np.zeros((3, 3)), np.zeros((3, 3))).lift(2), "does not match the requested half-width"),
    ], ids=["non-2x2-coin", "plate-columns", "lift-half-width"])
    def test_malformed_arguments_raise_with_their_message(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


class TestCompileSsqw:
    def test_identity_coins_give_full_shift(self):
        cs = compile_ssqw(np.eye(2), np.eye(2))
        ref = dense_shift_full(5)
        m = equal_up_to_phase(compose(cs.elements, 5), ref)
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
            wrong = gamma2_variant(c1, c2)
            ref = walk.split_step_operator(c1, c2, L)
            rep = verify(wrong, ref)
            failures += not rep.passed
        assert failures == 10


class TestCompileGeneralized:
    def test_identity_tables_compile_to_full_shift(self):
        L = 4
        t = CoinTable.homogeneous(CoinParams(), L)
        cs = compile_generalized(WalkSpec("generalized", 1, L, table1=t, table2=t))
        m = equal_up_to_phase(compose(cs.elements, L), dense_shift_full(L))
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
        m = equal_up_to_phase(compose(gen.elements, L), compose(hom.elements, L))
        assert m.match and m.fidelity >= 1 - 1e-10

    def test_random_tables_verify(self, rng):
        L = 16
        spec = WalkSpec("generalized", 2, L, seed=5)
        rep = verify(compile_generalized(spec), walk.step_operator(spec))
        assert rep.passed and rep.fidelity >= 1 - 1e-10

    @pytest.mark.parametrize("phi_e", [0.0, 0.7])
    def test_train_follows_step_moves(self, phi_e):
        """One PDC block and one J-plate per move, in order, then the site phase block."""
        L = 4
        for kind, moves in walk.STEP_MOVES.items():
            spec = WalkSpec(kind, 1, L, theta1=0.3, theta2=-0.8, phi_e=phi_e, seed=2)
            cs = compile_generalized(spec)
            expect = []
            for _, left, right in moves:
                expect += [PdcBlock, (-int(left), int(right))]
            if phi_e:
                expect.append(PdcBlock)
            got = [(el.m_x, el.m_y) if isinstance(el, JPlate) else type(el) for el in cs.elements]
            assert got == expect
            assert len(cs.provenance) == len(cs.elements) and cs.phase == 0.0
            assert verify(cs, walk.step_operator(spec)).passed

    def test_angle_coin_block_is_the_coin_matrix(self):
        L = 3
        for theta in (0.0, 0.4, -2.2, math.pi):
            cs = compile_generalized(WalkSpec("dtqw", 1, L, theta1=theta))
            block = cs.elements[0]
            for x in range(-L, L + 1):
                assert np.max(np.abs(block.site_matrix(x) - coin_matrix(theta))) < 1e-15

    def test_site_phase_block_is_the_field_phase(self):
        L, phi_e = 5, 0.9
        cs = compile_generalized(WalkSpec("electric-dtqw", 1, L, phi_e=phi_e))
        phase_block = cs.elements[-1]
        for x in range(-L, L + 1):
            assert np.allclose(phase_block.site_matrix(x), np.exp(1j * phi_e * x) * np.eye(2), atol=1e-15)


class TestVerify:
    def test_train_against_its_own_lift(self):
        cs = compile_ssqw(coin_matrix(0.4), coin_matrix(-0.2))
        rep = verify(cs, compose(cs.elements, 5))
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
        assert any("gamma1" in note for note in cs.notes)

    def test_dimension_validation(self):
        cs = compile_ssqw(np.eye(2), np.eye(2))
        with pytest.raises(ValueError, match="dimension"):
            verify(cs, np.eye(7))

    @pytest.mark.parametrize("reference, shape", [(5, r"\(\)"), (WalkSpec("ssqw", 1, 3), r"\(\)"),
                                                  (np.ones(14), r"\(14,\)"), (np.ones((2, 14, 14)), r"\(2, 14, 14\)")],
                             ids=["scalar", "spec", "vector", "stack"])
    def test_reference_that_is_not_a_matrix_is_refused(self, reference, shape):
        """Only a dense operator is a reference; anything else is refused by its shape."""
        cs = compile_ssqw(np.eye(2), np.eye(2))
        with pytest.raises(ValueError, match=rf"dimension 2\*\(2L\+1\), got {shape}$"):
            verify(cs, reference)


def four_angle_spec(rng, half_width):
    """One generalized step with general U(2) tables (nonzero chi, xi, eta)."""

    def table():
        return CoinTable(-half_width, *rng.uniform(-math.pi, math.pi, size=(4, 2 * half_width + 1)))

    return WalkSpec("generalized", 1, half_width, table1=table(), table2=table())


def verify_cases(rng, half_width):
    """(name, train, reference): ssqw, its gamma2 variant, and the train of one step of every walk kind.

    The generalized walk has four-angle U(2) tables (nonzero chi, xi, eta).
    """
    c1, c2 = random_u2(rng), random_u2(rng)
    ref = walk.split_step_operator(c1, c2, half_width)
    cases = [("ssqw", compile_ssqw(c1, c2), ref), ("gamma2", gamma2_variant(c1, c2), ref)]
    specs = [s for s in four_kinds(rng, steps=1, half_width=half_width) if s.walk_kind != "generalized"]
    for name, spec in [("generalized", four_angle_spec(rng, half_width)),
                       *((f"{s.walk_kind} moves", s) for s in specs)]:
        cases.append((name, compile_generalized(spec), walk.step_operator(spec)))
    return cases


def shift_margin(element) -> int:
    """Edge sites a lifted element's OAM shift empties."""
    return max(abs(element.m_x), abs(element.m_y)) if isinstance(element, JPlate) else 0


def dense_report(cs, ref, half_width):
    """The report as computed before the band fold: the whole train composed densely from
    the identity, then every factor lifted again for the column norms of its check.  Its
    ``(match, fidelity, phase)`` comes from :func:`conftest.full_residual_match`, not the library."""
    n = 2 * half_width + 1
    op = np.eye(ref.shape[0], dtype=complex)
    for el in cs.elements:
        op = el.lift(half_width) @ op
    defects = []
    for el in cs.elements:
        margin = shift_margin(el)
        norms = np.linalg.norm(el.lift(half_width), axis=0).reshape(2, n)[:, margin:n - margin]
        defects.append(float(np.max(np.abs(norms - 1.0))))
    return full_residual_match(op, ref, TOL), defects


def lift_methods():
    return [optics.JPlate, optics.HalfWavePlate, optics.VariableWavePlate, PdcBlock]


def lifted_at(name, half_width):
    """Positions of the elements the fold lifts in a train of :func:`verify_cases`: none but the ssqw
    half-waveplate, whose product adds two nonzero terms, and that one only at operator width
    ``optics._DENSE_UP_TO`` or less.  No first element is lifted: each entry of its product with the
    identity's bands, where the fold starts, is one term."""
    return [3] if name in ("ssqw", "gamma2") and 2 * (2 * half_width + 1) <= optics._DENSE_UP_TO else []


@contextlib.contextmanager
def counted_lifts():
    """Record ``id(element)`` of each element lift made inside the block."""
    lifted, originals = [], {cls: cls.lift for cls in lift_methods()}

    def counting(self, hw, **kwargs):
        lifted.append(id(self))
        return originals[type(self)](self, hw, **kwargs)

    for cls in originals:
        cls.lift = counting
    try:
        yield lifted
    finally:
        for cls, original in originals.items():
            cls.lift = original


#: Lattices of the fold-step check: the smallest (L = 1, whose band rows are wider than the operator);
#: widths at which splitting a two-term step would miss the dense bits (L <= 31 on 2 threads, <= 63 on
#: 1); the first split width (L = 64); L = 71, 100 and 129; the benchmark's L = 256 and one past it.
FOLD_HALF_WIDTHS = [1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 40, 48, 56, 64, 71, 100, 129, 256, 257]


def fold_trains(rng, half_width):
    """(name, train, lifted): ssqw and its gamma2 variant, a generalized step followed by three more
    elements, and a train whose product cancels exactly.

    The three are a rotated half-waveplate, whose product adds the terms of both polarizations,
    a PDC block, whose complex coins then add them too, and a rotated J-plate with two shifts, whose
    product adds terms of neighbouring sites.  The generalized walk needs three sites of margin, so
    it is left out below L = 3.  ``lifted`` holds the positions of the elements the fold lifts: those
    adding two terms up to width ``optics._DENSE_UP_TO``, and beyond it only the two-shift J-plate.

    The last train starts with two equal half-waveplates, the identity, whose off-diagonals the fold
    may leave exact zeros (on the band path, and on the lift where the zgemm does), so the PDC block
    over four-angle tables, the rotated one-shift J-plate and the last half-waveplate meet fewer
    terms than they could.  Where that happens depends on the BLAS thread count, and so does which of
    its elements are lifted: its ``lifted`` is None, and only its bits are checked.
    """
    c1, c2 = random_u2(rng), random_u2(rng)
    trains = [(name, build(c1, c2).elements, lifted_at(name, half_width))
              for name, build in [("ssqw", compile_ssqw), ("gamma2", gamma2_variant)]]
    if half_width >= 3:
        spec = four_angle_spec(rng, half_width)
        train = compile_generalized(spec).elements + (HalfWavePlate(0.37), compile_pdc(spec.table2),
                                                      JPlate(-1, 0.2, 1, -0.4, 0.7))
        dense = 2 * (2 * half_width + 1) <= optics._DENSE_UP_TO
        trains.append(("generalized + hwp + pdc + jplate", train,
                       [len(train) - 3, len(train) - 2] * dense + [len(train) - 1]))
    table = CoinTable(-half_width, *rng.uniform(-math.pi, math.pi, size=(4, 2 * half_width + 1)))
    trains.append(("hwp + hwp + pdc + jplate + hwp", (HalfWavePlate(0.3), HalfWavePlate(0.3), compile_pdc(table),
                                                      JPlate(-1, 0.2, 0, -0.4, 0.7), HalfWavePlate(0.1)), None))
    return trains


def check_fold_steps(half_width, seed=20240917):
    """Each fold step from the identity's bands, the first included, placed, is ``lift(element) @ placed``
    bit for bit; the expected elements are lifted, in each train that names them."""
    for name, train, lifted in fold_trains(np.random.default_rng(seed), half_width):
        bands = optics._fold((), half_width)
        for i, el in enumerate(train):
            expect = el.lift(half_width) @ optics._place_bands(bands.items(), half_width)
            with counted_lifts() as lifts:
                bands = optics._fold_step(el, half_width, bands)
            got = optics._place_bands(bands.items(), half_width)
            assert np.array_equal(got.view(np.float64), expect.view(np.float64)), (name, i, half_width)
            assert lifted is None or lifts == [id(el)] * (i in lifted), (name, i, half_width)


class TestFoldStep:
    """A fold step, by bands or by a lift, gives the dense product's bits."""

    @pytest.mark.parametrize("half_width", FOLD_HALF_WIDTHS)
    def test_step_is_the_dense_product(self, half_width):
        check_fold_steps(half_width)

    def test_step_is_the_dense_product_on_one_thread(self):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
        here = Path(__file__).resolve().parent
        env["PYTHONPATH"] = os.pathsep.join([str(here.parent / "src"), str(here)])
        code = f"import test_compiler\nfor L in {FOLD_HALF_WIDTHS}:\n    test_compiler.check_fold_steps(L)"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr


class TestVerifyFold:
    """verify lifts no element beyond the ssqw half-waveplate at small widths, and reports what
    compose-then-relift reported."""

    @pytest.mark.parametrize("half_width", [5, 40, 256])
    def test_each_element_lifted_at_most_once(self, rng, half_width):
        for name, cs, ref in verify_cases(rng, half_width):
            with counted_lifts() as lifted:
                verify(cs, ref)
            assert lifted == [id(cs.elements[i]) for i in lifted_at(name, half_width)], name

    @pytest.mark.parametrize("kind", ["ssqw", "generalized"])
    def test_compose_holds_one_dense_matrix(self, rng, kind):
        """The fold keeps bands and places them once."""
        L = 128
        dense_bytes = (2 * (2 * L + 1)) ** 2 * 16
        _, cs, ref = next(case for case in verify_cases(rng, L) if case[0] == kind)
        op, peak = traced_peak(compose, cs.elements, L)
        assert equal_up_to_phase(op, ref).match
        assert peak <= 1.25 * dense_bytes

    @pytest.mark.parametrize("half_width", [3, 5, 17, 31, 32, 40, 48, 56, 64, 129])
    def test_report_equals_compose_then_relift(self, rng, half_width):
        for name, cs, ref in verify_cases(rng, half_width):
            expect, defects = dense_report(cs, ref, half_width)
            rep = verify(cs, ref)
            assert (rep.passed, rep.fidelity, rep.phase) == tuple(expect), name
            assert rep.passed == (name != "gamma2")
            assert [f.unitarity_defect for f in rep.factors] == defects, name
            assert [f.description for f in rep.factors] == list(cs.provenance)

    @pytest.mark.parametrize("position", [0, 2])
    def test_non_finite_field_fails_as_in_the_dense_fold(self, rng, position):
        L = 5
        spec = four_angle_spec(rng, L)
        cs = compile_generalized(spec)
        block = cs.elements[position]
        q2 = block.q2.copy()
        q2[L, 0] = math.nan
        elements = list(cs.elements)
        elements[position] = PdcBlock(-L, block.q2, block.q1)
        object.__setattr__(elements[position], "q2", q2)  # past the constructor, which refuses a NaN entry
        train = CompiledStep(tuple(elements), cs.provenance, cs.phase)
        ref = walk.step_operator(spec)
        (expect_match, expect_fidelity, _), defects = dense_report(train, ref, L)
        rep = verify(train, ref)
        assert not rep.passed and not expect_match
        assert math.isnan(rep.fidelity) and math.isnan(expect_fidelity)
        got = [f.unitarity_defect for f in rep.factors]
        assert np.array_equal(got, defects, equal_nan=True) and math.isnan(got[position])

    @pytest.mark.parametrize("position", [0, 2])
    @pytest.mark.parametrize("lattice_min, n_sites", [(-3, 7), (-4, 11)], ids=["short", "off-centre"])
    def test_block_off_the_lattice_is_refused(self, rng, position, lattice_min, n_sites):
        """A block is refused whether it is lifted (first) or applied by its band (later)."""
        L = 5
        spec = four_angle_spec(rng, L)
        cs = compile_generalized(spec)
        elements = list(cs.elements)
        elements[position] = PdcBlock(lattice_min, np.zeros((n_sites, 3)), np.zeros((n_sites, 3)))
        train = CompiledStep(tuple(elements), cs.provenance, cs.phase)
        for call in (lambda: verify(train, walk.step_operator(spec)), lambda: compose(train.elements, L)):
            with pytest.raises(ValueError, match="block lattice does not match the requested half-width"):
                call()

    def test_empty_train_is_the_identity(self):
        L = 3
        rep = verify(CompiledStep((), (), 0.0), np.eye(2 * (2 * L + 1)))
        assert rep.passed and rep.fidelity == 1.0 and rep.factors == ()

    def test_zero_reference_is_refused(self):
        L = 3
        cs = compile_ssqw(np.eye(2), np.eye(2))
        with pytest.raises(ValueError, match="nonzero"):
            verify(cs, np.zeros((2 * (2 * L + 1),) * 2))

    def test_unnamed_element_is_rejected(self):
        cs = compile_ssqw(np.eye(2), np.eye(2))
        short = CompiledStep(cs.elements, cs.provenance[:-1], cs.phase)
        with pytest.raises(ValueError):
            verify(short, walk.split_step_operator(np.eye(2), np.eye(2), 3))

    @pytest.mark.parametrize("kind", ["ssqw", "generalized"])
    def test_peak_memory_is_about_two_dense_matrices(self, rng, kind):
        L = 64
        dense_bytes = (2 * (2 * L + 1)) ** 2 * 16
        _, cs, ref = next(case for case in verify_cases(rng, L) if case[0] == kind)
        rep, peak = traced_peak(verify, cs, ref)
        assert rep.passed
        assert peak <= 2.25 * dense_bytes

    @pytest.mark.parametrize("half_width", [3, 5, 40])
    def test_cli_trains_certify_against_the_step_operator(self, rng, half_width):
        specs = [*four_kinds(rng, steps=1, half_width=half_width), WalkSpec("generalized", 1, half_width, seed=7)]
        for spec in specs:
            trains = [(compile_generalized(spec), True)]
            if spec.walk_kind == "ssqw":  # the CLI's recipe, and its failing variant
                c1, c2 = coin_matrix(spec.theta1), coin_matrix(spec.theta2)
                trains += [(compile_ssqw(c1, c2), True), (gamma2_variant(c1, c2), False)]
            for cs, passes in trains:
                assert verify(cs, walk.step_operator(spec)).passed is passes, spec.walk_kind

    @pytest.mark.parametrize("kind", WalkSpec.KINDS)
    def test_built_reference_holds_two_dense_matrices(self, rng, kind):
        """Built inside the traced call, the reference and the placed fold are the only dense operators:
        the residual is taken in row blocks."""
        L = 64
        dense_bytes = (2 * (2 * L + 1)) ** 2 * 16
        spec = next(s for s in four_kinds(rng, steps=1, half_width=L) if s.walk_kind == kind)
        cs = compile_generalized(spec)
        rep, peak = traced_peak(lambda: verify(cs, walk.step_operator(spec)))
        assert rep.passed
        assert peak <= 2.25 * dense_bytes
