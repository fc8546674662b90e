"""Tests for Jones matrices, lattice lifts, and phase-equivalence checks."""

import math

import numpy as np
import pytest

from oamwalk import cli, optics, walk
from oamwalk.compiler import compile_pdc, compile_ssqw
from oamwalk.optics import (
    HalfWavePlate,
    JPlate,
    VariableWavePlate,
    compose,
    equal_up_to_phase,
    jones_rotation,
    jplate_pointwise,
    lift,
    unitarity_defect,
)

from conftest import (
    SIGMA3,
    dense_coin,
    dense_shift_full,
    dense_shift_minus,
    dense_shift_plus,
    full_residual_match,
    random_su2,
    random_u2,
    traced_peak,
)


class TestPointwiseJones:
    def test_zero_plate_is_identity(self):
        assert np.allclose(jplate_pointwise(0, 0, 0), np.eye(2), atol=1e-15)

    def test_pi_retarder_is_rotated_sigma3(self, rng):
        for angle in rng.uniform(-3, 3, size=8):
            expect = jones_rotation(-angle) @ SIGMA3 @ jones_rotation(angle)
            assert np.allclose(jplate_pointwise(0, math.pi, angle), expect, atol=1e-14)

    def test_equal_phases_give_scalar(self, rng):
        for _ in range(8):
            d, angle = rng.uniform(-3, 3, size=2)
            got = jplate_pointwise(d, d, angle)
            assert np.allclose(got, np.exp(1j * d) * np.eye(2), atol=1e-14)

    def test_unitary(self, rng):
        for _ in range(20):
            dx, dy, angle = rng.uniform(-6, 6, size=3)
            m = jplate_pointwise(dx, dy, angle)
            assert np.allclose(m.conj().T @ m, np.eye(2), atol=1e-14)

    def test_pi_retarder_times_sigma3_is_coin_rotation(self, rng):
        # J(0, pi, a) @ s3 equals the real rotation exp(2i*a*s2), entrywise.
        for a in rng.uniform(-3, 3, size=10):
            got = jplate_pointwise(0, math.pi, a) @ SIGMA3
            c, s = math.cos(2 * a), math.sin(2 * a)
            assert np.allclose(got, [[c, s], [-s, c]], atol=1e-14)

    def test_halfwave_is_involution(self):
        m = optics.halfwave_pointwise(0.37)
        assert np.allclose(m @ m, np.eye(2), atol=1e-15)

    def test_varwave_phases(self):
        z = 1.1
        m = optics.varwave_pointwise(z)
        assert m[0, 0] == pytest.approx(np.exp(0.5j * z))
        assert m[1, 1] == pytest.approx(np.exp(-0.5j * z))


class TestLift:
    def test_left_shift_plate_matches_minus_shift(self):
        for L in (3, 8):
            got = lift(JPlate(-1, 0, 0, 0, 0), L)
            assert np.allclose(got, dense_shift_minus(L), atol=1e-14)

    def test_right_shift_plate_matches_plus_shift(self):
        got = lift(JPlate(0, 0, +1, 0, 0), 5)
        assert np.allclose(got, dense_shift_plus(5), atol=1e-14)

    def test_double_shift_plate_matches_full_shift(self):
        got = lift(JPlate(-1, 0, +1, 0, 0), 5)
        assert np.allclose(got, dense_shift_full(5), atol=1e-14)

    def test_plate_action_on_basis_modes(self):
        L = 4
        op = lift(JPlate(-1, 0, 0, 0, 0), L)
        vec = np.zeros(2 * (2 * L + 1))
        vec[L] = 1.0  # |H> ⊗ |l=0>
        out = op @ vec
        assert out[L - 1] == 1.0 and np.count_nonzero(out) == 1
        vec = np.zeros(2 * (2 * L + 1))
        vec[(2 * L + 1) + L] = 1.0  # |V> ⊗ |l=0>
        assert np.array_equal(op @ vec, vec)

    def test_halfwave_at_zero_is_sigma3(self):
        L = 3
        assert np.allclose(lift(HalfWavePlate(0.0), L), np.kron(SIGMA3, np.eye(2 * L + 1)), atol=1e-15)

    def test_varwave_lift(self):
        L = 2
        z = 0.61
        got = lift(VariableWavePlate(z), L)
        expect = np.kron(np.diag([np.exp(0.5j * z), np.exp(-0.5j * z)]), np.eye(5))
        assert np.allclose(got, expect, atol=1e-15)

    def test_rejects_fractional_multiplier(self):
        with pytest.raises(ValueError, match="integer"):
            JPlate(0.5, 0, 0, 0, 0)

    def test_accepts_integral_float(self):
        assert JPlate(-1.0, 0, 1.0, 0, 0).m_x == -1

    def test_interior_columns_isometric(self, rng):
        L = 6
        for el in (JPlate(-1, 0.3, 2, -0.2, 0.9), HalfWavePlate(0.4), VariableWavePlate(1.2)):
            assert unitarity_defect(el.bands(), L) < 1e-14


def shift_oracle(m: int, half_width: int) -> np.ndarray:
    """|l> -> |l+m> on l in [-half_width, half_width], written entry by entry."""
    n = 2 * half_width + 1
    out = np.zeros((n, n))
    for x in range(-half_width, half_width + 1):
        if -half_width <= x + m <= half_width:
            out[x + m + half_width, x + half_width] = 1.0
    return out


def rotated_plate_oracle(m_x, c_x, m_y, c_y, angle, half_width):
    """kron(R(-a), I) @ core @ kron(R(a), I): the rotated plate as two dense products."""
    n = 2 * half_width + 1
    core = np.exp(1j * c_x) * np.kron(np.diag([1.0, 0.0]), shift_oracle(m_x, half_width))
    core = core + np.exp(1j * c_y) * np.kron(np.diag([0.0, 1.0]), shift_oracle(m_y, half_width))
    c, s = math.cos(angle), math.sin(angle)
    rot = np.kron(np.array([[c, -s], [s, c]], dtype=complex), np.eye(n))
    rot_back = np.kron(np.array([[c, s], [-s, c]], dtype=complex), np.eye(n))
    return rot_back @ core @ rot


# The rotation angle of the J-plate in a compiled split-step train.
COMPILER_ALPHA = compile_ssqw(walk.coin_matrix(0.7), walk.coin_matrix(-0.35)).elements[1].angle


def site_field_oracle(block) -> list:
    """Each site's J(q2) @ J(q1) @ s3, one site at a time from scalar 2x2 products."""

    def plate(delta_x, delta_y, angle):
        c, s = math.cos(angle), math.sin(angle)
        rot = np.array([[c, -s], [s, c]], dtype=complex)
        rot_back = np.array([[c, s], [-s, c]], dtype=complex)
        return rot_back @ np.diag([np.exp(1j * delta_x), np.exp(1j * delta_y)]) @ rot

    return [plate(*q2) @ plate(*q1) @ SIGMA3 for q2, q1 in zip(block.q2, block.q1)]


def random_pdc_block(rng, half_width):
    """PDC block of a four-angle table (nonzero chi, xi, eta)."""
    return compile_pdc(walk.CoinTable(-half_width, *rng.uniform(-math.pi, math.pi, size=(4, 2 * half_width + 1))))


LIFT_HALF_WIDTHS = [3, 40]


class TestJPlateLiftPlacesBlocks:
    """The placed blocks equal the dense product they replace."""

    @pytest.mark.parametrize("half_width", LIFT_HALF_WIDTHS)
    @pytest.mark.parametrize("m_x, m_y", [(-1, 0), (0, 1), (-1, 1), (2, -1)])
    @pytest.mark.parametrize("angle", [0.0, COMPILER_ALPHA, -1.1, 2.5])
    def test_distinct_multipliers_match_product_exactly(self, m_x, m_y, angle, half_width):
        # Each entry is one product, so the values agree exactly; only the
        # sign of some structural zeros may differ from the BLAS product.
        got = JPlate(m_x, 0.7, m_y, -1.3, angle).lift(half_width)
        assert np.array_equal(got, rotated_plate_oracle(m_x, 0.7, m_y, -1.3, angle, half_width))

    @pytest.mark.parametrize(
        "m_x, m_y, angle", [(-1, 0, COMPILER_ALPHA), (0, 1, 0.0), (-1, 1, 2.5), (2, -1, -1.1)]
    )
    def test_distinct_multipliers_match_product_exactly_at_l256(self, m_x, m_y, angle):
        got = JPlate(m_x, 2.1, m_y, 0.4, angle).lift(256)
        assert np.array_equal(got, rotated_plate_oracle(m_x, 2.1, m_y, 0.4, angle, 256))

    @pytest.mark.parametrize("m", [-1, 0, 1])
    @pytest.mark.parametrize("angle", [COMPILER_ALPHA, -1.1])
    def test_equal_multipliers_match_product_to_rounding(self, m, angle):
        # Two products meet in each entry; their sum may round differently.
        L = 40
        got = JPlate(m, 0.7, m, -1.3, angle).lift(L)
        assert np.max(np.abs(got - rotated_plate_oracle(m, 0.7, m, -1.3, angle, L))) <= 1e-15


class TestBandLifts:
    """Every element lifts by placing its bands, exactly as the dense construction it replaces."""

    @pytest.mark.parametrize("half_width", LIFT_HALF_WIDTHS + [256])
    @pytest.mark.parametrize("element", [HalfWavePlate(0.0), HalfWavePlate(0.4), HalfWavePlate(-2.2),
                                         VariableWavePlate(1.2), VariableWavePlate(-0.35)])
    def test_waveplate_lift_is_the_kron(self, element, half_width):
        got = element.lift(half_width)
        assert np.array_equal(got, np.kron(element.bands()[0][1], np.eye(2 * half_width + 1)))
        assert np.array_equal(got, dense_coin(element.bands()[0][1], half_width))

    @pytest.mark.parametrize("half_width", LIFT_HALF_WIDTHS)
    def test_pdc_lift_is_the_per_site_coin(self, rng, half_width):
        block = random_pdc_block(rng, half_width)
        field = site_field_oracle(block)
        assert np.array_equal(block.lift(half_width), dense_coin(field, half_width))
        for x in (-half_width, 0, half_width):
            assert np.array_equal(block.site_matrix(x), field[x + half_width])

    def test_pointwise_plate_broadcasts_by_the_scalar_formula(self, rng):
        q = rng.uniform(-4, 4, size=(7, 3))
        stacked = jplate_pointwise(*q.T)
        assert stacked.shape == (7, 2, 2)
        for row, m in zip(q, stacked):
            assert np.array_equal(jplate_pointwise(*row), m)

    def test_every_element_type_lifts_its_bands(self, rng):
        L = 5
        samples = {
            "jplate": JPlate(-1, 0.7, 1, -1.3, 2.5),
            "half_waveplate": HalfWavePlate(0.4),
            "variable_waveplate": VariableWavePlate(1.2),
            "pdc_block": random_pdc_block(rng, L),
        }
        assert samples.keys() == cli._ELEMENT_TYPES.keys()
        for kind, cls in cli._ELEMENT_TYPES.items():
            element = samples[kind]
            assert type(element) is cls and "bands" in vars(cls) and "lift" in vars(cls)
            assert np.array_equal(element.lift(L), optics._place_bands(element.bands(), L)), kind


class TestCompose:
    def test_empty_train_is_identity(self):
        assert np.array_equal(compose([], 3), np.eye(14))

    @pytest.mark.parametrize("half_width", [1, 5, 64, 256])
    def test_one_element_train_is_its_lift(self, rng, half_width):
        """The fold starts from the identity's bands, so a first element of each type keeps its lift's bits:
        a half-waveplate and a rotated two-shift J-plate, which no fold test starts with, included."""
        elements = [JPlate(-1, 0.7, 1, -1.3, 2.5), JPlate(-1, 0.0, 0, 0.0, COMPILER_ALPHA), HalfWavePlate(0.4),
                    VariableWavePlate(1.2), random_pdc_block(rng, half_width)]
        assert {type(el) for el in elements} == set(cli._ELEMENT_TYPES.values())
        for el in elements:
            got = compose([el], half_width)
            assert np.array_equal(got.view(np.float64), lift(el, half_width).view(np.float64)), el

    def test_half_shift_train_is_full_shift(self):
        got = compose([JPlate(-1, 0, 0, 0, 0), JPlate(0, 0, +1, 0, 0)], 6)
        assert np.allclose(got, dense_shift_full(6), atol=1e-14)

    def test_halfwave_twice_is_identity(self):
        got = compose([HalfWavePlate(0.8), HalfWavePlate(0.8)], 4)
        assert np.allclose(got, np.eye(18), atol=1e-14)

    def test_application_order(self):
        # A half-waveplate off axis mixes H and V, so it does not commute with
        # the minus-shift (at angle 0 it is s3, and the two orders agree).
        L = 3
        c, s = math.cos(0.6), math.sin(0.6)
        hwp = np.kron(np.array([[c, s], [s, -c]], dtype=complex), np.eye(7))
        a = compose([HalfWavePlate(0.3), JPlate(-1, 0, 0, 0, 0)], L)
        b = compose([JPlate(-1, 0, 0, 0, 0), HalfWavePlate(0.3)], L)
        assert np.allclose(a, dense_shift_minus(L) @ hwp, atol=1e-15)
        assert np.allclose(b, hwp @ dense_shift_minus(L), atol=1e-15)
        assert np.max(np.abs(a - b)) > 0.5


def phase_perturbed(rng, width: int, eps: float, rows=slice(None)):
    """``(a, b)``, ``b = e^{0.9i} (a + d)`` with ``d`` on ``rows`` only, orthogonal to ``a`` there, and
    ``‖d‖_F = eps * TOL * ‖a‖_F``: the phase-aligned relative residual is ``eps * TOL`` up to rounding."""
    a = rng.normal(size=(width, width)) + 1j * rng.normal(size=(width, width))
    d = np.zeros_like(a)
    d[rows] = rng.normal(size=a[rows].shape) + 1j * rng.normal(size=a[rows].shape)
    d[rows] -= np.vdot(a[rows], d[rows]) / np.vdot(a[rows], a[rows]) * a[rows]
    d *= eps * optics.TOL * np.linalg.norm(a) / np.linalg.norm(d)
    return a, np.exp(0.9j) * (a + d)


class TestEqualUpToPhase:
    @pytest.mark.parametrize("rows", [slice(None), slice(-1, None)], ids=["spread", "last-row"])
    @pytest.mark.parametrize("eps", [0.5, 0.9, 1.1, 2.0])
    @pytest.mark.parametrize("width", [6, 22, 130, 1026])
    def test_blocked_residual_decides_as_the_full_residual(self, rng, width, eps, rows):
        """Widths below and between multiples of the residual's row block; fidelity and phase keep the
        bits of one overlap and two whole-operator norms."""
        a, b = phase_perturbed(rng, width, eps, rows)
        match, fidelity, phase = full_residual_match(a, b, optics.TOL)
        got = equal_up_to_phase(a, b)
        assert got.match is match is (eps < 1)
        assert (got.fidelity, got.phase) == (fidelity, phase)

    @pytest.mark.parametrize("entry", [(0, 0), (-1, -1)], ids=["first", "last"])
    @pytest.mark.parametrize("operand", [0, 1])
    def test_nan_entry_is_no_match(self, rng, operand, entry):
        pair = list(phase_perturbed(rng, 22, 0.5))
        pair[operand][entry] = math.nan
        assert not equal_up_to_phase(*pair).match

    @pytest.mark.parametrize(
        "a, b, message",
        [(np.ones((4, 6)), np.ones((4, 6)), "square and same shape"),
         (np.ones(6), np.ones(6), "square and same shape"),
         (np.ones((2, 3, 3)), np.ones((2, 3, 3)), "square and same shape"),
         (np.ones((4, 4)), np.ones((4, 5)), "square and same shape"),
         (np.ones((4, 4)), np.zeros((4, 4)), "nonzero"),
         (np.zeros((4, 4)), np.ones((4, 4)), "nonzero"),
         (np.zeros((4, 4)), np.zeros((4, 4)), "nonzero"),
         (np.ones((0, 0)), np.ones((0, 0)), "nonzero")],
        ids=["non-square", "1-d", "3-d", "mismatch", "zero-second", "zero-first", "both-zero", "empty"],
    )
    def test_non_operator_is_refused(self, a, b, message):
        """Operands that are not one square shape, or have no phase because one is zero (or empty)."""
        with pytest.raises(ValueError, match=message):
            equal_up_to_phase(a.astype(complex), b.astype(complex))

    @pytest.mark.parametrize("eps", [0.5, 2.0])
    @pytest.mark.parametrize("layout", ["fortran", "strided", "mixed"])
    def test_blocked_residual_reads_any_layout(self, rng, layout, eps):
        """Row blocks of Fortran-ordered and strided operands decide as the full residual, and the
        written fidelity and phase keep the bits of the whole-operator formula on the same arrays."""
        a, b = phase_perturbed(rng, 130, eps)
        if layout == "strided":
            wide = np.zeros((2, 260, 260), complex)
            wide[:, ::2, ::2] = a, b
            a, b = wide[:, ::2, ::2]
        else:
            a = np.asfortranarray(a)
            b = np.asfortranarray(b) if layout == "fortran" else b
        match, fidelity, phase = full_residual_match(a, b, optics.TOL)
        got = equal_up_to_phase(a, b)
        assert got.match is match is (eps < 1)
        assert (got.fidelity, got.phase) == (fidelity, phase)

    @pytest.mark.parametrize("width", [130, 258, 514, 1026])
    def test_residual_allocates_no_operand_sized_temporary(self, rng, width):
        """The residual is formed a few rows at a time, so the call's traced peak stays far below one
        operand's bytes."""
        a, b = phase_perturbed(rng, width, 0.5)
        got, peak = traced_peak(equal_up_to_phase, a, b)
        assert got.match
        assert peak < 0.25 * a.nbytes

    def test_identical_unitaries(self, rng):
        u = np.kron(random_su2(rng), np.eye(5))
        m = equal_up_to_phase(u, u)
        assert m.match and m.fidelity == pytest.approx(1.0, abs=1e-14)
        assert m.phase == pytest.approx(0.0, abs=1e-14)

    def test_global_minus_i(self, rng):
        u = np.kron(random_su2(rng), np.eye(5))
        m = equal_up_to_phase(u, -1j * u)
        assert m.match and m.fidelity == pytest.approx(1.0, abs=1e-14)
        assert m.phase == pytest.approx(-math.pi / 2, abs=1e-12)

    def test_inequivalent_operators(self):
        L = 4
        shift = dense_shift_full(L)
        coin = np.kron(walk.coin_matrix(math.pi / 4), np.eye(2 * L + 1))
        m = equal_up_to_phase(shift, coin)
        assert not m.match and m.fidelity < 0.9

    def test_truncated_equal_operators_reach_fidelity_one(self):
        # Edge-truncated shifts are sub-unitary; equality must still read 1.
        s = dense_shift_full(5)
        m = equal_up_to_phase(s, 1j * s)
        assert m.match and m.fidelity == pytest.approx(1.0, abs=1e-15)

    def test_unit_scalar_invariance(self, rng):
        a = np.kron(random_su2(rng), np.eye(3))
        b = np.kron(random_su2(rng), np.eye(3))
        f0 = equal_up_to_phase(a, b).fidelity
        f1 = equal_up_to_phase(np.exp(0.7j) * a, b).fidelity
        f2 = equal_up_to_phase(a, np.exp(-1.3j) * b).fidelity
        assert f1 == pytest.approx(f0, abs=1e-13)
        assert f2 == pytest.approx(f0, abs=1e-13)

    def test_match_symmetric(self, rng):
        a = np.kron(random_su2(rng), np.eye(3))
        b = np.exp(0.3j) * a
        assert equal_up_to_phase(a, b).match == equal_up_to_phase(b, a).match

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            equal_up_to_phase(np.eye(4), np.eye(6))


class TestLiftAgainstWalkMatrices:
    def test_shift_plates_equal_walk_shift_matrices(self):
        L = 7
        assert np.array_equal(lift(JPlate(-1, 0, 0, 0, 0), L), dense_shift_minus(L))
        assert np.array_equal(lift(JPlate(0, 0, 1, 0, 0), L), dense_shift_plus(L))
        assert np.array_equal(lift(JPlate(-1, 0, 1, 0, 0), L), dense_shift_full(L))
        # the walk's own step with identity coins is the same full shift
        identity_dtqw = walk.WalkSpec("dtqw", 1, L, theta1=0.0)
        assert np.array_equal(lift(JPlate(-1, 0, 1, 0, 0), L), walk.step_operator(identity_dtqw))


def random_bands(rng, half_width, offsets):
    """One band per offset, each a constant (2, 2) or a per-site (n, 2, 2) field of norm about 1."""
    n = 2 * half_width + 1
    shapes = [(2, 2), (n, 2, 2)]
    return [(int(m), (rng.normal(size=shape) + 1j * rng.normal(size=shape)) / 2)
            for m in offsets for shape in [shapes[rng.integers(2)]]]


class TestUnitarityDefect:
    """The defect is taken from the bands, with the bits of the lift's column norms."""

    @pytest.mark.parametrize("half_width", [1, 5, 40])
    def test_unitarity_defect_is_the_column_norm_formula(self, rng, half_width):
        """Squares and sums are those of ``np.linalg.norm(lift, axis=0)``, bit for bit."""
        n = 2 * half_width + 1
        draws = [[0, 0, -1], [2, -2, 2, 1]] + [rng.integers(-2, 3, size=rng.integers(1, 6)) for _ in range(30)]
        for offsets in draws:
            bands = random_bands(rng, half_width, offsets)
            margin = max(abs(m) for m, _ in bands)
            norms = np.linalg.norm(optics._place_bands(bands, half_width), axis=0).reshape(2, n)
            interior = norms[:, margin:n - margin]
            if interior.size == 0:  # shifts as wide as the lattice leave no interior column
                with pytest.raises(ValueError, match=rf"offset -?{margin} leaves no interior column "
                                                     rf"at half-width {half_width}$"):
                    unitarity_defect(bands, half_width)
                continue
            assert unitarity_defect(bands, half_width) == float(np.max(np.abs(interior - 1.0)))

    def test_field_off_the_lattice_is_refused(self, rng):
        bands = [(0, np.eye(2, dtype=complex)), (1, np.tile(np.eye(2, dtype=complex), (7, 1, 1)))]
        for call in (lambda: unitarity_defect(bands, 5), lambda: optics._place_bands(bands, 5)):
            with pytest.raises(ValueError, match="block lattice does not match the requested half-width"):
                call()
