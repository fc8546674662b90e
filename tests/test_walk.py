"""Tests for the abstract walk layer: states, the step kernel's coins and shifts, evolutions."""

import itertools
import math
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from oamwalk import walk
from oamwalk.walk import (
    GUARD,
    SYMMETRIC_COIN,
    CoinParams,
    CoinTable,
    LatticeGuardError,
    WalkSpec,
    coin_matrix,
    evolve,
    make_state,
    moments,
    probability,
    step,
    u2_matrix,
)

from conftest import (
    SIGMA2,
    SIGMA3,
    dense_coin,
    dense_shift_full,
    dense_shift_minus,
    dense_shift_plus,
    expm_unitary,
    random_u2,
    state_vector,
    traced_peak,
)


def random_state(rng, half_width=8):
    """Normalized random state supported away from the boundary."""
    n = 2 * half_width + 1
    amps = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
    amps[:, 0] = amps[:, -1] = 0.0
    amps /= np.linalg.norm(amps)
    return walk.WalkerState(-half_width, amps)


def site_coefficients(table):
    """``table``'s per-site coin in the kernel's layout, shape (2, 2, n): [i, j, x] = U_x[i, j]."""
    return np.ascontiguousarray(table.matrices().transpose(1, 2, 0))


def coin_product(amps, coin, window=slice(None)):
    """The kernel's coin on ``amps``, landed unshifted in a new zeroed array."""
    out = np.zeros(amps.shape, dtype=complex)
    walk._coin(amps, coin, out, window)
    return out


def coined(state, table):
    """The kernel's per-site coin of ``table`` on ``state``'s amplitudes."""
    return coin_product(state.amps, site_coefficients(table))


def landed(amps, coin, left, right, window=slice(None)):
    """The padded buffer (..., 2, n + 2) into which the kernel lands ``coin`` on ``amps``, shifted by one move."""
    buffer = np.zeros(amps.shape[:-1] + (amps.shape[-1] + 2,), dtype=complex)
    walk._coin(amps, coin, walk._landing(buffer, left, right), window)
    return buffer


def shifted(amps, left, right):
    """The kernel's shift alone: the state columns of the identity coin's landing."""
    return landed(amps, np.eye(2, dtype=complex), left, right)[..., 1:-1]


def guarded_step(amps, spec):
    """:func:`step` of ``spec`` on ``amps``, a state on the lattice [-(n // 2), n // 2]."""
    return step(walk.WalkerState(-(amps.shape[-1] // 2), amps), spec).amps


#: A split-step walk with identity coins: the minus half-shift, then the plus half-shift.
PURE_SHIFTS = WalkSpec("ssqw", 1, 2, theta1=0.0, theta2=0.0)


def site_phases(state, phi_e):
    """exp(i * phi_e * x) on ``state``'s sites, phi_e reduced modulo 2*pi as the kernel does."""
    return np.exp(1j * (math.remainder(phi_e, 2 * math.pi) * state.sites))


def electric_and_plain_steps(state, phi_e, theta1=0.3):
    """One step of an electric walk and of the plain walk with the same coin, on ``state``."""
    hw = -state.lattice_min
    electric = step(state, WalkSpec("electric-dtqw", 1, hw, theta1=theta1, phi_e=phi_e)).amps
    return electric, step(state, WalkSpec("dtqw", 1, hw, theta1=theta1)).amps


class TestMakeState:
    def test_left_basis(self):
        s = make_state((1, 0), 0, 8)
        assert s.amps[0, 8] == 1.0
        assert np.count_nonzero(s.amps) == 1

    def test_right_basis_offset(self):
        s = make_state((0, 1), 3, 8)
        assert s.amps[1, 3 + 8] == 1.0
        assert np.count_nonzero(s.amps) == 1

    def test_symmetric_norm(self):
        s = make_state(SYMMETRIC_COIN, 0, 8)
        assert s.norm() == pytest.approx(1.0, abs=1e-12)
        assert probability(s)[0] == pytest.approx(1.0, abs=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            make_state((1, 1), 0, 8)

    @pytest.mark.parametrize("coin", [(math.nan, 0), (0, complex(0, math.nan)), (math.inf, 0), (1, -math.inf)])
    def test_rejects_non_finite_coin(self, coin):
        with pytest.raises(ValueError, match="normalized"):
            make_state(coin, 0, 5)

    def test_rejects_out_of_lattice(self):
        with pytest.raises(ValueError, match="half_width"):
            make_state((1, 0), 8, 8)


class TestCoinMatrix:
    def test_zero_angle_is_identity(self):
        assert np.array_equal(coin_matrix(0.0), np.eye(2))

    def test_quarter_turn(self):
        m = coin_matrix(math.pi / 2)
        assert np.allclose(m, [[0, -1j], [-1j, 0]], atol=1e-15)

    def test_balanced_angle(self):
        m = coin_matrix(math.pi / 4)
        r = 1 / math.sqrt(2)
        assert np.allclose(m, [[r, -1j * r], [-1j * r, r]], atol=1e-15)

    def test_unitary(self, rng):
        for theta in rng.uniform(-10, 10, size=25):
            m = coin_matrix(theta)
            assert np.allclose(m.conj().T @ m, np.eye(2), atol=1e-14)


class TestU2Matrix:
    def test_all_zero_is_identity(self):
        assert np.allclose(u2_matrix(CoinParams()), np.eye(2), atol=1e-15)

    def test_theta_only_is_sigma2_rotation(self):
        t = 0.73
        expect = [[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]]
        assert np.allclose(u2_matrix(CoinParams(theta=t)), expect, atol=1e-15)

    def test_matches_exponential_oracle(self, rng):
        for _ in range(60):
            chi, xi, eta, theta = rng.uniform(-2 * np.pi, 2 * np.pi, size=4)
            oracle = (
                np.exp(1j * chi)
                * expm_unitary(xi * SIGMA2)
                @ expm_unitary(eta * SIGMA3)
                @ expm_unitary(theta * SIGMA2)
            )
            got = u2_matrix(CoinParams(chi, xi, eta, theta))
            assert np.allclose(got, oracle, atol=1e-12)

    def test_determinant_phase(self, rng):
        chi = 0.37
        m = u2_matrix(CoinParams(chi, 0.2, -1.1, 0.4))
        assert np.angle(np.linalg.det(m)) == pytest.approx(2 * chi, abs=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            CoinParams(chi=math.inf)


class TestCoinTable:
    def test_homogeneous_identity_leaves_state(self, rng):
        s = random_state(rng)
        t = CoinTable.homogeneous(CoinParams(), 8)
        assert np.array_equal(coined(s, t), s.amps)

    def test_theta_table_on_delta(self):
        s = make_state((1, 0), 0, 8)
        t = CoinTable.homogeneous(CoinParams(theta=math.pi / 4), 8)
        out = coined(s, t)
        r = 1 / math.sqrt(2)
        assert out[0, 8] == pytest.approx(r, abs=1e-15)
        assert out[1, 8] == pytest.approx(-r, abs=1e-15)

    def test_random_table_matches_single_matrix(self, rng):
        t = CoinTable(
            -8,
            rng.uniform(-3, 3, 17),
            rng.uniform(-3, 3, 17),
            rng.uniform(-3, 3, 17),
            rng.uniform(-3, 3, 17),
        )
        s = make_state((0.6, 0.8j), 2, 8)
        out = coined(s, t)
        expect = u2_matrix(t[2]) @ np.array([0.6, 0.8j])
        assert np.allclose(out[:, 10], expect, atol=1e-13)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)

    def test_matrices_agree_with_u2(self, rng):
        t = CoinTable.random_disorder(5, rng)
        stacked = t.matrices()
        for x in range(-5, 6):
            assert np.allclose(stacked[x + 5], u2_matrix(t[x]), atol=1e-14)

    def test_lattice_mismatch_raises(self, rng):
        s = random_state(rng, half_width=8)
        t = CoinTable.homogeneous(CoinParams(), 7)
        spec = WalkSpec("generalized", 1, 7, table1=t, table2=t)
        with pytest.raises(ValueError, match="does not match"):
            step(s, spec)

    def test_disorder_is_reproducible(self):
        a = CoinTable.random_disorder(6, np.random.default_rng(7))
        b = CoinTable.random_disorder(6, np.random.default_rng(7))
        assert np.array_equal(a.theta, b.theta)
        assert a.theta.min() >= 0.0 and a.theta.max() < 2 * math.pi


class TestShifts:
    def test_minus_moves_left_mover(self):
        s = make_state((1, 0), 0, 8)
        out = shifted(s.amps, True, False)
        assert out[0, 7] == 1.0
        assert np.count_nonzero(out) == 1

    def test_minus_fixes_right_mover(self):
        s = make_state((0, 1), 0, 8)
        out = shifted(s.amps, True, False)
        assert np.array_equal(out, s.amps)

    def test_plus_mirrors_minus(self):
        s = make_state((0, 1), 0, 8)
        assert shifted(s.amps, False, True)[1, 9] == 1.0
        s = make_state((1, 0), 0, 8)
        assert np.array_equal(shifted(s.amps, False, True), s.amps)

    def test_half_shifts_compose_to_full(self, rng):
        for _ in range(10):
            s = random_state(rng)
            minus = shifted(s.amps, True, False)
            plus_minus = shifted(minus, False, True)
            assert np.array_equal(plus_minus, shifted(s.amps, True, True))

    def test_norm_exactly_preserved(self, rng):
        s = random_state(rng)
        for left, right in ((True, False), (False, True), (True, True)):
            out = shifted(s.amps, left, right)
            assert np.linalg.norm(out) == pytest.approx(s.norm(), abs=1e-15)

    def test_amplitude_leaving_the_lattice_lands_in_the_padding(self, rng):
        """The padding holds what a move carries off each edge, where the guard reads it; the state drops it."""
        amps = rng.normal(size=(3, 2, 7)) + 1j * rng.normal(size=(3, 2, 7))
        for left, right in ((True, False), (False, True), (True, True)):
            buffer = landed(amps, np.eye(2, dtype=complex), left, right)
            assert np.array_equal(buffer[..., 0, 0], amps[..., 0, 0] if left else 0 * amps[..., 0, 0])
            assert np.array_equal(buffer[..., 1, -1], amps[..., 1, -1] if right else 0 * amps[..., 1, -1])
            assert np.array_equal(buffer[..., 1:-1], shifted(amps, left, right))

    @pytest.mark.parametrize("left, right", [(True, False), (False, True), (True, True)],
                             ids=["left", "right", "both"])
    def test_windowed_shift_equals_full_width(self, rng, left, right):
        """A per-site coin landed through a window is the full-width landing of amplitudes that vanish outside it.

        The coins are general U(2) tables.  Inside the lattice nothing else
        needs to vanish: the window's columns land one column out of it as
        the full width's do, and the column each mover vacates is never
        written.  Windows reach either edge or both in three trials of four;
        at an edge the amplitude moved off it lands in the padding for both
        (:meth:`test_amplitude_leaving_the_lattice_lands_in_the_padding`).
        """
        for trial in range(400):
            n = int(rng.integers(1, 40))
            lo = 0 if trial % 4 in (0, 2) else int(rng.integers(0, n))
            hi = n if trial % 4 in (1, 2) else int(rng.integers(lo + 1, n + 1))
            shape = ((), (3,))[trial % 2] + (2, hi - lo)
            amps = np.zeros(shape[:-1] + (n,), dtype=complex)
            amps[..., lo:hi] = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * (rng.random(shape) < 0.7)
            coin = np.stack([site_coefficients(CoinTable(0, *rng.uniform(-3, 3, (4, n)))) for _ in range(3)])
            coin = coin[:amps.shape[0]] if amps.ndim == 3 else coin[0]
            full = landed(amps, coin, left, right)
            windowed = landed(amps, coin, left, right, slice(lo, hi))
            assert windowed.tobytes() == full.tobytes(), (n, lo, hi)
            windowed = windowed[..., 1:-1]
            assert not (left and windowed[..., 0, n - 1].any()) and not (right and windowed[..., 1, 0].any())
            assert not (left and windowed[..., 0, hi - 1].any()) and not (right and windowed[..., 1, lo].any())

    @pytest.mark.parametrize("n", [1, 7, 2049, 12001])
    def test_matrix_coin_lands_with_the_bits_of_its_product(self, rng, n):
        """A single matrix landed through a shifted view has the bits of ``coin @ amps``, moved one column.

        BLAS's result depends on the column range, not on where the product
        is written or on the row stride it reads: both amplitudes in their own
        array and the state view of a padded buffer give the same bytes, at
        lattice sizes on both sides of OpenBLAS's threading thresholds.
        """
        amps = rng.normal(size=(3, 2, n)) + 1j * rng.normal(size=(3, 2, n))
        padded = np.zeros((3, 2, n + 2), dtype=complex)
        padded[..., 1:-1] = amps
        coin = random_u2(rng)
        product = coin @ amps
        for left, right in ((True, False), (False, True), (True, True)):
            expected = np.zeros((3, 2, n + 2), dtype=complex)
            expected[..., 0, 1 - left:n + 1 - left] = product[..., 0, :]
            expected[..., 1, 1 + right:n + 1 + right] = product[..., 1, :]
            for source in (amps, padded[..., 1:-1]):
                assert landed(source, coin, left, right).tobytes() == expected.tobytes(), (left, right)

    def test_guard_violation_raises(self):
        amps = np.zeros((2, 5), dtype=complex)
        amps[0, 0] = 1.0
        with pytest.raises(LatticeGuardError, match="off the left edge"):
            guarded_step(amps, PURE_SHIFTS)
        amps = np.zeros((2, 5), dtype=complex)
        amps[1, -1] = 1.0
        with pytest.raises(LatticeGuardError, match="off the right edge"):
            guarded_step(amps, PURE_SHIFTS)

    def test_guard_tolerates_tiny_amplitude(self):
        amps = np.zeros((2, 5), dtype=complex)
        amps[1, 2] = 1.0
        amps[0, 0] = 0.5 * GUARD
        out = guarded_step(amps, PURE_SHIFTS)
        assert out[0, 0] == 0.0
        assert out[1, 3] == 1.0

    @pytest.mark.parametrize("coin, site", [(0, 0), (1, -1)], ids=["left", "right"])
    def test_nan_boundary_amplitude_raises(self, coin, site):
        """A NaN at an edge is not within the guard; it must not be shifted off silently."""
        amps = np.zeros((2, 5), dtype=complex)
        amps[:, 2] = 0.6, 0.8
        amps[coin, site] = np.nan
        with pytest.raises(LatticeGuardError, match="nan"):
            guarded_step(amps, WalkSpec("dtqw", 1, 2, theta1=0.0))

    @pytest.mark.parametrize("value", [np.nan, 10 * GUARD], ids=["nan", "above_guard"])
    @pytest.mark.parametrize("coin, site", [(0, 0), (1, -1)], ids=["left", "right"])
    def test_windowed_shift_guards_the_whole_edge(self, value, coin, site):
        """The guard checks the lattice edge, not the window, before anything moves."""
        spec = WalkSpec("ssqw", 1, 4, theta1=0.9, theta2=-0.4)
        advance = walk._stepper(spec, -4, 9, walk._coins([spec], -4, 9), guard=True)
        amps = np.zeros((3, 2, 9), dtype=complex)
        amps[:, :, 4] = 0.6, 0.8
        amps[1, coin, site] = value
        for window in (slice(3, 6), slice(0, 5), slice(4, 9), slice(0, 9)):
            before = amps.copy()
            with pytest.raises(LatticeGuardError):
                advance(amps, window)
            assert np.array_equal(amps, before, equal_nan=True)


class TestElectricPhase:
    """An electric step is the plain step times exp(i * phi_e * x), bit for bit."""

    def test_zero_is_identity(self, rng):
        s = random_state(rng)
        electric, plain = electric_and_plain_steps(s, 0.0)
        assert electric.tobytes() == plain.tobytes()
        assert np.array_equal(electric, plain * site_phases(s, 0.0))

    def test_full_turn_is_identity(self, rng):
        s = random_state(rng)
        electric, plain = electric_and_plain_steps(s, 2 * math.pi)
        assert electric.tobytes() == plain.tobytes()
        assert np.array_equal(electric, plain * site_phases(s, 2 * math.pi))

    def test_pi_negates_odd_site(self):
        # a coin of angle 0 lets the step move the left mover from site 2 to site 1
        s = make_state((1, 0), 2, 4)
        electric, plain = electric_and_plain_steps(s, math.pi, theta1=0.0)
        assert plain[0, 5] == 1.0
        assert electric[0, 5] == pytest.approx(-1.0, abs=1e-15)
        assert electric.tobytes() == (plain * site_phases(s, math.pi)).tobytes()

    def test_norm_exact(self, rng):
        s = random_state(rng)
        electric, plain = electric_and_plain_steps(s, 1.234)
        assert np.linalg.norm(electric) == pytest.approx(np.linalg.norm(plain), abs=1e-15)
        assert electric.tobytes() == (plain * site_phases(s, 1.234)).tobytes()

    def test_commutes_with_coin(self, rng):
        s = random_state(rng)
        t = CoinTable.random_disorder(8, rng)
        phases = site_phases(s, 0.7)
        a = coined(s, t) * phases
        b = coin_product(s.amps * phases, site_coefficients(t))
        assert np.allclose(a, b, atol=1e-15)
        electric, plain = electric_and_plain_steps(s, 0.7)
        assert electric.tobytes() == (plain * phases).tobytes()


class TestStep:
    def test_dtqw_single_step_hand_values(self):
        spec = WalkSpec("dtqw", 1, 8, coin_state=(1, 0), theta1=math.pi / 4)
        out = step(spec.initial_state(), spec)
        r = 1 / math.sqrt(2)
        assert out.amps[0, 7] == pytest.approx(r, abs=1e-15)
        assert out.amps[1, 9] == pytest.approx(-1j * r, abs=1e-15)
        p = probability(out)
        assert p[-1] == pytest.approx(0.5, abs=1e-15)
        assert p[1] == pytest.approx(0.5, abs=1e-15)

    def test_ssqw_reduces_to_dtqw_when_theta2_zero(self, rng):
        ss = WalkSpec("ssqw", 1, 8, theta1=0.61, theta2=0.0)
        dt = WalkSpec("dtqw", 1, 8, theta1=0.61)
        for _ in range(10):
            s = random_state(rng)
            assert np.allclose(step(s, ss).amps, step(s, dt).amps, atol=1e-13)

    def test_generalized_identity_tables_is_full_shift(self, rng):
        t = CoinTable.homogeneous(CoinParams(), 8)
        spec = WalkSpec("generalized", 1, 8, table1=t, table2=t)
        s = random_state(rng)
        assert np.allclose(step(s, spec).amps, shifted(s.amps, True, True), atol=1e-15)

    @pytest.mark.parametrize("spec, message", [
        (WalkSpec("generalized", 1, 7, seed=3), "call spec.resolved()"),
        (WalkSpec("generalized", 1, 7, table1=CoinTable(-6, *np.zeros((4, 15))),
                  table2=CoinTable(-6, *np.zeros((4, 15)))), "does not match"),
    ], ids=["unresolved", "offset-lattice"])
    def test_generalized_tables_must_be_resolved_on_the_state_lattice(self, spec, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            step(make_state(SYMMETRIC_COIN, 0, 7), spec)

    def test_unknown_kind_is_the_validation_error(self):
        with pytest.raises(ValueError) as validated:
            WalkSpec("foo", 1, 4).validate()
        with pytest.raises(ValueError) as stepped:
            step(make_state(SYMMETRIC_COIN, 0, 4), WalkSpec("foo", 1, 4))
        assert str(stepped.value) == str(validated.value)
        assert str(stepped.value).startswith("unknown walk kind 'foo'; expected one of")

    def test_electric_zero_field_matches_dtqw(self, rng):
        el = WalkSpec("electric-dtqw", 1, 8, theta1=0.3, phi_e=0.0)
        dt = WalkSpec("dtqw", 1, 8, theta1=0.3)
        s = random_state(rng)
        assert np.array_equal(step(s, el).amps, step(s, dt).amps)

    def test_norm_preserved_each_kind(self, rng):
        t1 = CoinTable.random_disorder(40, rng)
        t2 = CoinTable.random_disorder(40, rng)
        specs = [
            WalkSpec("dtqw", 30, 40, theta1=0.9),
            WalkSpec("ssqw", 30, 40, theta1=0.9, theta2=-0.4),
            WalkSpec("generalized", 30, 40, table1=t1, table2=t2),
            WalkSpec("electric-dtqw", 30, 40, theta1=0.9, phi_e=0.5),
        ]
        for spec in specs:
            for state in evolve(spec):
                assert abs(state.norm() - 1.0) < 1e-12


class TestStepGuard:
    """:func:`step` advances arbitrary states, so for every kind each shift guards its lattice edge."""

    @pytest.mark.parametrize("value", [1.0, np.nan], ids=["amplitude", "nan"])
    @pytest.mark.parametrize("site, side", [(0, "left"), (-1, "right")], ids=["left", "right"])
    @pytest.mark.parametrize("spec", [
        WalkSpec("dtqw", 1, 4, theta1=0.9),
        WalkSpec("ssqw", 1, 4, theta1=0.9, theta2=-0.4),
        WalkSpec("generalized", 1, 4, seed=5).resolved(),
        WalkSpec("electric-dtqw", 1, 4, theta1=0.9, phi_e=0.5),
    ], ids=lambda spec: spec.walk_kind)
    def test_edge_amplitude_raises(self, spec, site, side, value):
        amps = np.zeros((2, 2 * spec.half_width + 1), dtype=complex)
        amps[:, site] = value * np.array(SYMMETRIC_COIN)
        magnitude = "nan" if math.isnan(value) else r"\S+"
        with pytest.raises(LatticeGuardError, match=rf"magnitude {magnitude} off the {side} edge"):
            step(walk.WalkerState(-spec.half_width, amps), spec)


class TestEvolve:
    def test_zero_steps(self):
        traj = evolve(WalkSpec("dtqw", 0, 4))
        assert len(traj) == 1
        assert probability(traj[0])[0] == pytest.approx(1.0)

    def test_three_steps_match_dense_oracle(self):
        L = 8
        spec = WalkSpec("dtqw", 3, L, coin_state=(1, 0), theta1=math.pi / 4)
        op = dense_shift_full(L) @ dense_coin(coin_matrix(math.pi / 4), L)
        vec = state_vector(spec.initial_state())
        for _ in range(3):
            vec = op @ vec
        got = state_vector(evolve(spec)[-1])
        assert np.allclose(got, vec, atol=1e-12)

    def test_symmetric_coin_symmetric_distribution(self):
        spec = WalkSpec("dtqw", 25, 28, coin_state=SYMMETRIC_COIN, theta1=math.pi / 4)
        p = probability(evolve(spec)[-1])
        for x in range(1, 26):
            assert p[x] == pytest.approx(p[-x], abs=1e-12)

    def test_circular_coin_is_directed_under_this_convention(self):
        # (1, i)/sqrt(2) is the symmetric state of real Hadamard-type coins;
        # this coin maps it straight onto the left mover at theta = pi/4, so
        # the walk from it is one-sided after the first step.
        r = 1 / math.sqrt(2)
        out = coin_matrix(math.pi / 4) @ np.array([r, 1j * r])
        assert np.allclose(out, [1.0, 0.0], atol=1e-15)
        spec = WalkSpec("dtqw", 1, 4, coin_state=(r, 1j * r), theta1=math.pi / 4)
        p = probability(evolve(spec)[-1])
        assert p[-1] == pytest.approx(1.0, abs=1e-14)
        assert p[1] == pytest.approx(0.0, abs=1e-14)

    def test_bit_reproducible_with_seed(self):
        spec = WalkSpec("generalized", 12, 15, seed=99)
        a = evolve(spec)[-1]
        b = evolve(spec)[-1]
        assert np.array_equal(a.amps, b.amps)

    def test_rejects_small_lattice(self):
        with pytest.raises(LatticeGuardError) as err:
            evolve(WalkSpec("dtqw", 10, 5))
        assert err.value.required_half_width == 12


class TestProbabilityMoments:
    def test_delta(self):
        p = probability(make_state((1, 0), 0, 4))
        mean, var = moments(p)
        assert p[0] == 1.0 and mean == 0.0 and var == 0.0

    def test_two_point(self):
        amps = np.zeros((2, 5), dtype=complex)
        amps[0, 1] = amps[1, 3] = 1 / math.sqrt(2)
        p = probability(walk.WalkerState(-2, amps))
        mean, var = moments(p)
        assert mean == pytest.approx(0.0, abs=1e-15)
        assert var == pytest.approx(1.0, abs=1e-14)

    def test_three_step_distribution_sums_to_one(self):
        p = probability(evolve(WalkSpec("dtqw", 3, 6))[-1])
        assert sum(p.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(v >= 0 for v in p.values())


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="walk kind"):
            WalkSpec("ctqw", 1, 8).validate()

    def test_unknown_kind_is_refused_at_construction(self):
        """No method of a spec meets an unknown kind: the lattice size, for one, needs the kind's reach."""
        with pytest.raises(ValueError, match=re.escape(
                "unknown walk kind 'ctqw'; expected one of ('dtqw', 'ssqw', 'generalized', 'electric-dtqw')")):
            WalkSpec("ctqw", 3, 8)

    def test_generalized_needs_tables_or_seed(self):
        with pytest.raises(ValueError, match="seed"):
            WalkSpec("generalized", 1, 8).validate()

    def test_table_lattice_checked(self):
        t = CoinTable.homogeneous(CoinParams(), 5)
        with pytest.raises(ValueError, match="cover"):
            WalkSpec("generalized", 1, 8, table1=t, table2=t).validate()

    @pytest.mark.parametrize("kind", ["generalized", "dtqw"])
    def test_negative_seed_rejected(self, kind):
        with pytest.raises(ValueError, match="seed must be at least 0, got -1"):
            WalkSpec(kind, 1, 8, seed=-1)

    def test_kinds_are_the_step_definitions(self):
        assert WalkSpec.KINDS == ("dtqw", "ssqw", "generalized", "electric-dtqw")
        assert WalkSpec.KINDS == tuple(walk.STEP_MOVES)

    @pytest.mark.parametrize("call, error, message", [
        (lambda: walk.WalkerState(0, np.zeros((3, 4))), ValueError, r"must have shape \(2, n_sites\), got \(3, 4\)"),
        (lambda: CoinTable(0, np.zeros((2, 2)), [0, 0], [0, 0], [0, 0]), ValueError, "column chi must be 1-D"),
        (lambda: CoinTable(0, [0, 0], [0], [0, 0], [0, 0]), ValueError, "columns must have equal length"),
        (lambda: CoinTable(0, [], [], [], []), ValueError, "must cover at least one site"),
        (lambda: CoinTable(0, [0], [0], [0], [0])[1], KeyError, r"site 1 outside table range \[0, 0\]"),
        (lambda: make_state(SYMMETRIC_COIN, 0, 0), ValueError, r"start site 0 must satisfy \|x0\| < half_width = 0"),
        (lambda: WalkSpec("dtqw", -1, 8), ValueError, "steps must be at least 0, got -1"),
        (lambda: next(walk.iterate_ensemble([])), ValueError, "an ensemble needs at least one walk"),
        (lambda: next(walk.distribution_blocks([])), ValueError, "an ensemble needs at least one walk"),
        (lambda: walk.split_step_operator(np.tile(np.eye(2), (3, 1, 1)), np.eye(2), 4), ValueError,
         r"coin must be \(2, 2\) or \(9, 2, 2\), got \(3, 2, 2\)"),
        (lambda: CoinTable(0.5, [0], [0], [0], [0]), ValueError, "^lattice_min must be an integer, got 0.5$"),
        (lambda: CoinTable("x", [0], [0], [0], [0]), ValueError, "^lattice_min must be an integer, got 'x'$"),
        (lambda: CoinTable(0, [True], [0], [0], [0]), ValueError,
         "^coin table column chi entry must be a finite real number, got True$"),
        (lambda: CoinTable(0, [0], ["1.5"], [0], [0]), ValueError,
         "^coin table column xi entry must be a finite real number, got '1.5'$"),
        (lambda: CoinTable(0, [0], [0], [0], np.array([0.0, math.inf, math.nan])), ValueError,
         "^coin table column theta entry must be a finite real number, got inf$"),
        (lambda: walk.WalkerState("x", [[1], [0]]), ValueError, "^lattice_min must be an integer, got 'x'$"),
        (lambda: walk.WalkerState(True, [[1], [0]]), ValueError, "^lattice_min must be an integer, got True$"),
    ], ids=["state-shape", "table-column-2d", "table-column-lengths", "empty-table", "table-site", "zero-half-width",
            "negative-steps", "empty-ensemble", "empty-distribution-blocks", "coin-stack-length",
            "table-fractional-lattice-min", "table-string-lattice-min", "table-boolean-angle", "table-string-angle",
            "table-float-array-angle", "state-string-lattice-min", "state-boolean-lattice-min"])
    def test_malformed_arguments_raise_with_their_message(self, call, error, message):
        with pytest.raises(error, match=message):
            call()

    def test_table_and_state_read_an_integral_float_as_that_integer(self):
        table, state = CoinTable(-1.0, [0, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0]), walk.WalkerState(2.0, [[1], [0]])
        assert [(type(v), v) for v in (table.lattice_min, state.lattice_min)] == [(int, -1), (int, 2)]
        assert table.lattice_max == 1 and state.lattice_max == 2


def basis_images(advance, n):
    """Matrix of a linear map on amplitudes (..., 2, n): its image of every basis state at once."""
    dim = 2 * n
    images = advance(np.eye(dim, dtype=complex).reshape(dim, 2, n))
    return np.ascontiguousarray(images.reshape(dim, dim).T)


def basis_state_operator(spec, coins):
    """The step matrix as the unguarded kernel's image of every basis state."""
    n = 2 * spec.half_width + 1
    return basis_images(walk._stepper(spec, -spec.half_width, n, coins, guard=False), n)


class TestDenseBuilders:
    def test_shift_matrices_match_oracle(self):
        # the kernel's shift, applied to every basis state
        for L in (2, 5):
            n = 2 * L + 1
            for (left, right), oracle in [
                ((True, False), dense_shift_minus),
                ((False, True), dense_shift_plus),
                ((True, True), dense_shift_full),
            ]:
                got = basis_images(lambda a: shifted(a, left, right), n)
                assert np.array_equal(got, oracle(L))

    def test_step_operator_matches_state_path(self, rng):
        L = 6
        t1 = CoinTable.random_disorder(L, rng)
        t2 = CoinTable.random_disorder(L, rng)
        specs = [
            WalkSpec("dtqw", 1, L, theta1=0.8),
            WalkSpec("ssqw", 1, L, theta1=0.8, theta2=0.3),
            WalkSpec("generalized", 1, L, table1=t1, table2=t2),
            WalkSpec("electric-dtqw", 1, L, theta1=0.8, phi_e=0.9),
        ]
        for spec in specs:
            op = walk.step_operator(spec)
            s = random_state(rng, half_width=L)
            assert np.allclose(op @ state_vector(s), state_vector(step(s, spec)), atol=1e-13)

    def test_per_site_coin_block(self, rng):
        L = 4
        t = CoinTable.random_disorder(L, rng)
        coin = site_coefficients(t)
        got = basis_images(lambda a: coin_product(a, coin), 2 * L + 1)
        assert np.allclose(got, dense_coin(t.matrices(), L), atol=1e-15)

    @pytest.mark.parametrize("half_width", [3, 6])
    def test_step_operator_is_the_step_kernel(self, rng, half_width):
        # four-angle U(2) tables and phi_e != 0 (see four_kinds)
        L, n = half_width, 2 * half_width + 1
        minus, plus, full = dense_shift_minus(L), dense_shift_plus(L), dense_shift_full(L)
        for spec in four_kinds(rng, steps=1, half_width=L):
            op = walk.step_operator(spec)
            # every basis state that keeps clear of the edges: the operator's
            # column is the step of that state, bit for bit
            for coin in range(2):
                for k in range(1, n - 1):
                    basis = np.zeros((2, n), dtype=complex)
                    basis[coin, k] = 1.0
                    got = state_vector(step(walk.WalkerState(-L, basis), spec))
                    assert np.array_equal(op[:, coin * n + k], got)
            # the whole operator, edge columns included, against the oracles
            if spec.walk_kind == "generalized":
                c1, c2 = spec.table1.matrices(), spec.table2.matrices()
            else:
                c1, c2 = coin_matrix(spec.theta1), coin_matrix(spec.theta2)
            if spec.walk_kind in ("ssqw", "generalized"):
                expect = plus @ dense_coin(c2, L) @ minus @ dense_coin(c1, L)
                assert np.array_equal(walk.split_step_operator(c1, c2, L), op)
            else:
                expect = full @ dense_coin(c1, L)
            if spec.walk_kind == "electric-dtqw":
                phases = np.exp(1j * spec.phi_e * np.arange(-L, L + 1))
                expect = np.diag(np.concatenate([phases, phases])) @ expect
            assert np.max(np.abs(op - expect)) < 1e-13


def probe_cases(rng, half_width):
    """Every kind, four-angle tables, and an electric field one ulp below a full turn."""
    specs = four_kinds(rng, steps=1, half_width=half_width)
    specs.append(WalkSpec("electric-dtqw", 1, half_width, theta1=-1.2, phi_e=np.nextafter(2 * math.pi, 0)))
    return specs


class TestProbedOperators:
    """Comb probes give the matrix the basis-state images give, bit for bit."""

    @pytest.mark.parametrize("half_width", [1, 2, 3, 40])
    def test_step_operator_equals_basis_state_images(self, rng, half_width):
        # at half-width 1 the three-residue comb is as wide as the lattice; a one-step walk
        # needs half-width 3, so below it the probes are read without step_operator's check
        n = 2 * half_width + 1
        for spec in probe_cases(rng, half_width):
            coins = walk._coins([spec], -half_width, n)
            op = walk.step_operator(spec) if half_width >= spec.required_half_width() else walk._probed(spec, coins)
            assert op.flags.c_contiguous
            assert np.array_equal(op, basis_state_operator(spec, coins)), spec.walk_kind

    def test_generalized_step_operator_at_l256(self, rng):
        spec = four_kinds(rng, steps=1, half_width=256)[2]
        coins = walk._coins([spec], -256, 513)
        assert np.array_equal(walk.step_operator(spec), basis_state_operator(spec, coins))

    @pytest.mark.parametrize("half_width", [1, 2, 3, 40])
    def test_split_step_operator_equals_basis_state_images(self, rng, half_width):
        # at half-width 1 the comb spacing (3) is as wide as the lattice
        (table,) = random_tables(rng, 1, half_width)
        ssqw = WalkSpec("ssqw", 1, half_width)
        general = u2_matrix(CoinParams(0.3, -1.1, 0.7, 2.0))
        for c1, c2 in [(coin_matrix(0.9), coin_matrix(-0.4)), (general, table.matrices())]:
            coins = [c if c.ndim == 2 else np.ascontiguousarray(c.transpose(1, 2, 0)) for c in (c1, c2)]
            expect = basis_state_operator(ssqw, coins)
            assert np.array_equal(walk.split_step_operator(c1, c2, half_width), expect)

    @pytest.mark.parametrize("kind", WalkSpec.KINDS)
    def test_peak_memory_is_one_dense_matrix(self, rng, kind):
        L = 64
        dense_bytes = (2 * (2 * L + 1)) ** 2 * 16
        spec = next(s for s in four_kinds(rng, steps=1, half_width=L) if s.walk_kind == kind)
        _, peak = traced_peak(walk.step_operator, spec)
        assert peak <= 1.5 * dense_bytes


class TestNonFinite:
    @pytest.mark.parametrize("field", ["theta1", "theta2", "phi_e"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_spec_angles_must_be_finite(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a finite real number"):
            WalkSpec("electric-dtqw", 1, 8, **{field: value})

    def test_table_columns_must_be_finite(self):
        theta = np.zeros(5)
        theta[2] = math.nan
        with pytest.raises(ValueError, match="finite"):
            CoinTable(-2, np.zeros(5), np.zeros(5), np.zeros(5), theta)


# --- streamed and batched evolution ------------------------------------------
#
# The reference below is the one-walk, one-step-at-a-time kernel written out
# with the operations earlier releases used (einsum for per-site coins, a
# matrix product for homogeneous ones).  The streamed and batched paths must
# reproduce it bit for bit, since every recorded output depends on it.


def reference_step(amps: np.ndarray, spec: WalkSpec) -> np.ndarray:
    def coin(a, c):
        return c @ a if c.ndim == 2 else np.einsum("xij,jx->ix", c, a)

    def minus(a):
        new = a.copy()
        new[0, :-1], new[0, -1] = a[0, 1:], 0.0
        return new

    def plus(a):
        new = a.copy()
        new[1, 1:], new[1, 0] = a[1, :-1], 0.0
        return new

    if spec.walk_kind in ("ssqw", "generalized"):
        if spec.walk_kind == "ssqw":
            c1, c2 = coin_matrix(spec.theta1), coin_matrix(spec.theta2)
        else:
            c1, c2 = spec.table1.matrices(), spec.table2.matrices()
        return plus(coin(minus(coin(amps, c1)), c2))
    new = plus(minus(coin(amps, coin_matrix(spec.theta1))))
    r = math.remainder(spec.phi_e, 2 * math.pi)
    if spec.walk_kind == "electric-dtqw" and r != 0.0:
        new = new * np.exp(1j * (r * np.arange(-spec.half_width, spec.half_width + 1)))
    return new


def four_kinds(rng, steps=15, half_width=21, start=0):
    t1, t2 = random_tables(rng, 2, half_width)
    common = dict(coin_state=(0.6, 0.8j), start=start)
    return [
        WalkSpec("dtqw", steps, half_width, theta1=0.9, **common),
        WalkSpec("ssqw", steps, half_width, theta1=0.9, theta2=-0.4, **common),
        WalkSpec("generalized", steps, half_width, table1=t1, table2=t2, **common),
        WalkSpec("electric-dtqw", steps, half_width, theta1=0.9, phi_e=0.5, **common),
    ]


def random_tables(rng, count, half_width):
    n = 2 * half_width + 1
    return [CoinTable(-half_width, *(rng.uniform(-3, 3, n) for _ in range(4))) for _ in range(count)]


class TestIterate:
    @pytest.mark.parametrize("start", [0, -3])
    def test_matches_step_loop_and_reference_bitwise(self, rng, start):
        for spec in four_kinds(rng, start=start):
            streamed = list(walk.iterate(spec))
            state, amps = spec.initial_state(), spec.initial_state().amps
            assert np.array_equal(streamed[0].amps, amps)
            for got in streamed[1:]:
                state = step(state, spec)
                amps = reference_step(amps, spec)
                assert np.array_equal(got.amps, state.amps), spec.walk_kind
                assert np.array_equal(got.amps, amps), spec.walk_kind
            assert len(streamed) == spec.steps + 1

    def test_evolve_is_collected_iterate(self):
        spec = WalkSpec("generalized", 9, 12, seed=5)
        for a, b in zip(evolve(spec), walk.iterate(spec), strict=True):
            assert np.array_equal(a.amps, b.amps)

    def test_is_lazy_and_validates_on_first_state(self):
        stream = walk.iterate(WalkSpec("dtqw", 10, 5))
        with pytest.raises(LatticeGuardError):
            next(stream)

    @pytest.mark.parametrize("kind_keys", [{"walk_kind": "ssqw", "theta2": -0.4},
                                           {"walk_kind": "electric-dtqw", "phi_e": 0.37}], ids=lambda k: k["walk_kind"])
    def test_yielded_states_stay_intact(self, kind_keys):
        """A yielded array is a read-only view of the kernel's buffers, intact until the next one is requested."""
        spec = WalkSpec(steps=20, half_width=24, theta1=0.9, coin_state=(0.6, 0.8j), **kind_keys)
        state = spec.initial_state()
        for t, amps in enumerate(walk.iterate_ensemble([spec])):
            if t:
                state = step(state, spec)
            assert not amps.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                amps[0, 0, 0] = 1.0
            assert np.array_equal(amps[0], state.amps), t
        assert t == spec.steps

    @pytest.mark.parametrize("kind", sorted(walk.STEP_MOVES))
    def test_evolve_returns_distinct_states(self, rng, kind):
        """``evolve`` keeps T+1 states of their own, each the full-width reference chain's, however the
        kernel reuses its buffers."""
        spec = next(s for s in four_kinds(rng, steps=12, half_width=16, start=1) if s.walk_kind == kind)
        states = evolve(spec)
        assert len(states) == spec.steps + 1
        assert not any(np.shares_memory(a.amps, b.amps) for a, b in itertools.combinations(states, 2))
        amps = spec.initial_state().amps
        for t, state in enumerate(states):
            if t:
                amps = reference_step(amps, spec)
            assert np.array_equal(state.amps, amps), t

    def test_builds_each_coin_table_once(self, monkeypatch):
        calls = []
        original = CoinTable.matrices
        monkeypatch.setattr(CoinTable, "matrices", lambda self: calls.append(1) or original(self))
        for _ in walk.iterate(WalkSpec("generalized", 20, 22, seed=1)):
            pass
        assert len(calls) == 2


class TestReductions:
    def test_probability_and_moments_are_views_of_arrays(self, rng):
        state = random_state(rng)
        p = walk.site_probabilities(state.amps)
        assert list(probability(state).values()) == p.tolist()
        mean, var = walk.site_moments(p, state.sites)
        assert (float(mean), float(var)) == moments(probability(state))

    def test_batched_rows_equal_single_rows(self, rng):
        amps = rng.normal(size=(4, 2, 33)) + 1j * rng.normal(size=(4, 2, 33))
        sites = np.arange(-16, 17)
        p = walk.site_probabilities(amps)
        mean, var = walk.site_moments(p, sites)
        assert mean.shape == var.shape == (4,)
        for s in range(4):
            assert np.array_equal(p[s], walk.site_probabilities(amps[s]))
            m, v = walk.site_moments(p[s], sites)
            assert m == mean[s] and v == var[s]


def reference_moments(p: np.ndarray, sites) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance as one 1-D ``@`` per row, the form earlier releases computed."""
    xs = np.asarray(sites, dtype=np.float64)
    rows = p.reshape(-1, p.shape[-1])
    total = p.sum(axis=-1)
    mean = np.array([xs @ w for w in rows]).reshape(total.shape) / total
    dev = ((xs - mean[..., np.newaxis]) ** 2).reshape(rows.shape)
    var = np.array([d @ w for d, w in zip(dev, rows)]).reshape(total.shape) / total
    return mean, var


def check_moments_equal_reference(n: int) -> None:
    """``site_moments`` has the reference's bytes at n sites, for leading shapes (), (3,) and (4, 5)."""
    rng = np.random.default_rng(n)
    sites = np.arange(n) - n // 3
    for shape in [(), (3,), (4, 5)]:
        p = rng.random(shape + (n,)) ** 3
        lo = int(rng.integers(0, n))
        p[..., :lo] = p[..., rng.integers(lo, n) + 1:] = 0.0  # a light cone, never empty
        got, want = walk.site_moments(p, sites), reference_moments(p, sites)
        for g, w in zip(got, want, strict=True):
            assert np.shape(g) == shape and np.asarray(g).tobytes() == np.asarray(w).tobytes(), (n, shape)


class TestSiteMoments:
    """One vectorized ``ddot`` per row gives the bytes of per-row ``@``, on both sides of BLAS threading.

    OpenBLAS splits a dot product of more than 10000 elements across its
    threads, which moves the last bits; both forms make the same call, so
    they must agree with one thread and with the default count.
    """

    @pytest.mark.parametrize("n", [605, 2049])
    def test_equals_per_row_products(self, n):
        check_moments_equal_reference(n)

    @pytest.mark.parametrize("threads", ["1", None], ids=["one_thread", "default_threads"])
    def test_equals_per_row_products_past_threading_threshold(self, threads):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        here = Path(__file__).resolve().parent
        env["PYTHONPATH"] = os.pathsep.join([str(here.parent / "src"), str(here)])
        code = "import test_walk\nfor n in (10001, 16385):\n    test_walk.check_moments_equal_reference(n)"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestEnsemble:
    def ensemble_sigmas(self, members):
        sites = np.arange(-members[0].half_width, members[0].half_width + 1)
        return np.array(
            [np.sqrt(walk.site_moments(walk.site_probabilities(a), sites)[1]) for a in walk.iterate_ensemble(members)]
        ).T

    @pytest.mark.parametrize("start", [0, 4])
    def test_seeded_members_match_single_walks(self, start):
        members = [WalkSpec("generalized", 20, 26, start=start, coin_state=(0.6, 0.8j), seed=s) for s in range(30, 35)]
        got = self.ensemble_sigmas(members)
        for row, member in zip(got, members, strict=True):
            assert row.tolist() == [walk.spread(probability(s)) for s in evolve(member)]

    def test_explicit_tables_match_single_walks(self, rng):
        tables = random_tables(rng, 6, 15)
        members = [WalkSpec("generalized", 11, 15, start=-2, table1=a, table2=b) for a, b in zip(tables[::2], tables[1::2])]
        for row, member in zip(self.ensemble_sigmas(members), members, strict=True):
            assert row.tolist() == [walk.spread(probability(s)) for s in evolve(member)]

    def test_rows_are_the_streamed_states(self):
        members = [WalkSpec("generalized", 8, 10, seed=s) for s in (1, 2)]
        for batch, *singles in zip(walk.iterate_ensemble(members), *map(walk.iterate, members), strict=True):
            assert batch.shape == (2, 2, 21)
            for row, single in zip(batch, singles):
                assert np.array_equal(row, single.amps)

    def test_members_must_share_everything_but_tables(self):
        members = [WalkSpec("generalized", 8, 12, seed=1), WalkSpec("generalized", 8, 12, start=1, seed=2)]
        with pytest.raises(ValueError, match="differ only"):
            next(walk.iterate_ensemble(members))

    @pytest.mark.parametrize("count", [1, 5, 20])
    def test_distribution_blocks_keep_only_the_current_state(self, monkeypatch, count):
        """A block reads its states one at a time, so no earlier state outlives the step after it."""
        streamed, iterate_ensemble = [], walk.iterate_ensemble

        def recorded(specs):
            for amps in iterate_ensemble(specs):
                streamed.append(weakref.ref(amps))
                yield amps

        monkeypatch.setattr(walk, "iterate_ensemble", recorded)
        members = [WalkSpec("generalized", 20, 24, seed=s) for s in range(count)]
        for _ in walk.distribution_blocks(members):
            assert [t for t, ref in enumerate(streamed) if ref() is not None] == [len(streamed) - 1]
        assert len(streamed) == 21
