"""Tests for the abstract walk layer: states, the step kernel's coins and shifts, evolutions."""

import math
import os
import subprocess
import sys
import tracemalloc
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
    state_vector,
)


def random_state(rng, half_width=8):
    """Normalized random state supported away from the boundary."""
    n = 2 * half_width + 1
    amps = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
    amps[:, 0] = amps[:, -1] = 0.0
    amps /= np.linalg.norm(amps)
    return walk.WalkerState(-half_width, amps)


def coined(state, table):
    """The kernel's per-site coin of ``table`` on ``state``'s amplitudes."""
    return walk._coin(state.amps, walk._site_coefficients(table))


def shifted(amps, lattice_min, left, right):
    """The kernel's shift on a copy of ``amps``."""
    return walk._shift(amps.copy(), lattice_min, left, right)


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
        out = shifted(s.amps, s.lattice_min, True, False)
        assert out[0, 7] == 1.0
        assert np.count_nonzero(out) == 1

    def test_minus_fixes_right_mover(self):
        s = make_state((0, 1), 0, 8)
        out = shifted(s.amps, s.lattice_min, True, False)
        assert np.array_equal(out, s.amps)

    def test_plus_mirrors_minus(self):
        s = make_state((0, 1), 0, 8)
        assert shifted(s.amps, s.lattice_min, False, True)[1, 9] == 1.0
        s = make_state((1, 0), 0, 8)
        assert np.array_equal(shifted(s.amps, s.lattice_min, False, True), s.amps)

    def test_half_shifts_compose_to_full(self, rng):
        for _ in range(10):
            s = random_state(rng)
            minus = shifted(s.amps, s.lattice_min, True, False)
            plus_minus = shifted(minus, s.lattice_min, False, True)
            assert np.array_equal(plus_minus, shifted(s.amps, s.lattice_min, True, True))

    def test_norm_exactly_preserved(self, rng):
        s = random_state(rng)
        for left, right in ((True, False), (False, True), (True, True)):
            out = shifted(s.amps, s.lattice_min, left, right)
            assert np.linalg.norm(out) == pytest.approx(s.norm(), abs=1e-15)

    def test_guard_violation_raises(self):
        amps = np.zeros((2, 5), dtype=complex)
        amps[0, 0] = 1.0
        with pytest.raises(LatticeGuardError):
            shifted(amps, -2, True, False)
        amps = np.zeros((2, 5), dtype=complex)
        amps[1, -1] = 1.0
        with pytest.raises(LatticeGuardError):
            shifted(amps, -2, False, True)

    def test_guard_tolerates_tiny_amplitude(self):
        amps = np.zeros((2, 5), dtype=complex)
        amps[1, 2] = 1.0
        amps[0, 0] = 0.5 * GUARD
        assert shifted(amps, -2, True, False)[0, 0] == 0.0

    @pytest.mark.parametrize("coin, site", [(0, 0), (1, -1)], ids=["left", "right"])
    def test_nan_boundary_amplitude_raises(self, coin, site):
        """A NaN at an edge is not within the guard; it must not be shifted off silently."""
        amps = np.zeros((2, 5), dtype=complex)
        amps[:, 2] = 0.6, 0.8
        amps[coin, site] = np.nan
        with pytest.raises(LatticeGuardError, match="nan"):
            shifted(amps, -2, True, True)

    @pytest.mark.parametrize("left, right", [(True, False), (False, True), (True, True)],
                             ids=["left", "right", "both"])
    def test_windowed_shift_equals_full_width(self, rng, left, right):
        """Moving only a window's columns is the full-width shift of amplitudes that vanish outside it.

        Windows reach either edge or both in three trials of four.  Without
        the guard the support may touch the edges, whose amplitude is dropped.
        """
        for trial in range(400):
            n = int(rng.integers(1, 40))
            lo = 0 if trial % 4 in (0, 2) else int(rng.integers(0, n))
            hi = n if trial % 4 in (1, 2) else int(rng.integers(lo + 1, n + 1))
            shape = ((), (3,))[trial % 2] + (2, hi - lo)
            amps = np.zeros(shape[:-1] + (n,), dtype=complex)
            amps[..., lo:hi] = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * (rng.random(shape) < 0.7)
            guard = bool(rng.integers(2))
            if guard:
                amps[..., 0, 0] = amps[..., 1, -1] = 0.0
            full = walk._shift(amps.copy(), -(n // 2), left, right, guard)
            windowed = walk._shift(amps.copy(), -(n // 2), left, right, guard, slice(lo, hi))
            assert np.array_equal(windowed, full), (n, lo, hi)

    @pytest.mark.parametrize("value", [np.nan, 10 * GUARD], ids=["nan", "above_guard"])
    @pytest.mark.parametrize("coin, site", [(0, 0), (1, -1)], ids=["left", "right"])
    def test_windowed_shift_guards_the_whole_edge(self, value, coin, site):
        """The guard checks the lattice edge, not the window, before anything moves."""
        amps = np.zeros((3, 2, 9), dtype=complex)
        amps[:, :, 4] = 0.6, 0.8
        amps[1, coin, site] = value
        for window in (slice(3, 6), slice(0, 5), slice(4, 9), slice(0, 9)):
            before = amps.copy()
            with pytest.raises(LatticeGuardError):
                walk._shift(amps, -4, True, True, window=window)
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
        b = walk._coin(s.amps * phases, walk._site_coefficients(t))
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
        assert np.allclose(step(s, spec).amps, shifted(s.amps, s.lattice_min, True, True), atol=1e-15)

    def test_unknown_kind_is_the_validation_error(self):
        spec = WalkSpec("foo", 1, 4)
        with pytest.raises(ValueError) as validated:
            spec.validate()
        with pytest.raises(ValueError) as stepped:
            step(make_state(SYMMETRIC_COIN, 0, 4), spec)
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

    def test_generalized_needs_tables_or_seed(self):
        with pytest.raises(ValueError, match="seed"):
            WalkSpec("generalized", 1, 8).validate()

    def test_table_lattice_checked(self):
        t = CoinTable.homogeneous(CoinParams(), 5)
        with pytest.raises(ValueError, match="cover"):
            WalkSpec("generalized", 1, 8, table1=t, table2=t).validate()

    @pytest.mark.parametrize("kind", ["generalized", "dtqw"])
    def test_negative_seed_rejected(self, kind):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            WalkSpec(kind, 1, 8, seed=-1).validate()

    def test_kinds_are_the_step_definitions(self):
        assert WalkSpec.KINDS == ("dtqw", "ssqw", "generalized", "electric-dtqw")
        assert WalkSpec.KINDS == tuple(walk.STEP_MOVES)


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
        # the kernel's shifts, unguarded and applied to every basis state
        for L in (2, 5):
            n = 2 * L + 1
            for (left, right), oracle in [
                ((True, False), dense_shift_minus),
                ((False, True), dense_shift_plus),
                ((True, True), dense_shift_full),
            ]:
                got = basis_images(lambda a: walk._shift(a, -L, left, right, guard=False), n)
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
        coin = walk._site_coefficients(t)
        got = basis_images(lambda a: walk._coin(a, coin), 2 * L + 1)
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

    @pytest.mark.parametrize("half_width", [3, 40])
    def test_step_operator_equals_basis_state_images(self, rng, half_width):
        for spec in probe_cases(rng, half_width):
            op = walk.step_operator(spec)
            assert op.flags.c_contiguous
            assert np.array_equal(op, basis_state_operator(spec, walk._coins(spec))), spec.walk_kind

    def test_generalized_step_operator_at_l256(self, rng):
        spec = four_kinds(rng, steps=1, half_width=256)[2]
        assert np.array_equal(walk.step_operator(spec), basis_state_operator(spec, walk._coins(spec)))

    @pytest.mark.parametrize("half_width", [1, 2, 3, 40])
    def test_split_step_operator_equals_basis_state_images(self, rng, half_width):
        # at half-width 1 and 2 the comb spacing (5) is not narrower than the lattice
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
        tracemalloc.start()
        try:
            walk.step_operator(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * dense_bytes


class TestNonFinite:
    @pytest.mark.parametrize("field", ["theta1", "theta2", "phi_e"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_spec_angles_must_be_finite(self, field, value):
        spec = WalkSpec("electric-dtqw", 1, 8, **{field: value})
        with pytest.raises(ValueError, match=field):
            spec.validate()

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
        """The kernel shifts and phases new arrays in place; a yielded one is never written again."""
        spec = WalkSpec(steps=20, half_width=24, theta1=0.9, coin_state=(0.6, 0.8j), **kind_keys)
        kept = list(walk.iterate_ensemble([spec]))
        state = spec.initial_state()
        for t, amps in enumerate(kept):
            if t:
                state = step(state, spec)
            assert not amps.flags.writeable
            assert np.array_equal(amps[0], state.amps), t

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
