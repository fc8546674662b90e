"""Tests for the continuum transport/mass model and its refinement behavior."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oamwalk import walk
from oamwalk.continuum import (
    WavepacketSpec,
    continuum_residual,
    dirac_rhs,
    gaussian_state,
    mass_matrix,
    transport_matrix,
)

from conftest import SIGMA3
from symbol_oracle import symbol


class TestMatrices:
    def test_mass_vanishes_for_opposite_angles(self, rng):
        for t in rng.uniform(-3, 3, size=10):
            assert np.array_equal(mass_matrix(t, -t), np.zeros((2, 2)))

    def test_transport_at_zero_angle_is_sigma3(self):
        assert np.array_equal(transport_matrix(0.0), SIGMA3)


angles = st.floats(-math.pi, math.pi)


@settings(max_examples=200, deadline=None)
@given(theta1=angles, theta2=angles)
def test_continuum_matrices_are_the_first_order_expansion_of_the_symbol(theta1, theta2):
    """U(0) - 1 is the mass matrix and dU/dk(0) is i cos(theta2) times the transport matrix.

    The symbol comes from ``symbol_oracle``, which imports nothing from ``oamwalk``.
    """
    u, du = symbol("ssqw", theta1, theta2, np.array([0.0]))
    assert np.max(np.abs(u[0] - np.eye(2) - mass_matrix(theta1, theta2))) <= 1e-15
    assert np.max(np.abs(du[0] - 1j * math.cos(theta2) * transport_matrix(theta1))) <= 1e-15


class TestGaussianState:
    def test_normalized_and_guarded(self):
        s = gaussian_state(WavepacketSpec(width=6.0))
        assert s.norm() == pytest.approx(1.0, abs=1e-12)
        assert abs(s.amps[:, 0]).max() <= walk.GUARD
        assert abs(s.amps[:, -1]).max() <= walk.GUARD

    def test_width_sets_spread(self):
        s = gaussian_state(WavepacketSpec(width=8.0))
        p = walk.probability(s)
        assert walk.spread(p) == pytest.approx(8.0, rel=1e-3)

    def test_small_lattice_rejected(self):
        with pytest.raises(walk.LatticeGuardError):
            gaussian_state(WavepacketSpec(width=10.0), half_width=20)

    def test_narrow_packet_rejected(self):
        with pytest.raises(ValueError, match="width"):
            WavepacketSpec(width=2.0)

    @pytest.mark.parametrize("fields, name", [
        ({"width": math.nan}, "width"),
        ({"width": math.inf}, "width"),
        ({"width": "8"}, "width"),
        ({"momentum": math.nan}, "momentum"),
        ({"momentum": -math.inf}, "momentum"),
        ({"center": 0.5}, "center"),
        ({"center": True}, "center"),
        ({"coin": (1.0, 1.0)}, "coin"),
        ({"coin": (math.nan, 0.0)}, "coin"),
    ])
    def test_each_field_is_checked_when_built(self, fields, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            WavepacketSpec(**{"width": 8.0, **fields})


class TestDiracRhs:
    def test_linear_in_state(self, rng):
        s1 = gaussian_state(WavepacketSpec(width=5.0), half_width=80)
        s2 = gaussian_state(WavepacketSpec(width=7.0, momentum=0.1), half_width=80)
        mix = walk.WalkerState(-80, 0.3 * s1.amps + 0.7j * s2.amps)
        lhs = dirac_rhs(mix, 0.2, -0.1)
        rhs = 0.3 * dirac_rhs(s1, 0.2, -0.1) + 0.7j * dirac_rhs(s2, 0.2, -0.1)
        assert np.allclose(lhs, rhs, atol=1e-14)

    def test_constant_field_transports_to_zero(self):
        # with zero mass the rhs is purely a derivative: zero in the interior
        n = 41
        amps = np.ones((2, n), dtype=complex) / math.sqrt(2 * n)
        s = walk.WalkerState(-20, amps)
        out = dirac_rhs(s, 0.4, -0.4)
        assert np.allclose(out[:, 1:-1], 0.0, atol=1e-15)

    def test_pure_shift_limit(self):
        # both angles zero: rhs = s3 * central difference
        s = gaussian_state(WavepacketSpec(width=5.0), half_width=70)
        out = dirac_rhs(s, 0.0, 0.0)
        psi = s.amps
        d = np.zeros_like(psi)
        d[:, 1:-1] = 0.5 * (psi[:, 2:] - psi[:, :-2])
        d[0, 0] = 0.5 * psi[0, 1]
        d[1, 0] = 0.5 * psi[1, 1]
        d[:, -1] = -0.5 * psi[:, -2]
        assert np.allclose(out[0], d[0], atol=1e-15)
        assert np.allclose(out[1], -d[1], atol=1e-15)


class TestResidual:
    def test_phase_invariance(self):
        wp = WavepacketSpec(width=10.0)
        base = continuum_residual(0.1, -0.1, wp)
        s = gaussian_state(wp)
        # multiplying the packet by a global phase cannot change the residual;
        # emulate by rotating the coin vector's overall phase
        rotated = WavepacketSpec(width=10.0, coin=tuple(np.exp(0.8j) * np.array(wp.coin)))
        assert continuum_residual(0.1, -0.1, rotated) == pytest.approx(base, rel=1e-12)

    def test_zero_angles_residual_decays(self):
        r20 = continuum_residual(0.0, 0.0, WavepacketSpec(width=20.0))
        r40 = continuum_residual(0.0, 0.0, WavepacketSpec(width=40.0))
        assert r40 < r20 < 1e-2

    def test_refinement_is_monotone(self):
        rs = [
            continuum_residual(0.1, -0.1, WavepacketSpec(width=w)) for w in (10.0, 20.0, 40.0)
        ]
        assert rs[0] > rs[1] > rs[2]
        assert rs[2] / rs[1] <= 0.6

    def test_doubling_width_in_smooth_regime(self):
        r10 = continuum_residual(0.2, -0.15, WavepacketSpec(width=10.0))
        r20 = continuum_residual(0.2, -0.15, WavepacketSpec(width=20.0))
        assert r20 < r10
