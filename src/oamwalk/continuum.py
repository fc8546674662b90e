"""Continuum consistency check for the split-step walk.

On smooth, slowly-varying states the one-step change of the split-step walk
is approximated to first order in the wavenumber by

    d/dt psi = cos(t2) * M1 * d/dx psi + M2 * psi,

with the transport matrix ``M1 = [[cos t1, -i sin t1], [i sin t1, -cos t1]]``
and the mass matrix ``M2 = [[cos(t1+t2)-1, -i sin(t1+t2)], [-i sin(t1+t2),
cos(t1+t2)-1]]``; for ``t1 + t2 = 0`` the mass term vanishes identically and
the dynamics is purely Dirac-like transport.

This module evaluates the right-hand side on a lattice state (central
differences, one step as the unit of time) and measures the relative residual
against the exact one-step change on Gaussian packets.  The residual is a
refinement diagnostic: it shrinks as the packet widens, and that monotone
trend is what the tests pin down, never an absolute error bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import walk
from .optics import _as_integer, _as_real

__all__ = [
    "WavepacketSpec",
    "gaussian_state",
    "transport_matrix",
    "mass_matrix",
    "dirac_rhs",
    "continuum_residual",
]


@dataclass(frozen=True)
class WavepacketSpec:
    """Gaussian test packet: envelope std dev ``width`` (sites), carrier
    momentum in radians per site, and a fixed coin vector, checked when built."""

    width: float
    center: int = 0
    momentum: float = 0.0
    coin: tuple[complex, complex] = walk.SYMMETRIC_COIN

    def __post_init__(self):
        object.__setattr__(self, "center", _as_integer("center", self.center))
        _as_real("momentum", self.momentum)
        walk._unit_coin("coin", self.coin)
        if _as_real("width", self.width) < 4:
            raise ValueError("packet width must be at least 4 sites for a meaningful check")

    def suggested_half_width(self) -> int:
        # envelope exp(-x^2 / (4 w^2)) reaches the 1e-12 guard near 10.5 w
        return abs(self.center) + math.ceil(11.0 * self.width) + 4


def gaussian_state(wp: WavepacketSpec, half_width: int | None = None) -> walk.WalkerState:
    """Normalized Gaussian packet; |psi|^2 has standard deviation ``width``."""
    L = wp.suggested_half_width() if half_width is None else half_width
    x = np.arange(-L, L + 1)
    envelope = np.exp(-((x - wp.center) ** 2) / (4.0 * wp.width**2) + 1j * wp.momentum * x)
    a, b = complex(wp.coin[0]), complex(wp.coin[1])
    amps = np.vstack([a * envelope, b * envelope])
    amps /= np.linalg.norm(amps)
    state = walk.WalkerState(-L, amps)
    if max(abs(amps[0, 0]), abs(amps[1, 0]), abs(amps[0, -1]), abs(amps[1, -1])) > walk.GUARD:
        raise walk.LatticeGuardError(
            f"half_width {L} leaves packet tails above the boundary guard; "
            f"need at least {wp.suggested_half_width()}",
            required_half_width=wp.suggested_half_width(),
        )
    return state


def transport_matrix(theta1: float) -> np.ndarray:
    c, s = math.cos(theta1), math.sin(theta1)
    return np.array([[c, -1j * s], [1j * s, -c]], dtype=np.complex128)


def mass_matrix(theta1: float, theta2: float) -> np.ndarray:
    c, s = math.cos(theta1 + theta2), math.sin(theta1 + theta2)
    return np.array([[c - 1.0, -1j * s], [-1j * s, c - 1.0]], dtype=np.complex128)


def dirac_rhs(state: walk.WalkerState, theta1: float, theta2: float) -> np.ndarray:
    """cos(t2) * M1 * d_x psi + M2 * psi, central differences, zero beyond edges.

    Returns a (2, n_sites) field aligned with the state's sites.  Sites
    outside the lattice contribute zero to the stencil, consistent with the
    truncation; the guard keeps that exact in practice.
    """
    psi = state.amps
    dpsi = np.zeros_like(psi)
    dpsi[:, 1:-1] = 0.5 * (psi[:, 2:] - psi[:, :-2])
    dpsi[:, 0] = 0.5 * psi[:, 1]
    dpsi[:, -1] = -0.5 * psi[:, -2]
    return math.cos(theta2) * (transport_matrix(theta1) @ dpsi) + mass_matrix(theta1, theta2) @ psi


def continuum_residual(
    theta1: float,
    theta2: float,
    wp: WavepacketSpec,
    half_width: int | None = None,
) -> float:
    """Relative L2 mismatch between one walk step and the continuum model.

    ``|| (W_ss psi - psi) - rhs(psi) ||_2 / || psi ||_2`` for the Gaussian
    packet; one full split-step counts as unit time.
    """
    s0 = gaussian_state(wp, half_width)
    spec = walk.WalkSpec("ssqw", 1, (s0.n_sites - 1) // 2, theta1=theta1, theta2=theta2)
    s1 = walk.step(s0, spec)
    lhs = s1.amps - s0.amps
    rhs = dirac_rhs(s0, theta1, theta2)
    return float(np.linalg.norm(lhs - rhs) / np.linalg.norm(s0.amps))
