"""Long-time spreading of translation-invariant walks from their Fourier symbol.

A homogeneous walk is diagonal in momentum (Kitagawa, Rudner, Berg & Demler,
PRA 82, 033429, 2010).  With psi(k) = sum_x exp(-i*k*x) psi(x), moving the
left mover (coin row 0) one site left multiplies it by exp(i*k) and moving the
right mover (row 1) one site right multiplies it by exp(-i*k), so one step is
a 2x2 symbol U(k) with eigenvalues exp(-i*omega(k)).  A walk started as a
delta with coin state c then has, as the step count T grows,

    mean / T      -> vbar = sum over bands of  int |<u(k)|c>|^2 omega'(k) dk/2pi,
    variance / T^2 -> sum over bands of int |<u(k)|c>|^2 omega'(k)^2 dk/2pi - vbar^2,

with the group velocities omega'(k) taken by Hellmann-Feynman,
omega' = Re(i * conj(lambda) * <u|dU/dk|u>), and the integrals as midpoint
sums on a uniform k grid.

The electric walk multiplies site x by exp(i*phi*x) after each plain step,
which maps psi(k) to psi(k - phi), so its state after one step is
U(k - phi) psi(k - phi).  For a rational field phi = 2*pi*p/q (Cedzich et
al., PRL 111, 160601, 2013) q steps are translation-invariant, with symbol
V(k) = U(k - phi) U(k - 2*phi) ... U(k - q*phi); the same limits of V, taken
per q steps, divide by q and q^2 into per-step values.

Everything is built here from the documented coin convention,
exp(-i*theta*s1) = [[cos t, -i sin t], [-i sin t, cos t]], and the step orders
of the plain walk (coin, full shift) and the split-step walk (coin theta1,
left mover's half-shift, coin theta2, right mover's half-shift).  Nothing is
imported from ``oamwalk``, so a kernel fault cannot cancel out of a comparison.
"""

from __future__ import annotations

import numpy as np


def rotation(theta: float) -> np.ndarray:
    """The coin exp(-i*theta*s1)."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -1j * s], [-1j * s, c]])


def symbol(kind: str, theta1: float, theta2: float, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The step's symbol U(k) and its derivative dU/dk, each of shape (len(k), 2, 2)."""
    left, right = np.exp(1j * k), np.exp(-1j * k)
    zero, one = np.zeros_like(left), np.ones_like(left)

    def diag(a, b):
        return np.stack([np.stack([a, zero], -1), np.stack([zero, b], -1)], -2)

    if kind == "dtqw":
        coin = rotation(theta1)
        return diag(left, right) @ coin, diag(1j * left, -1j * right) @ coin
    if kind == "ssqw":
        c1, c2 = rotation(theta1), rotation(theta2)
        minus, plus = diag(left, one), diag(one, right)
        d_minus, d_plus = diag(1j * left, zero), diag(zero, -1j * right)
        return plus @ c2 @ minus @ c1, d_plus @ c2 @ minus @ c1 + plus @ c2 @ d_minus @ c1
    raise ValueError(f"no symbol for walk kind {kind!r}")


def electric_symbol(theta: float, phi: float, steps: int, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """U(k - phi) U(k - 2*phi) ... U(k - steps*phi), the electric walk's steps, and its k-derivative."""
    v, dv = np.broadcast_to(np.eye(2, dtype=complex), (len(k), 2, 2)), np.zeros((len(k), 2, 2), dtype=complex)
    for j in range(1, steps + 1):
        u, du = symbol("dtqw", theta, 0.0, k - j * phi)
        v, dv = v @ u, dv @ u + v @ du
    return v, dv


def _grid(points: int) -> np.ndarray:
    return -np.pi + (np.arange(points) + 0.5) * (2 * np.pi / points)


def spreading_limits(kind: str, theta1: float, theta2: float, coin_state, points: int = 8192) -> tuple[float, float]:
    """(vbar, sigma2bar): the limits of mean/T and variance/T^2 for a delta start with ``coin_state``."""
    return _limits(*symbol(kind, theta1, theta2, _grid(points)), coin_state)


def electric_spreading_limits(theta: float, p: int, q: int, coin_state, points: int = 8192) -> tuple[float, float]:
    """:func:`spreading_limits` of the electric walk at phi = 2*pi*p/q, from its q-step symbol, per step."""
    vbar, sigma2bar = _limits(*electric_symbol(theta, 2 * np.pi * p / q, q, _grid(points)), coin_state)
    return vbar / q, sigma2bar / q**2


def _limits(u: np.ndarray, du: np.ndarray, coin_state) -> tuple[float, float]:
    """(vbar, sigma2bar) per application of the symbol ``u`` (with derivative ``du``) on a uniform k grid."""
    eigenvalues, vectors = np.linalg.eig(u)  # vectors[k, :, band], unit norm
    slope = np.einsum("kab,kbn->kan", du, vectors)
    velocity = np.real(1j * eigenvalues.conj() * np.einsum("kan,kan->kn", vectors.conj(), slope))
    weight = np.abs(np.einsum("kan,a->kn", vectors.conj(), np.asarray(coin_state, dtype=complex))) ** 2
    vbar = float(np.mean(np.sum(weight * velocity, axis=-1)))
    second = float(np.mean(np.sum(weight * velocity**2, axis=-1)))
    return vbar, second - vbar**2
