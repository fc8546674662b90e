"""Shared fixtures and independent dense oracles.

Everything here is built from first principles (explicit loops, eigenvalue
exponentials, hand-indexed shift matrices) so that library code paths are
checked against constructions that do not share their implementation.
"""

from __future__ import annotations

import os
import tracemalloc

import numpy as np
import pytest

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process running or unreaped (a reaped child is gone for good)."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    left = "a child process still running" if pid == 0 else f"child {pid} unreaped (status {status})"
    pytest.fail(f"the test left {left}")


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)


def traced_peak(fn, *args, **kwargs):
    """``(fn(*args, **kwargs), peak)``: the call's result and its highest traced memory in bytes."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def expm_unitary(hermitian: np.ndarray) -> np.ndarray:
    """exp(i * H) for Hermitian H via eigendecomposition."""
    w, v = np.linalg.eigh(hermitian)
    return (v * np.exp(1j * w)) @ v.conj().T


def idx(coin: int, x: int, half_width: int) -> int:
    """Basis index of |coin> ⊗ |x> with coin-major layout."""
    return coin * (2 * half_width + 1) + (x + half_width)


def dense_shift_minus(half_width: int) -> np.ndarray:
    """Left mover to x-1 (rows off the lattice dropped), right mover fixed."""
    n = 2 * (2 * half_width + 1)
    out = np.zeros((n, n), dtype=complex)
    for x in range(-half_width, half_width + 1):
        if x - 1 >= -half_width:
            out[idx(0, x - 1, half_width), idx(0, x, half_width)] = 1.0
        out[idx(1, x, half_width), idx(1, x, half_width)] = 1.0
    return out


def dense_shift_plus(half_width: int) -> np.ndarray:
    n = 2 * (2 * half_width + 1)
    out = np.zeros((n, n), dtype=complex)
    for x in range(-half_width, half_width + 1):
        out[idx(0, x, half_width), idx(0, x, half_width)] = 1.0
        if x + 1 <= half_width:
            out[idx(1, x + 1, half_width), idx(1, x, half_width)] = 1.0
    return out


def dense_shift_full(half_width: int) -> np.ndarray:
    n = 2 * (2 * half_width + 1)
    out = np.zeros((n, n), dtype=complex)
    for x in range(-half_width, half_width + 1):
        if x - 1 >= -half_width:
            out[idx(0, x - 1, half_width), idx(0, x, half_width)] = 1.0
        if x + 1 <= half_width:
            out[idx(1, x + 1, half_width), idx(1, x, half_width)] = 1.0
    return out


def dense_coin(mats, half_width: int) -> np.ndarray:
    """Sitewise coin action: mats is one 2x2 or a list indexed by x + half_width."""
    n_sites = 2 * half_width + 1
    dim = 2 * n_sites
    mats = np.asarray(mats, dtype=complex)
    out = np.zeros((dim, dim), dtype=complex)
    for k in range(n_sites):
        x = k - half_width
        m = mats if mats.ndim == 2 else mats[k]
        for i in range(2):
            for j in range(2):
                out[idx(i, x, half_width), idx(j, x, half_width)] = m[i, j]
    return out


def random_su2(rng: np.random.Generator) -> np.ndarray:
    """Haar-random SU(2) matrix [[a, b], [-conj(b), conj(a)]]."""
    v = rng.normal(size=4)
    v /= np.linalg.norm(v)
    a = v[0] + 1j * v[1]
    b = v[2] + 1j * v[3]
    return np.array([[a, b], [-np.conj(b), np.conj(a)]], dtype=complex)


def random_u2(rng: np.random.Generator) -> np.ndarray:
    return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)) * random_su2(rng)


def full_residual_match(a: np.ndarray, b: np.ndarray, tol: float) -> tuple[bool, float, float]:
    """``(match, fidelity, phase)`` of two operators from one overlap, two whole-operator norms and the
    whole phase-aligned residual ``a - e^{-i*phase} b``, formed as one dense array."""
    overlap = np.vdot(a, b)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    phase = float(np.angle(overlap))
    residual = np.linalg.norm(a - np.exp(-1j * phase) * b)
    return bool(residual / na <= tol), float(abs(overlap) / (na * nb)), phase


def state_vector(state) -> np.ndarray:
    """Flatten a WalkerState into the coin-major dense basis."""
    return np.asarray(state.amps).reshape(-1)
