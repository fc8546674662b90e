"""Decompose walk unitaries into optical element trains and certify them.

Two recipes are implemented.

Position-dependent coin: every U(2) coin written as
``exp(i*chi) exp(i*xi*s2) exp(i*eta*s3) exp(i*theta*s2)`` factors exactly
into two pointwise J-plate Jones matrices and a half-waveplate,

    J(chi+eta, chi-eta, xi) · J(0, pi, (theta+xi)/2) · s3 .

Split-step walk with coins C1, C2: writing the step as
``plus_shift · C3 · (C1† minus_shift C1)`` with ``C3 = C2 C1``, the
conjugated half-shift becomes a J-plate between two variable waveplates
(column parameters alpha, beta of C1†), and the Euler angles of C3 fold into
a half-waveplate plus a final J-plate whose constant phases split the
*leading* Euler z-angle.  The train is five elements and equals the step
operator up to a global phase, which is reported, never dropped.  Printed
sources disagree on whether the final plate constant carries the leading or
the middle Euler z-angle; the operator algebra selects the leading one, and
:func:`compile_ssqw` keeps the alternative reachable (``first_plate``) so
the failure of that variant stays demonstrable.

Verification folds the compiled train on the truncated lattice in one pass:
each element is lifted once, its unitarity defect is recorded, and it is
multiplied onto the running product and released.  The product is compared
with :func:`oamwalk.optics.equal_up_to_phase` against the walk's dense step
operator (:func:`oamwalk.walk.step_operator`), which is the same step
kernel that evolves the walk, applied to every basis state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import optics, walk
from .optics import HalfWavePlate, JPlate, VariableWavePlate

__all__ = [
    "EulerAngles",
    "ColumnParams",
    "PdcBlock",
    "CompiledStep",
    "FactorCheck",
    "VerificationReport",
    "VerificationError",
    "su2_normalize",
    "euler_decompose",
    "euler_recompose",
    "column_params",
    "pdc_plates",
    "compile_pdc",
    "compile_ssqw",
    "compile_generalized",
    "verify",
]

_TWO_PI = 2.0 * math.pi

SIGMA3 = np.diag([1.0, -1.0]).astype(np.complex128)

#: Convention note attached to every split-step compilation.
GAMMA_NOTE = (
    "final J-plate constants split the leading Euler z-angle: "
    "(gamma1+pi)/2 on H, -(gamma1+pi)/2 on V; substituting gamma2 breaks "
    "phase equivalence for generic coins"
)


class VerificationError(RuntimeError):
    """A compiled train failed its phase-equivalence check."""


@dataclass(frozen=True)
class EulerAngles:
    """z-y-z exponents: U = exp(i*g1*s3/2) exp(i*g2*s2/2) exp(i*g3*s3/2)."""

    gamma1: float
    gamma2: float
    gamma3: float


@dataclass(frozen=True)
class ColumnParams:
    """First column of C1† taken projectively as (cos a, e^{ib} sin a)."""

    alpha: float
    beta: float


def _check_unitary(u: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {u.shape}")
    if np.max(np.abs(u.conj().T @ u - np.eye(2))) > tol:
        raise ValueError("matrix is not unitary within 1e-10")
    return u


def su2_normalize(u: np.ndarray, tol: float = 1e-10) -> tuple[np.ndarray, float]:
    """Split a U(2) matrix into (SU(2) part, global phase chi), u = e^{i chi} su."""
    u = _check_unitary(u, tol)
    chi = 0.5 * float(np.angle(np.linalg.det(u)))
    return np.exp(-1j * chi) * u, chi


def euler_decompose(u: np.ndarray) -> EulerAngles:
    """Euler angles of an SU(2) matrix, with gamma2 in [0, pi].

    Degenerate rotations (gamma2 at 0 or pi) leave the z-angle split free;
    the convention here is gamma3 = 0.
    """
    u = _check_unitary(u)
    if abs(np.linalg.det(u) - 1.0) > 1e-10:
        raise ValueError("determinant must be 1 within 1e-10; use su2_normalize first")
    a, b = u[0, 0], u[0, 1]
    gamma2 = 2.0 * math.atan2(abs(b), abs(a))
    if abs(b) < 1e-12:
        return EulerAngles(2.0 * float(np.angle(a)), gamma2, 0.0)
    if abs(a) < 1e-12:
        return EulerAngles(2.0 * float(np.angle(b)), gamma2, 0.0)
    arg_a, arg_b = float(np.angle(a)), float(np.angle(b))
    return EulerAngles(arg_a + arg_b, gamma2, arg_a - arg_b)


def euler_recompose(angles: EulerAngles) -> np.ndarray:
    """Multiply the three exponential factors back together."""
    half1, half2, half3 = angles.gamma1 / 2, angles.gamma2 / 2, angles.gamma3 / 2
    z1 = np.diag([np.exp(1j * half1), np.exp(-1j * half1)])
    z3 = np.diag([np.exp(1j * half3), np.exp(-1j * half3)])
    c, s = math.cos(half2), math.sin(half2)
    y = np.array([[c, s], [-s, c]], dtype=np.complex128)
    return z1 @ y @ z3


def column_params(c1: np.ndarray) -> ColumnParams:
    """Alpha and beta of the first column of C1†, phase-fixed projectively."""
    c1 = _check_unitary(c1)
    u1 = np.conj(c1[0, :])  # first column of the conjugate transpose
    alpha = math.atan2(abs(u1[1]), abs(u1[0]))
    if abs(u1[0]) < 1e-12 or abs(u1[1]) < 1e-12:
        return ColumnParams(alpha, 0.0)
    beta = (float(np.angle(u1[1])) - float(np.angle(u1[0]))) % _TWO_PI
    return ColumnParams(alpha, beta)


def pdc_plates(p: walk.CoinParams) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
    """Pointwise J-plate parameters (delta_x, delta_y, angle) for one coin.

    Returns (q2, q1); the realized coin is J(q2) @ J(q1) @ s3.  Same formula
    as :func:`compile_pdc`, on a one-site table.
    """
    return compile_pdc(walk.CoinTable(0, [p.chi], [p.xi], [p.eta], [p.theta])).plates(0)


@dataclass(frozen=True)
class PdcBlock:
    """Per-site plate parameters realizing one position-dependent coin.

    ``q2`` and ``q1`` hold one (delta_x, delta_y, angle) row per site,
    ascending from ``lattice_min``; each site's coin is the pointwise product
    J(q2) @ J(q1) @ s3 (the half-waveplate sits at fast-axis angle 0).
    """

    lattice_min: int
    q2: np.ndarray
    q1: np.ndarray

    def __post_init__(self):
        q2 = np.array(self.q2, dtype=np.float64)
        q1 = np.array(self.q1, dtype=np.float64)
        if q2.shape != q1.shape or q2.ndim != 2 or q2.shape[1] != 3:
            raise ValueError("plate parameter arrays must both have shape (n_sites, 3)")
        q2.setflags(write=False)
        q1.setflags(write=False)
        object.__setattr__(self, "q2", q2)
        object.__setattr__(self, "q1", q1)

    @property
    def n_sites(self) -> int:
        return self.q2.shape[0]

    def plates(self, x: int) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
        i = x - self.lattice_min
        if not 0 <= i < self.n_sites:
            raise KeyError(f"site {x} outside block range")
        return tuple(self.q2[i]), tuple(self.q1[i])

    def site_matrix(self, x: int) -> np.ndarray:
        q2, q1 = self.plates(x)
        return optics.jplate_pointwise(*q2) @ optics.jplate_pointwise(*q1) @ SIGMA3

    def lift(self, half_width: int) -> np.ndarray:
        n = 2 * half_width + 1
        if self.lattice_min != -half_width or self.n_sites != n:
            raise ValueError("block lattice does not match the requested half-width")
        m = np.array([self.site_matrix(x) for x in range(-half_width, half_width + 1)])
        out = np.zeros((2 * n, 2 * n), dtype=np.complex128)
        for i in range(2):
            for j in range(2):
                out[i * n:(i + 1) * n, j * n:(j + 1) * n] = np.diag(m[:, i, j])
        return out


def compile_pdc(table: walk.CoinTable) -> PdcBlock:
    """Per-site plate parameters whose pointwise product equals each table coin."""
    n = table.n_sites
    q2 = np.empty((n, 3))
    q1 = np.empty((n, 3))
    q2[:, 0] = table.chi + table.eta
    q2[:, 1] = table.chi - table.eta
    q2[:, 2] = table.xi
    q1[:, 0] = 0.0
    q1[:, 1] = math.pi
    q1[:, 2] = 0.5 * (table.theta + table.xi)
    return PdcBlock(table.lattice_min, q2, q1)


@dataclass(frozen=True)
class CompiledStep:
    """Element train (application order) realizing one walk step.

    ``phase`` is the predicted global phase: the lifted train equals
    ``exp(i*phase)`` times the abstract step operator.
    """

    elements: tuple
    provenance: tuple[str, ...]
    phase: float
    notes: tuple[str, ...] = ()

    def lift(self, half_width: int) -> np.ndarray:
        return optics.compose(self.elements, half_width)


def _wrap_angle(angle: float) -> float:
    return math.remainder(angle, _TWO_PI)


def compile_ssqw(c1: np.ndarray, c2: np.ndarray, first_plate: str = "gamma1") -> CompiledStep:
    """Five-element train for one split-step with homogeneous U(2) coins.

    ``first_plate`` selects which Euler z-angle feeds the constant phases of
    the output-side J-plate; "gamma1" is the correct convention, "gamma2"
    reproduces a plausible-looking but inequivalent train for comparison.
    """
    if first_plate not in ("gamma1", "gamma2"):
        raise ValueError("first_plate must be 'gamma1' or 'gamma2'")
    c1s, chi1 = su2_normalize(c1)
    c2s, chi2 = su2_normalize(c2)
    col = column_params(c1s)
    eul = euler_decompose(c2s @ c1s)
    g = eul.gamma1 if first_plate == "gamma1" else eul.gamma2
    split = 0.5 * (g + math.pi)
    elements = (
        VariableWavePlate(-(math.pi - col.beta)),
        JPlate(-1, 0.0, 0, 0.0, col.alpha),
        VariableWavePlate(math.pi - col.beta + eul.gamma3),
        HalfWavePlate(0.25 * eul.gamma2),
        JPlate(0, split, +1, -split, 0.0),
    )
    provenance = (
        f"vwp: exp(-i*(pi-beta)*s3/2), beta={col.beta:.12g}",
        f"jplate: left OAM shift on axes rotated by alpha={col.alpha:.12g}",
        f"vwp: exp(i*(pi-beta+gamma3)*s3/2), gamma3={eul.gamma3:.12g}",
        f"hwp: fast axis at gamma2/4, gamma2={eul.gamma2:.12g}",
        f"jplate: right OAM shift, constant phases +/-({first_plate}+pi)/2={split:.12g}",
    )
    # The SU(2)-reduced train carries a fixed -i relative to the raw product,
    # so the lifted train is exp(i*(pi/2 - chi1 - chi2)) times the original
    # U(2) step operator.
    phase = _wrap_angle(0.5 * math.pi - chi1 - chi2)
    return CompiledStep(elements, provenance, phase, notes=(GAMMA_NOTE,))


def compile_generalized(spec: walk.WalkSpec) -> CompiledStep:
    """The train of one step of a generalized split-step walk.

    The train is [coin block 1, left half-shift plate, coin block 2, right
    half-shift plate]; the factors are exact, so the predicted phase is 0.
    Every step of the walk applies the same tables, so this one train,
    reused on each pass, realizes all ``spec.steps`` steps.
    """
    spec = spec.resolved()
    if spec.walk_kind != "generalized":
        raise ValueError(f"expected a generalized walk spec, got {spec.walk_kind!r}")
    elements = (
        compile_pdc(spec.table1),
        JPlate(-1, 0.0, 0, 0.0, 0.0),
        compile_pdc(spec.table2),
        JPlate(0, 0.0, +1, 0.0, 0.0),
    )
    provenance = (
        "pdc block: per-site [hwp(0), J(0,pi,(theta+xi)/2), J(chi+eta,chi-eta,xi)]",
        "jplate: left half-shift, profile -phi on H",
        "pdc block: per-site [hwp(0), J(0,pi,(theta+xi)/2), J(chi+eta,chi-eta,xi)]",
        "jplate: right half-shift, profile +phi on V",
    )
    return CompiledStep(elements, provenance, 0.0)


@dataclass(frozen=True)
class FactorCheck:
    description: str
    unitarity_defect: float


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    fidelity: float
    phase: float
    tol: float
    factors: tuple[FactorCheck, ...]
    notes: tuple[str, ...] = ()


def _factor_margin(element) -> int:
    if isinstance(element, JPlate):
        return max(abs(element.m_x), abs(element.m_y))
    return 0


def verify(cs: CompiledStep, reference: np.ndarray, tol: float = 1e-10) -> VerificationReport:
    """Fold a compiled train, checking each factor, and compare it with a reference step operator.

    Each element is lifted once; at most one lift is alive next to the
    running product, the same fold as :func:`oamwalk.optics.compose`.
    """
    reference = np.asarray(reference)
    dim = reference.shape[0]
    if reference.ndim != 2 or reference.shape[1] != dim or dim % 2 or (dim // 2) % 2 == 0:
        raise ValueError(f"reference must be square of dimension 2*(2L+1), got {reference.shape}")
    half_width = (dim // 2 - 1) // 2
    compiled, factors = None, []
    for el, desc in zip(cs.elements, cs.provenance, strict=True):
        lifted = el.lift(half_width)
        factors.append(FactorCheck(desc, optics.unitarity_defect(lifted, margin=_factor_margin(el))))
        compiled = lifted if compiled is None else lifted @ compiled
        del lifted
    if compiled is None:
        compiled = np.eye(dim, dtype=np.complex128)
    match = optics.equal_up_to_phase(compiled, reference, tol=tol)
    return VerificationReport(match.match, match.fidelity, match.phase, tol, tuple(factors), cs.notes)
