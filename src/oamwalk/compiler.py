"""Decompose walk unitaries into optical element trains and certify them.

Three recipes are implemented.

Position-dependent coin (PDC): every U(2) coin written as
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
the middle Euler z-angle; the operator algebra selects the leading one.

Any walk kind: each move of its step (:data:`oamwalk.walk.STEP_MOVES`)
becomes a PDC block and a J-plate, and an electric site phase one more PDC.
A :class:`PdcBlock`, like the :mod:`oamwalk.optics` elements, checks its own
fields when built.

Verification records each element's unitarity defect from its bands, and
:func:`oamwalk.optics.equal_up_to_phase` compares the train's operator
(:func:`oamwalk.optics.compose`, a band fold placed once) with the one
reference form :func:`verify` takes, a dense step operator, such as the walk's
(:func:`oamwalk.walk.step_operator`: comb probes of the step kernel that
evolves the walk); two dense operators in all.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import optics, walk
from .optics import TOL, HalfWavePlate, JPlate, VariableWavePlate, halfwave_pointwise

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


def _check_unitary(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {u.shape}")
    # a non-finite entry is checked first: its product would be NaN with a warning
    if not (np.isfinite(u).all() and np.max(np.abs(u.conj().T @ u - np.eye(2))) <= TOL):
        raise ValueError(f"matrix is not unitary within {TOL:g}")
    return u


def su2_normalize(u: np.ndarray) -> tuple[np.ndarray, float]:
    """Split a U(2) matrix into (SU(2) part, global phase chi), u = e^{i chi} su."""
    u = _check_unitary(u)
    chi = 0.5 * float(np.angle(np.linalg.det(u)))
    return np.exp(-1j * chi) * u, chi


def euler_decompose(u: np.ndarray) -> EulerAngles:
    """Euler angles of an SU(2) matrix, with gamma2 in [0, pi].

    Degenerate rotations (gamma2 at 0 or pi) leave the z-angle split free;
    the convention here is gamma3 = 0.
    """
    u = _check_unitary(u)
    if not abs(np.linalg.det(u) - 1.0) <= TOL:
        raise ValueError(f"determinant must be 1 within {TOL:g}; use su2_normalize first")
    a, b = u[0, 0], u[0, 1]
    gamma2 = 2.0 * math.atan2(abs(b), abs(a))
    if abs(b) < 1e-12:
        return EulerAngles(2.0 * float(np.angle(a)), gamma2, 0.0)
    if abs(a) < 1e-12:
        return EulerAngles(2.0 * float(np.angle(b)), gamma2, 0.0)
    arg_a, arg_b = float(np.angle(a)), float(np.angle(b))
    return EulerAngles(arg_a + arg_b, gamma2, arg_a - arg_b)


def euler_recompose(angles: EulerAngles) -> np.ndarray:
    """Multiply the three exponential factors back together; the z factors are variable waveplates."""
    c, s = math.cos(angles.gamma2 / 2), math.sin(angles.gamma2 / 2)
    y = np.array([[c, s], [-s, c]], dtype=np.complex128)
    return optics.varwave_pointwise(angles.gamma1) @ y @ optics.varwave_pointwise(angles.gamma3)


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
    J(q2) @ J(q1) @ s3 (the half-waveplate sits at fast-axis angle 0).  Each
    plate entry must be a finite real number and ``lattice_min`` an integer.
    """

    lattice_min: int
    q2: np.ndarray
    q1: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lattice_min", optics._as_integer("lattice_min", self.lattice_min))
        for name in ("q2", "q1"):
            object.__setattr__(self, name, optics._as_reals(f"{name} entry", getattr(self, name)))
        if self.q2.shape != self.q1.shape or self.q2.ndim != 2 or self.q2.shape[1] != 3:
            raise ValueError("plate parameter arrays must both have shape (n_sites, 3)")

    @property
    def n_sites(self) -> int:
        return self.q2.shape[0]

    def plates(self, x: int) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
        i = x - self.lattice_min
        if not 0 <= i < self.n_sites:
            raise KeyError(f"site {x} outside block range")
        return tuple(self.q2[i]), tuple(self.q1[i])

    @functools.cached_property
    def _field(self) -> np.ndarray:  # (n_sites, 2, 2)
        field = optics.jplate_pointwise(*self.q2.T) @ optics.jplate_pointwise(*self.q1.T) @ halfwave_pointwise(0.0)
        field.setflags(write=False)
        return field

    def site_matrix(self, x: int) -> np.ndarray:
        self.plates(x)  # raises KeyError off the block
        return self._field[x - self.lattice_min].copy()

    def bands(self) -> list:
        """The per-site coins as one band on sites -L..L; a block not centred on site 0 fits no lattice."""
        if 2 * self.lattice_min + self.n_sites != 1:
            raise ValueError(optics._LATTICE_MISMATCH)
        return [(0, self._field)]

    lift = optics.lift


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


def _wrap_angle(angle: float) -> float:
    return math.remainder(angle, _TWO_PI)


def compile_ssqw(c1: np.ndarray, c2: np.ndarray) -> CompiledStep:
    """Five-element train for one split-step with homogeneous U(2) coins."""
    c1s, chi1 = su2_normalize(c1)
    c2s, chi2 = su2_normalize(c2)
    col = column_params(c1s)
    eul = euler_decompose(c2s @ c1s)
    split = 0.5 * (eul.gamma1 + math.pi)
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
        f"jplate: right OAM shift, constant phases +/-(gamma1+pi)/2={split:.12g}",
    )
    # The SU(2)-reduced train carries a fixed -i relative to the raw product,
    # so the lifted train is exp(i*(pi/2 - chi1 - chi2)) times the original
    # U(2) step operator.
    phase = _wrap_angle(0.5 * math.pi - chi1 - chi2)
    return CompiledStep(elements, provenance, phase, notes=(GAMMA_NOTE,))


#: The J-plate provenance of each (left, right) shift move of a walk step.
_SHIFT_PROVENANCE = {
    (True, False): "jplate: left half-shift, profile -phi on H",
    (False, True): "jplate: right half-shift, profile +phi on V",
    (True, True): "jplate: full shift, profile -phi on H and +phi on V",
}


def compile_generalized(spec: walk.WalkSpec) -> CompiledStep:
    """The train of one step of a walk of any kind, folded from its :data:`oamwalk.walk.STEP_MOVES`.

    Each move becomes a PDC block for its coin and a J-plate for its shift; a
    nonzero field adds a PDC block with chi = phi_e * x.  The factors are
    exact, so the predicted phase is 0.  Every step applies the same coins,
    so this one train, reused on each pass, realizes all ``spec.steps`` steps.
    """
    spec = spec.resolved()
    L = spec.half_width
    if spec.walk_kind == "generalized":
        tables = (spec.table1, spec.table2)
    else:  # coin_matrix(theta) = exp(-i*theta*s1) has the angles (0, -pi/4, -theta, pi/4)
        tables = [walk.CoinTable.homogeneous(walk.CoinParams(0.0, -math.pi / 4, -theta, math.pi / 4), L)
                  for theta in (spec.theta1, spec.theta2)]
    elements, provenance = [], []
    for slot, left, right in walk.STEP_MOVES[spec.walk_kind]:
        elements += [compile_pdc(tables[slot]), JPlate(-int(left), 0.0, int(right), 0.0, 0.0)]
        provenance += ["pdc block: per-site [hwp(0), J(0,pi,(theta+xi)/2), J(chi+eta,chi-eta,xi)]",
                       _SHIFT_PROVENANCE[left, right]]
    angles = walk._site_angles(spec.phi_e, -L, 2 * L + 1)
    if angles is not None:
        elements.append(compile_pdc(walk.CoinTable(-L, angles, 0 * angles, 0 * angles, 0 * angles)))
        provenance.append("pdc block: site phase exp(i*phi_e*x), chi = remainder(phi_e, 2*pi)*x")
    return CompiledStep(tuple(elements), tuple(provenance), 0.0)


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


def verify(cs: CompiledStep, reference: np.ndarray) -> VerificationReport:
    """Compose a compiled train, checking each factor, and compare it with the dense reference step operator.

    Each factor's unitarity defect comes from its bands.  The train's operator is
    :func:`oamwalk.optics.compose` of ``cs.elements``, so it and ``reference`` are the only dense operators.
    """
    reference = np.asarray(reference)
    if reference.ndim != 2 or reference.shape[0] != reference.shape[1] or reference.shape[0] % 4 != 2:
        raise ValueError(f"reference must be square of dimension 2*(2L+1), got {reference.shape}")
    half_width = (reference.shape[0] // 2 - 1) // 2
    factors = tuple(FactorCheck(desc, optics.unitarity_defect(el.bands(), half_width))
                    for el, desc in zip(cs.elements, cs.provenance, strict=True))
    compiled = optics.compose(cs.elements, half_width)
    return VerificationReport(*optics.equal_up_to_phase(compiled, reference), TOL, factors)
