"""Jones calculus for idealized polarization-OAM elements and their lattice lifts.

The polarization pair (H, V) plays the role of the walker's coin and the
integer orbital-angular-momentum index plays the role of the lattice site.
Three element kinds are modeled:

``JPlate``
    imprints independent phase profiles ``m*phi + c`` (phi the azimuthal
    coordinate, m an integer) on two orthogonal linear polarizations rotated
    by an angle; the ``m*phi`` part converts OAM mode ``|l>`` to ``|l+m>``.
``HalfWavePlate``
    fast axis at a given angle; an involution mixing H and V.
``VariableWavePlate``
    tunable retardance ``z`` between H and V, ``diag(e^{iz/2}, e^{-iz/2})``.

Each element gives its action as bands, ``(m, coefficient)`` pairs taking
``|b> ⊗ |l>`` to ``coefficient[a, b] |a> ⊗ |l+m>`` with one (2, 2) Jones matrix
or an (n_sites, 2, 2) field of them, indexed by the sites -L..L.  A lift places
its bands in a dense matrix on ``|polarization> ⊗ |l>``.  :func:`compose` folds
a train from its first lift, applying each further element by its bands unless
an entry of the product adds two nonzero terms; such an element is lifted and
multiplied into only the rows each block of columns can reach, with the dense
product's bits.  :func:`unitarity_defect` reads an element's column norms from
its bands.
Every element's ``lift(half_width, out=None)`` takes an optional ``out``: a
C-contiguous complex128 array of the operator's shape, overwritten with it and
returned in place of a new array (``ValueError`` for any other buffer).
OAM-shift rows that leave the lattice are dropped, so lifted operators are
unitary on states that keep clear of the boundary (as validated walks and
guarded steps do) but not on the edge columns themselves.
:func:`equal_up_to_phase` therefore normalizes its overlap by Frobenius
norms, which coincides with the unitary normalization 1/dim away from edge
effects and keeps "fidelity 1 iff equal up to a global phase" exact.
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "TOL",
    "jones_rotation",
    "jplate_pointwise",
    "halfwave_pointwise",
    "varwave_pointwise",
    "JPlate",
    "HalfWavePlate",
    "VariableWavePlate",
    "lift",
    "compose",
    "PhaseMatch",
    "equal_up_to_phase",
    "unitarity_defect",
]

#: Tolerance of every unitarity and phase-equivalence check, here and in the compiler.
TOL = 1e-10


def jones_rotation(angle) -> np.ndarray:
    """Axis rotation exp(-i*angle*s2) = [[cos a, -sin a], [sin a, cos a]]; broadcasts to (..., 2, 2)."""
    c, s = np.cos(angle), np.sin(angle)
    return np.stack([c, -s, s, c], axis=-1).reshape(np.shape(angle) + (2, 2)).astype(np.complex128)


def jplate_pointwise(delta_x, delta_y, angle) -> np.ndarray:
    """Jones matrix R(-angle) diag(e^{i dx}, e^{i dy}) R(angle) of a J-plate point; broadcasts to (..., 2, 2)."""
    d = np.zeros(np.broadcast_shapes(np.shape(delta_x), np.shape(delta_y)) + (2, 2), dtype=np.complex128)
    d[..., 0, 0], d[..., 1, 1] = np.exp(1j * delta_x), np.exp(1j * delta_y)
    return jones_rotation(-angle) @ d @ jones_rotation(angle)


def halfwave_pointwise(angle: float) -> np.ndarray:
    """Half-waveplate with fast axis at ``angle``: [[cos 2a, sin 2a], [sin 2a, -cos 2a]]."""
    c, s = math.cos(2 * angle), math.sin(2 * angle)
    return np.array([[c, s], [s, -c]], dtype=np.complex128)


def varwave_pointwise(retardance: float) -> np.ndarray:
    """Variable waveplate diag(e^{i z/2}, e^{-i z/2}) = exp(i*z*s3/2)."""
    return np.diag([np.exp(0.5j * retardance), np.exp(-0.5j * retardance)])


def _dense_out(out, shape: tuple, *operands) -> np.ndarray:
    """``out`` checked as a buffer numpy can write a ``shape`` complex128 result into.

    It must be C-contiguous, so that a reshape of it is a view, not a silent
    copy that would take the result, and must not overlap ``operands``.
    """
    if not (isinstance(out, np.ndarray) and out.shape == shape and out.dtype == np.complex128
            and out.flags.c_contiguous and out.flags.writeable):
        raise ValueError(f"out must be a writeable C-contiguous complex128 array of shape {shape}")
    if any(np.may_share_memory(out, op) for op in operands):
        raise ValueError("out must not overlap the operands")
    return out


#: Columns per block of a lifted element's product in :func:`_fold_step`.
_BLOCK = 16
#: Operator widths up to which that product stays one zgemm: from 130 to 254 a threaded OpenBLAS
#: splits K into other blocks for the whole product than for a narrow one, whose bits then differ.
_DENSE_UP_TO = 256

#: Raised when a per-site field does not cover the lattice it is placed on.
_LATTICE_MISMATCH = "block lattice does not match the requested half-width"


def _by_offset(bands, n: int) -> dict:
    """``{m: coefficient}`` of ``bands`` on ``n`` sites, offsets ascending, equal offsets summed in band order."""
    merged = {}
    for m, coef in bands:
        if np.ndim(coef) == 3 and len(coef) != n:
            raise ValueError(_LATTICE_MISMATCH)
        merged[m] = merged[m] + coef if m in merged else coef
    return dict(sorted(merged.items()))


def _sources(m: int, n: int) -> slice:
    """The sites whose shift by ``m`` stays on an ``n``-site lattice (empty when none does)."""
    return slice(min(n, max(0, -m)), max(0, min(n, n - m)))


def _place_bands(bands, half_width: int, out: np.ndarray | None = None) -> np.ndarray:
    """Dense matrix of ``(m, coefficient)`` bands, fields indexed by source site; off-lattice rows dropped.

    Each offset's summed coefficient is added into zeros, so an entry one band alone reaches holds its
    coefficient exactly.  ``out``, a C-contiguous complex128 ``(2n, 2n)`` array, is zeroed and receives
    the matrix in place of a new one; it is returned.
    """
    n = 2 * half_width + 1
    fields = _by_offset(bands, n)
    if out is None:
        out = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    else:
        _dense_out(out, (2 * n, 2 * n)).fill(0)
    dense = out.reshape(2, n, 2, n)
    for m, coef in fields.items():
        src = np.arange(n)[_sources(m, n)]
        dense[:, src + m, :, src] += coef[src] if np.ndim(coef) == 3 else coef
    return out


def _fold_step(element, half_width: int, op, reach, out: np.ndarray, scratch: np.ndarray) -> set:
    """Write ``lift(element) @ op`` into ``out``, or the lift alone when ``reach`` is None; return its reach.

    A reach is the set of ``(a, b, m)`` for which |b> ⊗ |l> can reach |a> ⊗ |l+m>; ``reach`` is
    ``op``'s.  When no entry of the product has two nonzero terms, each offset's coefficients multiply
    ``op``'s rows by one ``np.matmul`` of ``(n, 2, 2)`` with ``(n, 2, dim)``, shifted by the offset, and
    the element is not lifted: OpenBLAS gives an entry of one nonzero term the same bits in any zgemm
    of the same width, so these are the dense product's.  The first offset's product is written in
    place and the others are added to it, so an exact zero may differ from the dense one in sign.

    An element meeting a term it must add to another is lifted into ``scratch`` and multiplied by
    ``op`` in blocks of :data:`_BLOCK` columns, counted from column 0 as the dense zgemm tiles them.
    For each block and target polarization one zgemm multiplies the lift's rows of the sites the
    product's reach lets the block's sources reach, over the whole of K, by the block's columns of
    ``op``; every other entry of the product is an exact zero.  The block holding both polarizations
    takes the rows of its two ends, each at least two rows, since numpy hands a one-row product to
    zgemv.  With K whole and the dense product's column tiles, OpenBLAS sums each entry as the dense
    zgemm does, for any M, above :data:`_DENSE_UP_TO`; up to that width the product stays one zgemm.
    The three buffers are distinct ``(dim, dim)`` arrays.
    """
    n = 2 * half_width + 1
    fields = _by_offset(element.bands(), n)
    own = {(a, b, m) for m, coef in fields.items() for a in range(2) for b in range(2)
           if np.any(coef[..., a, b] != 0)}
    if reach is None:
        element.lift(half_width, out=out)
        return own
    terms = Counter((a, c, m + k) for a, b, m in own for b_run, c, k in reach if b == b_run)
    if max(terms.values(), default=0) > 1:
        lifted = element.lift(half_width, out=scratch)
        if 2 * n <= _DENSE_UP_TO:
            np.matmul(lifted, op, out=out)
            return set(terms)
        kmin, kmax = min(0, *(k for _, _, k in terms)), max(0, *(k for _, _, k in terms))
        out.fill(0)
        for c0 in range(0, 2 * n, _BLOCK):
            c1 = min(c0 + _BLOCK, 2 * n)
            if c0 // n == (c1 - 1) // n:
                spans = [(c0 % n + kmin, (c1 - 1) % n + 1 + kmax)]
            else:  # sites c0.. of one polarization and ..c1-n of the other
                spans = [(min(c0 + kmin, n - 2), n), (0, max(c1 - n + kmax, 2))]
            for lo, hi in spans:
                lo, hi = max(0, lo), min(n, hi)
                for a in range(2):
                    np.matmul(lifted[a * n + lo:a * n + hi], op[:, c0:c1], out=out[a * n + lo:a * n + hi, c0:c1])
        return set(terms)
    dim = op.shape[1]
    rows, into, product = (x.reshape(2, n, dim).transpose(1, 0, 2) for x in (op, out, scratch))
    for i, (m, coef) in enumerate(fields.items()):
        src = _sources(m, n)
        dst = slice(src.start + m, src.stop + m)
        field = coef[src] if np.ndim(coef) == 3 else coef
        if i == 0:
            np.matmul(field, rows[src], out=into[dst])
            into[:dst.start], into[dst.stop:] = 0, 0
        else:
            np.matmul(field, rows[src], out=product[dst])
            np.add(into[dst], product[dst], out=into[dst])
    return set(terms)


def _as_multiplier(value) -> int:
    if isinstance(value, numbers.Integral) or (isinstance(value, float) and value.is_integer()):
        return int(value)
    raise ValueError(f"OAM multiplier must be an integer, got {value!r}")


@dataclass(frozen=True)
class JPlate:
    """Phase profiles m_x*phi + c_x and m_y*phi + c_y on axes rotated by ``angle``."""

    m_x: int
    c_x: float = 0.0
    m_y: int = 0
    c_y: float = 0.0
    angle: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "m_x", _as_multiplier(self.m_x))
        object.__setattr__(self, "m_y", _as_multiplier(self.m_y))

    def bands(self) -> list:
        """Bands m_x, m_y: R(-angle)[a, c] e^{i c_c} R(angle)[c, b], multiplied in that order."""
        rot, rot_back = jones_rotation(self.angle), jones_rotation(-self.angle)
        phases = np.exp(1j * np.array([self.c_x, self.c_y]))
        return [(m, np.array([[rot_back[a, c] * phases[c] * rot[c, b] for b in range(2)] for a in range(2)]))
                for c, m in enumerate((self.m_x, self.m_y))]

    def lift(self, half_width: int, out: np.ndarray | None = None) -> np.ndarray:
        return _place_bands(self.bands(), half_width, out=out)


@dataclass(frozen=True)
class HalfWavePlate:
    angle: float = 0.0

    def jones(self) -> np.ndarray:
        return halfwave_pointwise(self.angle)

    def bands(self) -> list:
        return [(0, self.jones())]

    def lift(self, half_width: int, out: np.ndarray | None = None) -> np.ndarray:
        return _place_bands(self.bands(), half_width, out=out)


@dataclass(frozen=True)
class VariableWavePlate:
    retardance: float

    def jones(self) -> np.ndarray:
        return varwave_pointwise(self.retardance)

    def bands(self) -> list:
        return [(0, self.jones())]

    def lift(self, half_width: int, out: np.ndarray | None = None) -> np.ndarray:
        return _place_bands(self.bands(), half_width, out=out)


def lift(element, half_width: int) -> np.ndarray:
    """Dense operator of one element on the coin ⊗ lattice basis."""
    return element.lift(half_width)


def compose(elements: Sequence, half_width: int) -> np.ndarray:
    """Operator of an element train given in application order (first applied first).

    The fold starts from the first lift and takes each further element by the
    step :func:`oamwalk.compiler.verify` takes, in three reused dense buffers;
    an empty train is the identity.
    """
    dim = 2 * (2 * half_width + 1)
    op, out, scratch = (np.empty((dim, dim), dtype=np.complex128) for _ in range(3))
    reach = None
    for element in elements:
        reach = _fold_step(element, half_width, op, reach, out, scratch)
        op, out = out, op
    return np.eye(dim, dtype=np.complex128) if reach is None else op


class PhaseMatch(NamedTuple):
    match: bool
    fidelity: float
    phase: float


def equal_up_to_phase(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> PhaseMatch:
    """Compare operators up to a global phase.

    Returns the normalized overlap |tr(a†b)| / (‖a‖_F ‖b‖_F), the phase
    arg tr(a†b) (so ``a ≈ e^{-i*phase} b`` at the optimum), and whether the
    phase-minimized Frobenius residual ‖a - e^{iϕ}b‖_F / ‖a‖_F is within
    :data:`TOL`.  The overlap equals 1 exactly when a and b agree up to a unit
    scalar, and reduces to |tr(a†b)|/dim for unitary inputs.

    The residual's operand is formed in ``out`` when given: a C-contiguous
    complex128 array of the operators' shape that overlaps neither, which is
    overwritten (``ValueError`` for any other buffer).  Without it, one
    temporary of that shape is allocated.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"operators must be square and same shape, got {a.shape} vs {b.shape}")
    overlap = np.vdot(a, b)  # tr(a† b)
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    fidelity = float(abs(overlap) / (na * nb))
    phase = float(np.angle(overlap))
    # The optimal alignment phase is -arg tr(a†b); forming the difference
    # explicitly avoids the cancellation that the norm-expansion formula
    # na^2 + nb^2 - 2|overlap| suffers near equality.
    diff = np.empty(a.shape, dtype=np.complex128) if out is None else _dense_out(out, a.shape, a, b)
    np.multiply(np.exp(-1j * phase), b, out=diff)
    residual = np.linalg.norm(np.subtract(a, diff, out=diff))
    return PhaseMatch(bool(residual / na <= TOL), fidelity, phase)


def unitarity_defect(bands, half_width: int) -> float:
    """Largest deviation of a lifted column norm from 1, ignoring the edge sites the bands' shifts empty.

    The norms are taken from the bands, without a lift.  Column (b, l) of the lift holds each
    offset's summed coefficient [a, b] in row (a, l+m); its squared moduli are added in the row
    order of ``np.linalg.norm(lift, axis=0)``, a first and offsets ascending, so every bit is that
    norm's.  Lifted shift-carrying elements lose norm only in the edge columns their OAM shift
    empties; interior columns of a well-formed element are exactly isometric.  Bands whose widest
    offset m leaves no interior column (2|m| >= 2L+1) raise ``ValueError``.
    """
    n = 2 * half_width + 1
    fields = _by_offset(bands, n)
    widest = max(fields, key=abs, default=0)
    margin = abs(widest)
    if 2 * margin >= n:
        raise ValueError(f"offset {widest} leaves no interior column at half-width {half_width}")
    sums = np.zeros((2, n))  # [b, l]
    for a in range(2):
        for m, coef in fields.items():
            src = _sources(m, n)
            entry = coef[src, a] if np.ndim(coef) == 3 else coef[a][np.newaxis]  # [l, b]
            sums[:, src] += np.multiply(np.conjugate(entry), entry).real.T
    norms = np.sqrt(sums)[:, margin:n - margin]
    return float(np.max(np.abs(norms - 1.0)))
