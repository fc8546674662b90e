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

Each element refuses, when built, an angle, constant or retardance that is not
a finite real number and an OAM multiplier that is not an integer.

Each element gives its action as bands, ``(m, coefficient)`` pairs taking
``|b> ⊗ |l>`` to ``coefficient[a, b] |a> ⊗ |l+m>`` with one (2, 2) Jones matrix
or an (n_sites, 2, 2) field of them, indexed by the sites -L..L, and read here
as fields, a constant broadcast to every site.  :func:`lift`, every element's
``lift``, places bands in a dense matrix on ``|polarization> ⊗ |l>``.
:func:`compose` folds a train in bands alone from the identity's, per site with the
dense product's bits, and places the result once.  A per-site K=2 OpenBLAS
zgemm gives an entry those bits only in the same kind of column tile as the
dense zgemm, so the rows it multiplies are laid out in those tiles.  An element
whose entries add the terms of a site's two polarizations is applied above
operator width 256 as two K=2 products, each with the other coefficient column
zeroed, summed by ``np.add``; up to that width, or where terms of neighbouring
sites meet, it is lifted.  :func:`unitarity_defect` reads column norms from bands.
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
import sys
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


#: Operator widths up to which a step adding the terms of both polarizations is one dense zgemm: its
#: two-product split missed the dense bits at L <= 31 on 2 threads and L <= 63 on 1, where OpenBLAS
#: adds a term pair inside one K block, and kept them at every L tested from 64 to 512.
_DENSE_UP_TO = 256

#: Rows of the phase-aligned residual that :func:`equal_up_to_phase` forms at a time (128 KiB at L = 256).
_RESIDUAL_ROWS = 8

#: Raised when a per-site field does not cover the lattice it is placed on.
_LATTICE_MISMATCH = "block lattice does not match the requested half-width"


def _by_offset(bands, n: int) -> dict:
    """``{m: (n, 2, 2) field}`` of ``bands`` on ``n`` sites, a ``(2, 2)`` constant broadcast without a copy;
    offsets ascending, equal offsets summed in band order."""
    merged = {}
    for m, coef in bands:
        if np.ndim(coef) == 3 and len(coef) != n:
            raise ValueError(_LATTICE_MISMATCH)
        coef = np.broadcast_to(coef, (n, 2, 2))
        merged[m] = merged[m] + coef if m in merged else coef
    return dict(sorted(merged.items()))


def _sources(m: int, n: int) -> slice:
    """The sites whose shift by ``m`` stays on an ``n``-site lattice (empty when none does)."""
    return slice(min(n, max(0, -m)), max(0, min(n, n - m)))


def _place_bands(bands, half_width: int) -> np.ndarray:
    """Dense matrix of ``(m, coefficient)`` bands, fields indexed by source site; off-lattice rows dropped.

    Each offset's summed coefficient is added into zeros, so an entry one band alone reaches holds its
    coefficient exactly.
    """
    n = 2 * half_width + 1
    out = np.zeros((2, n, 2, n), dtype=np.complex128)
    for m, coef in _by_offset(bands, n).items():
        src = np.arange(n)[_sources(m, n)]
        out[:, src + m, :, src] += coef[src]
    return out.reshape(2 * n, 2 * n)


def _tail(n: int) -> list:
    """``(polarization, site)`` of the last two columns of a dense ``(2n, 2n)`` operator."""
    return [divmod(col, n) for col in (2 * n - 2, 2 * n - 1)]


def _rows(bands: dict, n: int) -> np.ndarray:
    """Rows of the operator with ``bands`` by target site, ``(n, 2, W)``, tiled as the dense zgemm tiles them.

    Columns ``2i`` and ``2i + 1`` hold band i's two source polarizations, zero-padded to a multiple of
    4 columns; the last two hold the dense matrix's last two columns, so W ≡ 2 (mod 4).
    """
    width = 4 * -(-len(bands) // 2) + 2
    rows = np.zeros((n, 2, width), dtype=np.complex128)
    for i, (k, field) in enumerate(bands.items()):
        src = _sources(k, n)
        rows[src.start + k:src.stop + k, :, 2 * i:2 * i + 2] = field[src]
        for t, (c, s) in enumerate(_tail(n)):
            if 0 <= s + k < n:
                rows[s + k, :, width - 2 + t] = field[s, :, c]
    return rows


def _fold_step(element, half_width: int, bands: dict) -> dict:
    """Bands of ``lift(element) @ P`` for P's ``bands``.

    Bands are ``{k: (n, 2, 2) field}`` by source site, ascending in k, with entry ``[a, c]`` at site l
    the operator's ``[(a, l+k), (c, l)]`` and off-lattice targets zeroed.  Terms meet where both bands
    hold a nonzero, so an exact zero takes no further part.  Every entry keeps the bits of the dense
    product ``lift(element) @ _place_bands(bands)``; only an exact zero may differ from it in sign.

    Each element offset m takes one ``np.matmul`` of its ``(n, 2, 2)`` coefficients with P's rows
    from :func:`_rows`, whose band columns sit in full 4-column tiles and whose last two columns
    are the dense matrix's 2-column tail: a per-site K=2 OpenBLAS zgemm gives an entry of one
    nonzero term the dense product's bits only in the same kind of tile.  So an entry in one of the
    dense tail columns is taken from the tail.  Where entries add two terms of one site's two
    polarizations (the split-step half-waveplate), the coefficients multiply the rows in two K=2
    products, each with the other coefficient column zeroed, and ``np.add`` sums them, as the dense
    zgemm sums across its K blocks above width :data:`_DENSE_UP_TO` (numpy's own loop for a
    one-column product would miss the tail's bits for complex coefficients).  Up to that width, or
    where terms of neighbouring sites meet, the bands are placed, the lifted element multiplies them
    in one zgemm, and the product's bands are read back.
    """
    n = 2 * half_width + 1
    fields = _by_offset(element.bands(), n)
    own, support = ({(a, b, m) for m, coef in f.items() for a in range(2) for b in range(2)
                     if np.any(coef[:, a, b] != 0)} for f in (fields, bands))
    meetings = {}  # (a, c, offset) -> the (m, k) of each of its terms
    for a, b, m in own:
        for b_run, c, k in support:
            if b == b_run:
                meetings.setdefault((a, c, m + k), []).append((m, k))
    pairs = {pair for meeting in meetings.values() for pair in meeting}
    product = {offset: np.zeros((n, 2, 2), dtype=np.complex128) for offset in sorted({m + k for m, k in pairs})}
    two_terms = max(map(len, meetings.values()), default=0) > 1
    if two_terms and (2 * n <= _DENSE_UP_TO or any(len(set(meeting)) > 1 for meeting in meetings.values())):
        dense = (element.lift(half_width) @ _place_bands(bands.items(), half_width)).reshape(2, n, 2, n)
        for k, field in product.items():
            src = np.arange(n)[_sources(k, n)]
            field[src] = dense[:, src + k, :, src]
        return product
    rows = _rows(bands, n)
    for m, coef in fields.items():
        src = _sources(m, n)
        field = coef[src]
        if two_terms:
            rows_m = np.add(*(np.where(column, field, 0) @ rows[src] for column in ([True, False], [False, True])))
        else:
            rows_m = field @ rows[src]
        for i, k in enumerate(bands):
            if (m, k) not in pairs:
                continue
            for t, (c, s) in enumerate(_tail(n)):
                if src.start <= s + k < src.stop:
                    rows_m[s + k - src.start, :, 2 * i + c] = rows_m[s + k - src.start, :, t - 2]
            lo, hi = max(src.start, k), min(src.stop, n + k)  # targets of P whose source is on the lattice
            product[m + k][lo - k:hi - k] += rows_m[lo - src.start:hi - src.start, :, 2 * i:2 * i + 2]
    return product


def _fold(elements: Sequence, half_width: int) -> dict:
    """Bands of a train given in application order, every element folded onto the identity's bands alone."""
    bands = _by_offset([(0, np.eye(2, dtype=np.complex128))], 2 * half_width + 1)
    for element in elements:
        bands = _fold_step(element, half_width, bands)
    return bands


def lift(element, half_width: int) -> np.ndarray:
    """Dense operator of one element's bands on the coin ⊗ lattice basis; every element's ``lift``."""
    return _place_bands(element.bands(), half_width)


def _as_integer(name: str, value, least=-math.inf) -> int:
    """``value`` (an integer, or a float with an integer value; not a boolean) as an int of at least ``least``."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral)
                                       or (isinstance(value, float) and value.is_integer())):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value!r}")
    return int(value)


def _as_real(name: str, value):
    """``value``, unchanged, if it is a real number (not a boolean) that a float holds finitely."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not abs(value) <= sys.float_info.max:
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    return value


def _as_reals(name: str, values) -> np.ndarray:
    """``values`` as a read-only float64 array whose entries pass :func:`_as_real`; a float array in one pass."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "f":
        array = values.astype(np.float64)
        bad = array[~np.isfinite(array)]
        if bad.size:
            _as_real(name, bad[0].item())
    else:
        entries = np.array(values, dtype=object)
        for entry in entries.flat:
            _as_real(name, entry)
        array = entries.astype(np.float64)
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class JPlate:
    """Phase profiles m_x*phi + c_x and m_y*phi + c_y on axes rotated by ``angle``."""

    m_x: int
    c_x: float = 0.0
    m_y: int = 0
    c_y: float = 0.0
    angle: float = 0.0

    def __post_init__(self):
        for name in ("m_x", "m_y"):
            object.__setattr__(self, name, _as_integer(name, getattr(self, name)))
        for name in ("c_x", "c_y", "angle"):
            _as_real(name, getattr(self, name))

    def bands(self) -> list:
        """Bands m_x, m_y: R(-angle)[a, c] e^{i c_c} R(angle)[c, b], multiplied in that order."""
        rot, rot_back = jones_rotation(self.angle), jones_rotation(-self.angle)
        phases = np.exp(1j * np.array([self.c_x, self.c_y]))
        return [(m, np.array([[rot_back[a, c] * phases[c] * rot[c, b] for b in range(2)] for a in range(2)]))
                for c, m in enumerate((self.m_x, self.m_y))]

    lift = lift


@dataclass(frozen=True)
class HalfWavePlate:
    angle: float = 0.0

    def __post_init__(self):
        _as_real("angle", self.angle)

    def bands(self) -> list:
        return [(0, halfwave_pointwise(self.angle))]

    lift = lift


@dataclass(frozen=True)
class VariableWavePlate:
    retardance: float

    def __post_init__(self):
        _as_real("retardance", self.retardance)

    def bands(self) -> list:
        return [(0, varwave_pointwise(self.retardance))]

    lift = lift


def compose(elements: Sequence, half_width: int) -> np.ndarray:
    """Operator of an element train given in application order (first applied first).

    The train is folded in bands by :func:`_fold`, from the identity's, and placed once, so the fold
    holds one dense operator; :func:`oamwalk.compiler.verify` certifies a train by this operator.
    """
    return _place_bands(_fold(elements, half_width).items(), half_width)


class PhaseMatch(NamedTuple):
    match: bool
    fidelity: float
    phase: float


def equal_up_to_phase(a: np.ndarray, b: np.ndarray) -> PhaseMatch:
    """Compare operators up to a global phase.

    Returns the normalized overlap |tr(a†b)| / (‖a‖_F ‖b‖_F), the phase
    arg tr(a†b) (so ``a ≈ e^{-i*phase} b`` at the optimum), and whether the
    phase-minimized Frobenius residual ‖a - e^{iϕ}b‖_F / ‖a‖_F is within
    :data:`TOL`.  The overlap equals 1 exactly when a and b agree up to a unit
    scalar, and reduces to |tr(a†b)|/dim for unitary inputs.

    The overlap and both norms are each one reduction over the whole
    operators.  The residual decides only ``match``: it is formed
    :data:`_RESIDUAL_ROWS` rows at a time in one small buffer, and the blocks'
    squared norms are added, so no third operator is allocated.  A zero operand is refused.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"operators must be square and same shape, got {a.shape} vs {b.shape}")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0 or nb == 0:  # a NaN operand passes, with a NaN fidelity
        raise ValueError("operators must be nonzero: a zero operator has no phase or fidelity")
    overlap = np.vdot(a, b)  # tr(a† b)
    fidelity = float(abs(overlap) / (na * nb))
    phase = float(np.angle(overlap))
    # The optimal alignment phase is -arg tr(a†b); forming the difference
    # explicitly avoids the cancellation that the norm-expansion formula
    # na^2 + nb^2 - 2|overlap| suffers near equality.
    rotation = np.exp(-1j * phase)
    buffer = np.empty((min(_RESIDUAL_ROWS, len(a)), len(a)), dtype=np.complex128)
    squares = np.float64(0.0)
    for start in range(0, len(a), _RESIDUAL_ROWS):
        rows = slice(start, start + _RESIDUAL_ROWS)
        diff = np.multiply(rotation, b[rows], out=buffer[:len(b[rows])])
        np.subtract(a[rows], diff, out=diff)
        squares += np.vdot(diff, diff).real
    return PhaseMatch(bool(np.sqrt(squares) / na <= TOL), fidelity, phase)


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
            entry = coef[src, a]  # [l, b]
            sums[:, src] += np.multiply(np.conjugate(entry), entry).real.T
    norms = np.sqrt(sums)[:, margin:n - margin]
    return float(np.max(np.abs(norms - 1.0)))
