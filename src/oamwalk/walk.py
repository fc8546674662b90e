"""Walker states and abstract evolutions for 1-D coined quantum walks.

A walker lives on a truncated integer lattice ``x in [-L, L]`` and carries a
two-dimensional internal (coin) state.  Amplitudes are stored as an array of
shape ``(2, n_sites)``: row 0 is the left-moving component (coin ``|0>``,
horizontal polarization in the optical picture), row 1 the right-moving one
(coin ``|1>``, vertical).  A :class:`WalkerState` holds them as complex128.

Four walk kinds are provided, each step a fixed order of coins and shifts:

- plain discrete-time walk: a coin rotation, then the full conditional shift,
- split-step walk: two coin rotations, each followed by one half-shift,
- generalized split-step walk: the same with position-dependent coins,
- electric walk: the plain step, then a position-linear phase.

Each kind's order is written once, as its moves in :data:`STEP_MOVES`, which
the step kernel applies and the optical compiler turns into elements.  The
kernel is the only way to advance a walk: :func:`step` takes a state one step
on, :func:`iterate` and :func:`iterate_ensemble` stream whole walks.

Truncation is exact while no appreciable amplitude reaches the lattice edges.
:meth:`WalkSpec.validate` sizes every configured walk so that none does.  For
:func:`step`, which advances arbitrary states, :func:`_stepper` guards each move.

The dense one-step operators (:func:`step_operator`,
:func:`split_step_operator`) are read from comb probes of that kernel,
unguarded so that amplitude leaving the lattice is dropped as a truncated
matrix drops it: a certificate against them is about the walk that runs.

The step kernel works on bare amplitude arrays of shape ``(..., 2, n_sites)``:
an ensemble of walks that differ only in their coin tables is one
``(S, 2, n_sites)`` array (:func:`iterate_ensemble`), and one walk is the
one-member ensemble, in :func:`step` as everywhere.  :func:`iterate` streams
a walk state by state, building its coin operators once, so a consumer that
reduces each state as it arrives holds O(n_sites) memory whatever the step
count; :func:`evolve` collects the whole trajectory.  There is no separate
shift: each move's coin product lands already shifted, through a strided
view (:func:`_landing`) of one of two padded buffers the kernel allocates
once per walk, and the electric phases apply to it in place.  So a step
allocates no state, and a state the kernel returns is a view of its
buffers, valid until the next step; :func:`step` and :func:`iterate` copy
it into a :class:`WalkerState`.

A walk is evolved in float64 when it is real: per-site coin tables that are
pure theta rotations (:func:`_coins`), a real start coin and no field.
Anything complex keeps it complex128, and a single-matrix coin always is.
Each complex product the kernel forms rounds its real multiplies one by
one, so with zero imaginary parts its real part is the real product's, and
every probability and output byte is the same in either arithmetic.

An evolution starts from a delta state, so after k steps only the light
cone, the sites within k moves of ``start``, can be nonzero.  Only this
module knows that window: :func:`iterate_ensemble` hands it to the kernel
each step, and :func:`distribution_blocks`, the reduction loop of the ``run``
and ``localize`` commands, writes each state's :func:`site_probabilities` on
it.  Per-site coins and probabilities touch only its columns: a coin lands
them one column over at most, and the cone of step k holds the image of
state k-1, so nothing leaves it and every output byte stays.  The rest
stays full width: a single-matrix coin (BLAS's last bits depend on the
column range), :func:`step` and the comb probes (their states are not
deltas), the phases, and every sum and dot product in :func:`site_moments`,
so they add the same terms.

The reductions :func:`site_probabilities` and :func:`site_moments` act on
arrays; :func:`probability` and :func:`moments` are their mapping views.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .optics import _as_integer, _as_real, _as_reals, _place_bands

__all__ = [
    "GUARD",
    "SYMMETRIC_COIN",
    "LatticeGuardError",
    "WalkerState",
    "CoinParams",
    "CoinTable",
    "WalkSpec",
    "STEP_MOVES",
    "make_state",
    "coin_matrix",
    "u2_matrix",
    "step",
    "iterate",
    "iterate_ensemble",
    "evolve",
    "BLOCK_ROWS",
    "distribution_blocks",
    "site_probabilities",
    "site_moments",
    "probability",
    "moments",
    "spread",
    "split_step_operator",
    "step_operator",
]

#: Largest amplitude magnitude tolerated at a boundary site before a shift.
GUARD = 1e-12

#: Default initial coin state.  For the coin convention used here
#: (:func:`coin_matrix`, an exp(-i*theta*s1) rotation) the equal real
#: superposition is the state whose walk is exactly mirror symmetric: the
#: swap-and-reflect operator s1 ⊗ (x -> -x) commutes with every step and
#: leaves this state fixed.  The circular state (1, i)/sqrt(2), symmetric
#: for real-entried Hadamard-type coins, is maximally *directed* here.
SYMMETRIC_COIN = (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))

_TWO_PI = 2.0 * math.pi


class LatticeGuardError(RuntimeError):
    """Amplitude would be pushed off the truncated lattice.

    Carries ``required_half_width`` when a sufficient lattice size is known.
    """

    def __init__(self, message: str, required_half_width: int | None = None):
        super().__init__(message)
        self.required_half_width = required_half_width


@dataclass(frozen=True)
class WalkerState:
    """Immutable coin ⊗ position wavefunction on a truncated lattice starting at the integer ``lattice_min``."""

    lattice_min: int
    amps: np.ndarray  # (2, n_sites) complex128, read-only

    def __post_init__(self):
        object.__setattr__(self, "lattice_min", _as_integer("lattice_min", self.lattice_min))
        # copy, so freezing never flips a caller's buffer to read-only and no
        # state aliases the step kernel's reused buffers
        amps = np.array(self.amps, dtype=np.complex128)
        if amps.ndim != 2 or amps.shape[0] != 2 or amps.shape[1] < 1:
            raise ValueError(f"amplitudes must have shape (2, n_sites), got {amps.shape}")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    @property
    def n_sites(self) -> int:
        return self.amps.shape[1]

    @property
    def lattice_max(self) -> int:
        return self.lattice_min + self.n_sites - 1

    @property
    def sites(self) -> np.ndarray:
        """Integer site coordinates, aligned with the amplitude columns."""
        return np.arange(self.lattice_min, self.lattice_min + self.n_sites)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


@dataclass(frozen=True)
class CoinParams:
    """Angles (chi, xi, eta, theta) of one U(2) coin, all in radians.

    The matrix they parameterize is the ordered product
    ``exp(i*chi) * exp(i*xi*s2) * exp(i*eta*s3) * exp(i*theta*s2)`` with
    ``s2 = [[0,-i],[i,0]]`` and ``s3 = diag(1,-1)``; see :func:`u2_matrix`.
    """

    chi: float = 0.0
    xi: float = 0.0
    eta: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        for name in ("chi", "xi", "eta", "theta"):
            _as_real(f"coin angle {name}", getattr(self, name))


def coin_matrix(theta: float) -> np.ndarray:
    """Balanced coin rotation [[cos t, -i sin t], [-i sin t, cos t]]."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)


def u2_matrix(p: CoinParams) -> np.ndarray:
    """U(2) coin from its four angles, in the fixed factor order.

    ``exp(i*chi) * exp(i*xi*s2) * diag(e^{i*eta}, e^{-i*eta}) * exp(i*theta*s2)``.
    The determinant phase is ``exp(2i*chi)``.  Same formula as
    :meth:`CoinTable.matrices`, on a one-site table.
    """
    return CoinTable(0, [p.chi], [p.xi], [p.eta], [p.theta]).matrices()[0]


@dataclass(frozen=True)
class CoinTable:
    """Per-site coin angles covering a whole lattice.

    Stores one angle array per parameter, ordered by ascending site index
    starting at ``lattice_min``.  Each angle must be a finite real number and
    ``lattice_min`` an integer.
    """

    lattice_min: int
    chi: np.ndarray
    xi: np.ndarray
    eta: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lattice_min", _as_integer("lattice_min", self.lattice_min))
        for name in ("chi", "xi", "eta", "theta"):
            column = _as_reals(f"coin table column {name} entry", getattr(self, name))
            if column.ndim != 1:
                raise ValueError(f"coin table column {name} must be 1-D")
            object.__setattr__(self, name, column)
            if column.size != self.chi.size:
                raise ValueError("coin table columns must have equal length")
        if not self.n_sites:
            raise ValueError("coin table must cover at least one site")

    @classmethod
    def homogeneous(cls, params: CoinParams, half_width: int) -> "CoinTable":
        """Repeat one set of angles over the lattice [-half_width, half_width]."""
        n = 2 * half_width + 1
        return cls(
            -half_width,
            np.full(n, params.chi),
            np.full(n, params.xi),
            np.full(n, params.eta),
            np.full(n, params.theta),
        )

    @classmethod
    def random_disorder(cls, half_width: int, rng: np.random.Generator) -> "CoinTable":
        """Disordered table: theta(x) uniform on [0, 2*pi), other angles zero.

        Draws are made in ascending site order so a fixed generator state
        reproduces the table exactly.
        """
        n = 2 * half_width + 1
        thetas = rng.uniform(0.0, _TWO_PI, size=n)
        zeros = np.zeros(n)
        return cls(-half_width, zeros, zeros.copy(), zeros.copy(), thetas)

    @property
    def n_sites(self) -> int:
        return self.chi.size

    @property
    def lattice_max(self) -> int:
        return self.lattice_min + self.n_sites - 1

    def __getitem__(self, x: int) -> CoinParams:
        if not (self.lattice_min <= x <= self.lattice_max):
            raise KeyError(f"site {x} outside table range [{self.lattice_min}, {self.lattice_max}]")
        i = x - self.lattice_min
        return CoinParams(float(self.chi[i]), float(self.xi[i]), float(self.eta[i]), float(self.theta[i]))

    def matrices(self) -> np.ndarray:
        """Stacked per-site coin matrices, shape (n_sites, 2, 2)."""
        d = np.exp(1j * self.eta)
        dc = np.conj(d)
        cx, sx = np.cos(self.xi), np.sin(self.xi)
        ct, st = np.cos(self.theta), np.sin(self.theta)
        ph = np.exp(1j * self.chi)
        m = np.empty((self.n_sites, 2, 2), dtype=np.complex128)
        m[:, 0, 0] = ph * (cx * d * ct - sx * dc * st)
        m[:, 0, 1] = ph * (cx * d * st + sx * dc * ct)
        m[:, 1, 0] = ph * (-sx * d * ct - cx * dc * st)
        m[:, 1, 1] = ph * (-sx * d * st + cx * dc * ct)
        return m


def _unit_coin(name: str, coin: Iterable[complex]) -> tuple[complex, complex]:
    """The two amplitudes of ``coin``, or ``ValueError`` unless their norm is 1 within 1e-12."""
    a, b = (complex(c) for c in coin)
    nrm = math.hypot(abs(a), abs(b))
    if not abs(nrm - 1.0) <= 1e-12:  # also rejects NaN and inf entries
        raise ValueError(f"{name} must be normalized to 1 within 1e-12, |{name}| = {nrm!r}")
    return a, b


def make_state(coin: Iterable[complex], x0: int, half_width: int) -> WalkerState:
    """Delta state at site ``x0`` with the given normalized coin vector."""
    if abs(x0) >= half_width:
        raise ValueError(f"start site {x0} must satisfy |x0| < half_width = {half_width}")
    amps = np.zeros((2, 2 * half_width + 1), dtype=np.complex128)
    amps[:, x0 + half_width] = _unit_coin("coin vector", coin)
    return WalkerState(-half_width, amps)


def _coin(amps: np.ndarray, coin: np.ndarray, out: np.ndarray, window: slice = slice(None)) -> None:
    """Write a coin's product with amplitudes (..., 2, n) into the (..., 2, n) view ``out``.

    ``coin`` is one (2, 2) matrix, or per-site entries (..., 2, 2, n),
    ``[..., i, j, x] = U_x[i, j]``, as :func:`_coins` builds them, which
    write only the columns in ``window``.  A matrix takes the whole lattice:
    its product goes through BLAS, whose last bits depend on the column
    range, not on where ``out`` lies.
    """
    if coin.ndim == 2:
        np.matmul(coin, amps, out=out)
    else:  # einsum forms each complex product with separately rounded real
        # multiplies; numpy's vectorized complex multiply may fuse them (FMA) and
        # move the last bit, which would change every disordered-walk output.
        # The length-2 reduction from zero adds the same two rounded products.
        np.einsum("...ijx,...jx->...ix", coin[..., window], amps[..., window], out=out[..., window])


def _landing(buffer: np.ndarray, left: bool, right: bool) -> np.ndarray:
    """The (..., 2, n) view of a buffer (..., 2, n + 2), whose state is columns 1..n, where a move's coin lands.

    Row 0 starts a column left when ``left`` moves the left mover, row 1 a column right when ``right`` moves
    the right mover, so amplitude that leaves the lattice lands in the padding.
    """
    strides = buffer.strides[:-2] + (buffer.strides[-2] + (left + right) * buffer.itemsize, buffer.itemsize)
    shape = buffer.shape[:-1] + (buffer.shape[-1] - 2,)
    return np.lib.stride_tricks.as_strided(buffer[..., 0, 1 - left:], shape, strides)


def _guard_check(edge, lattice_min: int, n_sites: int, side: str) -> None:
    """Raise if any walk's boundary amplitude in ``edge`` exceeds :data:`GUARD`."""
    worst = float(np.abs(edge).max())
    if not worst <= GUARD:  # also catches NaN
        raise LatticeGuardError(
            f"shift would move amplitude of magnitude {worst:.3e} off the {side} "
            f"edge of the lattice [{lattice_min}, {lattice_min + n_sites - 1}]; "
            "enlarge the lattice half-width",
        )


def _site_angles(phi_e: float, lattice_min: int, n_sites: int) -> np.ndarray | None:
    """Site phase angles phi_e * x over the lattice, or None when they all vanish mod 2*pi."""
    # IEEE remainder keeps e^{i*phi*x} bit-stable under adding full turns to
    # phi: the reduction of phi and of phi + 2*pi yield the same double
    # whenever the addition itself was exact.
    r = math.remainder(phi_e, _TWO_PI)
    if r == 0.0:
        return None
    return r * np.arange(lattice_min, lattice_min + n_sites)


#: Each walk kind's step as moves ``(coin slot, shift left mover, shift right
#: mover)``, in application order; a nonzero ``phi_e`` (the electric field)
#: then multiplies site x by exp(i * phi_e * x).
STEP_MOVES = {
    "dtqw": ((0, True, True),),
    "ssqw": ((0, True, False), (1, False, True)),
    "generalized": ((0, True, False), (1, False, True)),
    "electric-dtqw": ((0, True, True),),
}
#: How many sites one step of each kind moves the left and the right mover.
_REACH = {kind: (sum(m[1] for m in moves), sum(m[2] for m in moves)) for kind, moves in STEP_MOVES.items()}


@dataclass(frozen=True)
class WalkSpec:
    """Full description of one walk experiment.

    ``theta1`` is the coin angle of the plain and electric walks and the
    first coin of the split-step walk; ``theta2`` the second split-step coin.
    The generalized walk takes two coin tables instead; leave them ``None``
    with a non-negative ``seed`` set to draw disordered tables reproducibly.
    Fields are checked when the spec is built; :meth:`validate` checks them together.
    """

    walk_kind: str
    steps: int
    half_width: int
    coin_state: tuple[complex, complex] = SYMMETRIC_COIN
    start: int = 0
    theta1: float = math.pi / 4
    theta2: float = 0.0
    table1: CoinTable | None = None
    table2: CoinTable | None = None
    phi_e: float = 0.0
    seed: int | None = None

    KINDS = tuple(STEP_MOVES)

    def __post_init__(self):
        if self.walk_kind not in self.KINDS:
            raise ValueError(f"unknown walk kind {self.walk_kind!r}; expected one of {self.KINDS}")
        for name, least in (("steps", 0), ("half_width", 1), ("start", -math.inf), ("seed", 0)):
            if name != "seed" or self.seed is not None:
                object.__setattr__(self, name, _as_integer(name, getattr(self, name), least))
        for name in ("theta1", "theta2", "phi_e"):
            _as_real(name, getattr(self, name))
        _unit_coin("coin_state", self.coin_state)

    def required_half_width(self) -> int:
        lefts, rights = _REACH[self.walk_kind]  # the last light cone stays 2 sites clear of each edge
        return max(self.steps * lefts - self.start, self.steps * rights + self.start) + 2

    def validate(self) -> None:
        """Check the fields against each other: tables or a seed, the lattice size, the tables' cover."""
        if self.walk_kind == "generalized" and (self.table1 is None or self.table2 is None) and self.seed is None:
            raise ValueError("generalized walk needs explicit coin tables or a seed to draw them")
        need = self.required_half_width()
        if self.half_width < need:
            raise LatticeGuardError(
                f"half_width {self.half_width} too small for {self.steps} steps from "
                f"x0 = {self.start}; need at least {need}",
                required_half_width=need,
            )
        for t in (self.table1, self.table2):
            if t is not None and (t.lattice_min != -self.half_width or t.n_sites != 2 * self.half_width + 1):
                raise ValueError("coin tables must cover exactly the walk lattice")

    def resolved(self) -> "WalkSpec":
        """Return a spec with concrete coin tables (drawing from the seed if needed)."""
        self.validate()
        if self.walk_kind != "generalized" or (self.table1 is not None and self.table2 is not None):
            return self
        rng = np.random.default_rng(self.seed)
        t1 = self.table1 or CoinTable.random_disorder(self.half_width, rng)
        t2 = self.table2 or CoinTable.random_disorder(self.half_width, rng)
        return replace(self, table1=t1, table2=t2)

    def initial_state(self) -> WalkerState:
        return make_state(self.coin_state, self.start, self.half_width)


def _coins(specs: Sequence[WalkSpec], lattice_min: int, n_sites: int) -> tuple[np.ndarray, np.ndarray]:
    """The two coins of one step of walks that differ only in their tables.

    Angle coins are one shared (2, 2) :func:`coin_matrix` each, always
    complex; tables become (S, 2, 2, n_sites) per-site stacks, filled one
    table at a time.  The stacks are float64, the real parts of
    :meth:`CoinTable.matrices`, when every table is a pure theta rotation
    (all-zero ``chi``, ``xi`` and ``eta``, so its matrices' imaginary parts
    are exactly zero), and complex128 otherwise.
    """
    first = specs[0]
    if first.walk_kind != "generalized":
        return coin_matrix(first.theta1), coin_matrix(first.theta2)
    tables = [(spec.table1, spec.table2) for spec in specs]
    if any(table is None for pair in tables for table in pair):
        raise ValueError("generalized step needs resolved coin tables; call spec.resolved() first")
    real = not any(t.chi.any() or t.xi.any() or t.eta.any() for pair in tables for t in pair)
    stacks = tuple(np.empty((len(specs), 2, 2, n_sites), dtype=np.float64 if real else np.complex128)
                   for _ in range(2))
    for s, pair in enumerate(tables):
        for stack, table in zip(stacks, pair):
            if (table.lattice_min, table.n_sites) != (lattice_min, n_sites):
                raise ValueError(
                    f"coin table on [{table.lattice_min}, {table.lattice_max}] does not match "
                    f"state lattice [{lattice_min}, {lattice_min + n_sites - 1}]"
                )
            matrices = table.matrices()
            stack[s] = (matrices.real if real else matrices).transpose(1, 2, 0)
    return stacks


def _stepper(
    spec: WalkSpec, lattice_min: int, n_sites: int, coins: Sequence[np.ndarray], guard: bool = True
) -> Callable[[np.ndarray], np.ndarray]:
    """One step of ``spec``'s walk on amplitudes of shape (..., 2, n_sites).

    Applies the kind's :data:`STEP_MOVES` with the coins built by
    :func:`_coins`, then the electric phases, built here once per walk.  The
    shift is where a coin lands: landing j, one move's coin, goes through its
    :func:`_landing` view to buffer j % 2 of two zeroed (..., 2, n_sites + 2)
    buffers allocated on the first step, of the ``np.result_type`` of the
    amplitudes, the coins and the phases, so one complex input keeps the
    walk complex.  So a buffer always takes the same shift pattern, and a
    column it vacates is never written and stays zero.
    The returned function takes an optional column ``window`` that holds
    every site the step can touch and returns the last buffer's state view,
    valid until the next step.  Per-site coins (:func:`_coin`) work inside
    the window, and windows only grow, so a column written before is always
    written again; single-matrix coins, guards and phases take the whole
    lattice.  With ``guard`` on (:func:`step`), each move checks the padding
    it filled (:func:`_guard_check`) and raises :class:`LatticeGuardError`
    before returning; with it off (:func:`iterate_ensemble`, whose validated
    walks never reach the edges, and the comb probes), amplitude moved off
    the lattice stays in the padding, outside the state.
    """
    moves = STEP_MOVES[spec.walk_kind]
    angles = _site_angles(spec.phi_e, lattice_min, n_sites)
    phases = None if angles is None else np.exp(1j * angles)
    landings, steps = [], itertools.count()  # landing j's (coin, buffer, view, left, right) at j % 2

    def advance(amps, window=slice(None)):
        if not landings:
            dtype = np.result_type(amps, *coins, *(() if phases is None else (phases,)))
            for slot, left, right in (moves * 2)[:2]:
                buffer = np.zeros((*amps.shape[:-1], n_sites + 2), dtype=dtype)
                landings.append((coins[slot], buffer, _landing(buffer, left, right), left, right))
        first = next(steps) * len(moves)
        for j in range(first, first + len(moves)):
            coin, buffer, out, left, right = landings[j % 2]
            _coin(amps, coin, out, window)
            if guard and left:
                _guard_check(buffer[..., 0, 0], lattice_min, n_sites, "left")
            if guard and right:
                _guard_check(buffer[..., 1, -1], lattice_min, n_sites, "right")
            amps = buffer[..., 1:-1]
        if phases is not None:
            amps *= phases
        return amps

    return advance


def step(state: WalkerState, spec: WalkSpec) -> WalkerState:
    """Advance one full walk step of the kind selected by ``spec``."""
    coins = _coins([spec], state.lattice_min, state.n_sites)
    advance = _stepper(spec, state.lattice_min, state.n_sites, coins)
    return WalkerState(state.lattice_min, advance(state.amps[np.newaxis])[0])


def iterate(spec: WalkSpec) -> Iterator[WalkerState]:
    """Yield the states state_0, ..., state_T of the walk one at a time.

    A single walk is the one-member ensemble of :func:`iterate_ensemble`:
    its coin operators are built once and only the current state is kept.
    """
    lattice_min = -spec.half_width
    for amps in iterate_ensemble([spec]):
        yield WalkerState(lattice_min, amps[0])


def _without_tables(spec: WalkSpec) -> WalkSpec:
    return replace(spec, table1=None, table2=None, seed=None)


def iterate_ensemble(specs: Sequence[WalkSpec]) -> Iterator[np.ndarray]:
    """Evolve walks that differ only in their coin tables (or seeds) as one batch.

    Yields amplitude arrays of shape (S, 2, n_sites) for t = 0..T, row s
    being walk ``specs[s]``; a single walk is the one-member case
    (:func:`iterate`).  They are float64 when the walk is real: the coin
    stacks of :func:`_coins` are, the coin state has zero imaginary parts
    and there is no field; otherwise complex128.  Each is a read-only view
    of the kernel's buffers, valid until the next one is requested: copy it
    to keep it.  Each spec is resolved on its own, so a seeded member draws
    exactly the tables it would draw alone.  Every walk starts as a delta at
    ``start``, so step k can touch only :func:`_light_cone` ``(spec, k)``,
    the kernel's window, which validation keeps 2 sites clear of each edge.
    """
    specs = [s.resolved() for s in specs]
    if not specs:
        raise ValueError("an ensemble needs at least one walk")
    first = specs[0]
    if any(_without_tables(s) != _without_tables(first) for s in specs):
        raise ValueError("ensemble walks may differ only in their coin tables and seeds")
    state = first.initial_state()
    coins = _coins(specs, state.lattice_min, state.n_sites)
    real = (coins[0].dtype == np.float64 and not any(complex(c).imag for c in first.coin_state)
            and _site_angles(first.phi_e, state.lattice_min, state.n_sites) is None)
    amps = np.repeat((state.amps.real if real else state.amps)[np.newaxis], len(specs), axis=0)
    amps.setflags(write=False)
    yield amps
    advance = _stepper(first, state.lattice_min, state.n_sites, coins, guard=False)
    for k in range(1, first.steps + 1):
        amps = advance(amps, _light_cone(first, k))
        amps.setflags(write=False)
        yield amps


def _light_cone(spec: WalkSpec, k: int) -> slice:
    """Columns k steps' moves (:data:`STEP_MOVES`) can reach from ``spec.start``, on the lattice once validated."""
    lefts, rights = _REACH[spec.walk_kind]
    x0 = spec.start + spec.half_width
    return slice(x0 - k * lefts, x0 + k * rights + 1)


def evolve(spec: WalkSpec) -> list[WalkerState]:
    """Run the walk and return the trajectory [state_0, ..., state_T]."""
    return list(iterate(spec))


#: Distributions :func:`distribution_blocks` reduces together, ``max(1, BLOCK_ROWS // S)`` steps
#: of S walks.  Larger blocks save little call overhead and each row costs three lattice-sized
#: float rows.
BLOCK_ROWS = 16


def distribution_blocks(specs: Sequence[WalkSpec]) -> Iterator[tuple]:
    """Yield ``(t0, p, means, variances, cone)`` of an ensemble's steps t0..t0+k-1, one block at a time.

    ``p`` (k, S, n) holds the site probabilities of the k states of the S walks of
    :func:`iterate_ensemble`, each reduced as it arrives, while its view of the kernel's
    buffers is valid, into a buffer zeroed once and reused by every block: each state
    is written over its light cone only, which holds every earlier one, so ``p`` is zero
    outside ``cone``, the block's last and widest light cone.  Each row's moments, shape
    (k, S), equal a lone distribution's (:func:`site_moments`).
    """
    states = iterate_ensemble(specs)
    amps = next(states)  # resolves and checks the ensemble, so an empty one raises here
    first = specs[0]
    sites = np.arange(-first.half_width, first.half_width + 1)
    height = max(1, BLOCK_ROWS // len(specs))
    buffer = np.zeros((height, len(specs), sites.size))
    for t0 in range(0, first.steps + 1, height):
        p = buffer[: min(height, first.steps + 1 - t0)]
        for t, rows in zip(range(t0, t0 + len(p)), p):
            amps = next(states) if t else amps  # state 0 was read above
            cone = _light_cone(first, t)
            site_probabilities(amps[..., cone], out=rows[..., cone])
        yield (t0, p, *site_moments(p, sites), cone)


def site_probabilities(amps: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Site occupations |psi_l|^2 + |psi_r|^2 of amplitudes (..., 2, n); shape (..., n), into ``out`` if given."""
    sq = np.abs(amps)
    np.square(sq, out=sq)
    return np.add(sq[..., 0, :], sq[..., 1, :], out=out)


def site_moments(p: np.ndarray, sites) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance of site distributions ``p`` of shape (..., n).

    ``sites`` holds the n site coordinates.  Returns two float64 arrays of
    shape ``p.shape[:-1]`` (0-d for a single distribution).  Each row's dot
    products are one ``ddot`` over all n sites, as a lone distribution's
    ``@``, so a walk's moments do not depend on the batch it is reduced in.
    """
    xs = np.asarray(sites, dtype=np.float64)
    total = p.sum(axis=-1)
    mean = np.vecdot(p, xs) / total
    var = np.vecdot((xs - mean[..., np.newaxis]) ** 2, p) / total
    return mean, var


def probability(state: WalkerState) -> dict[int, float]:
    """Site occupation probabilities |psi_l|^2 + |psi_r|^2 as a map x -> P."""
    return dict(zip(state.sites.tolist(), site_probabilities(state.amps).tolist()))


def moments(p: Mapping[int, float]) -> tuple[float, float]:
    """Mean and variance of a site distribution."""
    xs = np.fromiter(p.keys(), dtype=np.float64, count=len(p))
    ws = np.fromiter(p.values(), dtype=np.float64, count=len(p))
    mean, var = site_moments(ws, xs)
    return float(mean), float(var)


def spread(p: Mapping[int, float]) -> float:
    """Standard deviation of a site distribution."""
    return math.sqrt(moments(p)[1])


# --- dense matrix representations -----------------------------------------
#
# Matrices on the basis |coin> ⊗ |x>, index coin * n_sites + (x - lattice_min).


def _probed(spec: WalkSpec, coins: Sequence[np.ndarray]) -> np.ndarray:
    """Matrix of one unguarded step of ``spec`` with ``coins``, read from comb probes.

    A step moves each mover at most w = max(:data:`_REACH`) sites, so probe
    (r, c), coin c on the sites x ≡ r (mod 2w+1), reaches each site from one
    x at most, by the operations a basis state at x takes: its image at
    x + m is band m at x.
    """
    n, reach = 2 * spec.half_width + 1, max(_REACH[spec.walk_kind])
    spacing, sites = 2 * reach + 1, np.arange(n)
    probes = np.zeros((spacing, 2, 2, n), dtype=np.complex128)
    probes[sites % spacing, :, :, sites] = np.eye(2)  # [r, c, c, x ≡ r] = 1
    images = _stepper(spec, -spec.half_width, n, coins, guard=False)(probes)  # [r, c, a, y]
    # targets off the lattice are clipped here and dropped by the placement
    return _place_bands([(m, images[sites % spacing, :, :, np.clip(sites + m, 0, n - 1)].swapaxes(1, 2))
                         for m in range(-reach, reach + 1)], spec.half_width)


def split_step_operator(coin1, coin2, half_width: int) -> np.ndarray:
    """Dense split-step operator: plus-shift · coin2 · minus-shift · coin1.

    Each coin is a single 2x2 matrix or a per-site (n, 2, 2) stack.
    """
    n = 2 * half_width + 1
    coins = []
    for coin in (coin1, coin2):
        coin = np.asarray(coin, dtype=np.complex128)
        if coin.shape != (2, 2) and coin.shape != (n, 2, 2):
            raise ValueError(f"coin must be (2, 2) or ({n}, 2, 2), got {coin.shape}")
        coins.append(coin if coin.ndim == 2 else np.ascontiguousarray(coin.transpose(1, 2, 0)))
    return _probed(WalkSpec("ssqw", 1, half_width), coins)


def step_operator(spec: WalkSpec) -> np.ndarray:
    """Dense one-step operator of the walk described by ``spec``."""
    spec = spec.resolved()
    L = spec.half_width
    return _probed(spec, _coins([spec], -L, 2 * L + 1))
