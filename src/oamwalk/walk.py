"""Walker states and abstract evolutions for 1-D coined quantum walks.

A walker lives on a truncated integer lattice ``x in [-L, L]`` and carries a
two-dimensional internal (coin) state.  Amplitudes are stored as a complex
array of shape ``(2, n_sites)``: row 0 is the left-moving component (coin
``|0>``, horizontal polarization in the optical picture), row 1 the
right-moving one (coin ``|1>``, vertical).

Four walk kinds are provided, each step a fixed order of coins and shifts:

- plain discrete-time walk: a coin rotation, then the full conditional shift,
- split-step walk: two coin rotations, each followed by one half-shift,
- generalized split-step walk: the same with position-dependent coins,
- electric walk: the plain step, then a position-linear phase.

Each kind's order is written once, as its moves in :data:`STEP_MOVES`, which
the step kernel applies and the optical compiler turns into elements.  The
kernel is the only way to advance a walk: :func:`step` takes a state one step
on, :func:`iterate` and :func:`iterate_ensemble` stream whole walks.

Truncation is exact in practice as long as no appreciable amplitude reaches
the boundary sites; every shift in the kernel enforces that guard and raises
:class:`LatticeGuardError` when it would push amplitude off the lattice.

The dense one-step operators (:func:`step_operator`,
:func:`split_step_operator`) are read from comb probes of that kernel,
unguarded so that amplitude leaving the lattice is dropped as a truncated
matrix drops it: a certificate against them is about the walk that runs.

The step kernel works on bare amplitude arrays of shape ``(..., 2, n_sites)``:
one walk has no leading axis, and an ensemble of walks that differ only in
their coin tables is one ``(S, 2, n_sites)`` array advanced by the same code
(:func:`iterate_ensemble`).  :func:`iterate` streams a walk state by state,
building its coin operators once, so a consumer that reduces each state as it
arrives holds O(n_sites) memory whatever the step count; :func:`evolve`
collects the whole trajectory.  Each coin writes a new array, and the kernel
shifts it and applies the electric phases to it in place, so a step allocates
one array per coin and never writes into a state it has already yielded.

An evolution starts from a delta state, so after k steps only the
:func:`light_cone`, the sites within k moves of ``start``, can be nonzero.
:func:`iterate_ensemble` hands the kernel that window each step, and per-site
coins and shifts (and :func:`site_probabilities_into`) touch only its columns,
which keeps every output byte.  The rest stays full width: a single-matrix
coin (BLAS's last bits depend on the column range), :func:`step` and the comb
probes (their states are not deltas), the guards, the phases, and every sum
and dot product in :func:`site_moments`, so they add the same terms.

The reductions :func:`site_probabilities` and :func:`site_moments` act on
arrays; :func:`probability` and :func:`moments` are their mapping views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .optics import _place_bands

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
    "light_cone",
    "site_probabilities",
    "site_probabilities_into",
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
    """Immutable coin ⊗ position wavefunction on a truncated lattice."""

    lattice_min: int
    amps: np.ndarray  # (2, n_sites) complex128, read-only

    def __post_init__(self):
        # copy so freezing never flips a caller's buffer to read-only
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
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"coin angle {name} must be finite, got {v}")


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
    starting at ``lattice_min``.
    """

    lattice_min: int
    chi: np.ndarray
    xi: np.ndarray
    eta: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        arrays = {}
        n = None
        for name in ("chi", "xi", "eta", "theta"):
            a = np.array(getattr(self, name), dtype=np.float64)
            if a.ndim != 1:
                raise ValueError(f"coin table column {name} must be 1-D")
            if n is None:
                n = a.size
            elif a.size != n:
                raise ValueError("coin table columns must have equal length")
            if not np.all(np.isfinite(a)):
                raise ValueError(f"coin table column {name} must be finite")
            a.setflags(write=False)
            arrays[name] = a
        if not n:
            raise ValueError("coin table must cover at least one site")
        for name, a in arrays.items():
            object.__setattr__(self, name, a)

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


def make_state(coin: Iterable[complex], x0: int, half_width: int) -> WalkerState:
    """Delta state at site ``x0`` with the given normalized coin vector."""
    a, b = (complex(c) for c in coin)
    nrm = math.hypot(abs(a), abs(b))
    if not abs(nrm - 1.0) <= 1e-12:  # also rejects NaN and inf entries
        raise ValueError(f"coin vector must be normalized, |coin| = {nrm!r}")
    if half_width < 1:
        raise ValueError("half_width must be at least 1")
    if abs(x0) >= half_width:
        raise ValueError(f"start site {x0} must satisfy |x0| < half_width = {half_width}")
    n = 2 * half_width + 1
    amps = np.zeros((2, n), dtype=np.complex128)
    amps[0, x0 + half_width] = a
    amps[1, x0 + half_width] = b
    return WalkerState(-half_width, amps)


def _site_coefficients(table: CoinTable) -> np.ndarray:
    """Per-site coin entries as a contiguous (2, 2, n_sites) array: [i, j, x] = U_x[i, j]."""
    return np.ascontiguousarray(table.matrices().transpose(1, 2, 0))


def _coin(amps: np.ndarray, coin: np.ndarray, window: slice = slice(None)) -> np.ndarray:
    """Apply a coin to amplitudes of shape (..., 2, n), always into a new array.

    ``coin`` is a single (2, 2) matrix applied everywhere, or per-site
    entries of shape (..., 2, 2, n) as built by :func:`_site_coefficients`.
    A per-site coin computes only the site columns in ``window`` and leaves
    the rest of the new array zero, so the caller must know that ``amps``
    vanishes outside it.  A single matrix ignores the window: its product
    goes through BLAS, whose last bits depend on the column range.
    """
    if coin.ndim == 2:
        return coin @ amps
    new = np.zeros(amps.shape, dtype=np.result_type(coin, amps))
    # einsum forms each complex product with separately rounded real
    # multiplies; numpy's vectorized complex multiply may fuse them (FMA) and
    # move the last bit, which would change every disordered-walk output.
    # The length-2 reduction from zero adds the same two rounded products.
    np.einsum("...ijx,...jx->...ix", coin[..., window], amps[..., window], out=new[..., window])
    return new


def _guard_check(edge, lattice_min: int, n_sites: int, side: str) -> None:
    """Raise if any walk's boundary amplitude in ``edge`` exceeds :data:`GUARD`."""
    worst = float(np.abs(edge).max())
    if not worst <= GUARD:  # also catches NaN
        raise LatticeGuardError(
            f"shift would move amplitude of magnitude {worst:.3e} off the {side} "
            f"edge of the lattice [{lattice_min}, {lattice_min + n_sites - 1}]; "
            "enlarge the lattice half-width",
        )


def _shift(amps: np.ndarray, lattice_min: int, left: bool, right: bool, guard: bool = True,
           window: slice = slice(None)) -> np.ndarray:
    """Move the left mover one site left and/or the right mover one site right, in place.

    This is the walk's only shift: ``left`` alone is the minus half-shift,
    ``right`` alone the plus half-shift, both the full conditional shift, as
    each move of :data:`STEP_MOVES` asks after its coin.  Writes into
    ``amps`` and returns it; the site each mover vacates is zeroed.  Only
    the columns in ``window``, outside which ``amps`` must vanish, move.
    Each guard checks its lattice edge before anything moves.  With
    ``guard`` off, amplitude moved off the lattice is dropped silently.
    """
    n_sites = amps.shape[-1]
    if guard and left:
        _guard_check(amps[..., 0, 0], lattice_min, n_sites, "left")
    if guard and right:
        _guard_check(amps[..., 1, -1], lattice_min, n_sites, "right")
    lo, hi, _ = window.indices(n_sites)
    if left:
        amps[..., 0, max(lo, 1) - 1:hi - 1] = amps[..., 0, max(lo, 1):hi]
        amps[..., 0, hi - 1] = 0.0
    if right:
        amps[..., 1, lo + 1:min(hi, n_sites - 1) + 1] = amps[..., 1, lo:min(hi, n_sites - 1)]
        amps[..., 1, lo] = 0.0
    return amps


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

    def required_half_width(self) -> int:
        return abs(self.start) + self.steps + 2

    def validate(self) -> None:
        if self.walk_kind not in self.KINDS:
            raise ValueError(f"unknown walk kind {self.walk_kind!r}; expected one of {self.KINDS}")
        if self.steps < 0:
            raise ValueError("step count must be non-negative")
        for name in ("theta1", "theta2", "phi_e"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
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


def _coins(spec: WalkSpec) -> tuple[np.ndarray, np.ndarray]:
    """The two coins of one step: (2, 2) matrices, or per-site entries for tables."""
    if spec.walk_kind == "generalized":
        if spec.table1 is None or spec.table2 is None:
            raise ValueError("generalized step needs resolved coin tables; call spec.resolved() first")
        return _site_coefficients(spec.table1), _site_coefficients(spec.table2)
    return coin_matrix(spec.theta1), coin_matrix(spec.theta2)


def _stepper(
    spec: WalkSpec, lattice_min: int, n_sites: int, coins: Sequence[np.ndarray], guard: bool = True
) -> Callable[[np.ndarray], np.ndarray]:
    """One step of ``spec``'s walk on amplitudes of shape (..., 2, n_sites).

    Applies the kind's :data:`STEP_MOVES` with the coins prepared by
    :func:`_coins` (stacked along the leading axis for an ensemble), then the
    electric phases, built here once per walk.  Every coin returns a new
    array, which the shift and the phases then change in place, so the input
    array is never written to.  The returned function takes an optional
    column ``window`` that holds every site the step can touch; per-site
    coins (:func:`_coin`) and the shifts (:func:`_shift`) work only inside
    it, single-matrix coins, guards and phases on the whole lattice.  Only
    :func:`iterate_ensemble`, which starts from a delta state, passes one;
    :func:`step` and the dense operators' comb probes take the whole lattice.
    With ``guard`` off (dense operators only), amplitude shifted off the
    lattice is dropped instead of raising :class:`LatticeGuardError`.
    """
    if spec.walk_kind not in STEP_MOVES:
        spec.validate()  # names the unknown kind
    moves = STEP_MOVES[spec.walk_kind]
    angles = _site_angles(spec.phi_e, lattice_min, n_sites)
    phases = None if angles is None else np.exp(1j * angles)

    def advance(amps, window=slice(None)):
        for slot, left, right in moves:
            amps = _shift(_coin(amps, coins[slot], window), lattice_min, left, right, guard, window)
        if phases is not None:
            amps *= phases
        return amps

    return advance


def step(state: WalkerState, spec: WalkSpec) -> WalkerState:
    """Advance one full walk step of the kind selected by ``spec``."""
    coins = _coins(spec)
    if spec.walk_kind == "generalized":
        for table in (spec.table1, spec.table2):
            if (table.lattice_min, table.n_sites) != (state.lattice_min, state.n_sites):
                raise ValueError(
                    f"coin table on [{table.lattice_min}, {table.lattice_max}] does not match "
                    f"state lattice [{state.lattice_min}, {state.lattice_max}]"
                )
    advance = _stepper(spec, state.lattice_min, state.n_sites, coins)
    return WalkerState(state.lattice_min, advance(state.amps))


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

    Yields read-only amplitude arrays of shape (S, 2, n_sites) for t = 0..T,
    row s being walk ``specs[s]``; a single walk is the one-member case
    (:func:`iterate`).  Each spec is resolved on its own, so a seeded member
    draws exactly the tables it would draw alone.

    Every walk starts as a delta at ``start``, so step k can touch only
    :func:`light_cone` ``(spec, k)``.  Per-site coins are computed and the
    shifts move columns on that window alone; the other columns hold the
    zeros the full-width step would give there.
    """
    specs = [s.resolved() for s in specs]
    if not specs:
        raise ValueError("an ensemble needs at least one walk")
    first = specs[0]
    if any(_without_tables(s) != _without_tables(first) for s in specs):
        raise ValueError("ensemble walks may differ only in their coin tables and seeds")
    state = first.initial_state()
    amps = np.repeat(state.amps[np.newaxis], len(specs), axis=0)
    amps.setflags(write=False)
    yield amps
    # homogeneous coins are equal across members (checked above): keep one.
    # Per-site coins are copied into their stacks a member at a time, so at
    # most one member's coefficients exist beside the stacks.
    coins = None
    for s, member_coins in enumerate(map(_coins, specs)):
        if coins is None:
            coins = [c if c.ndim == 2 else np.empty((len(specs),) + c.shape, c.dtype) for c in member_coins]
        for stack, c in zip(coins, member_coins):
            if c.ndim > 2:
                stack[s] = c
    advance = _stepper(first, state.lattice_min, state.n_sites, coins)
    for k in range(1, first.steps + 1):
        amps = advance(amps, light_cone(first, k))
        amps.setflags(write=False)
        yield amps


def light_cone(spec: WalkSpec, k: int) -> slice:
    """Columns k steps' moves (:data:`STEP_MOVES`) can reach from ``spec.start``, clipped to the lattice."""
    lefts, rights = _REACH[spec.walk_kind]
    x0 = spec.start + spec.half_width
    return slice(max(x0 - k * lefts, 0), min(x0 + k * rights + 1, 2 * spec.half_width + 1))


def evolve(spec: WalkSpec) -> list[WalkerState]:
    """Run the walk and return the trajectory [state_0, ..., state_T]."""
    return list(iterate(spec))


def site_probabilities(amps: np.ndarray) -> np.ndarray:
    """Site occupations |psi_l|^2 + |psi_r|^2 of amplitudes (..., 2, n); shape (..., n)."""
    sq = np.abs(amps) ** 2
    return sq[..., 0, :] + sq[..., 1, :]


def site_probabilities_into(amps: np.ndarray, out: np.ndarray, window: slice) -> None:
    """Write :func:`site_probabilities` of ``amps`` into ``out`` on ``window``; ``amps`` vanishes outside it."""
    sq = np.abs(amps[..., window])
    np.square(sq, out=sq)
    np.add(sq[..., 0, :], sq[..., 1, :], out=out[..., window])


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

    A step of w moves reaches w sites, so probe (r, c), coin c on the sites
    x ≡ r (mod 2w+1), reaches each site from one x at most, by the operations
    a basis state at x takes: its image at x + m is band m at x.
    """
    n, reach = 2 * spec.half_width + 1, len(STEP_MOVES[spec.walk_kind])
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
    return _probed(spec, _coins(spec))
