"""1-D quantum walks on a polarization-OAM lattice, with a certified optical compiler.

The package has four layers:

- :mod:`oamwalk.walk` - walker states on a truncated integer lattice and the
  plain, split-step, position-dependent-coin, and electric walk evolutions,
  one step kernel reading each kind's moves from ``STEP_MOVES``; the dense
  step operator is read from comb probes of that kernel;
- :mod:`oamwalk.optics` - Jones calculus for J-plates and waveplates, their
  bands and lifts to coin ⊗ lattice operators, and equality up to a phase;
- :mod:`oamwalk.compiler` - recipes turning the step of any walk kind into
  ordered element trains, plus verification of every train against the dense
  step operator, so a certificate speaks about the walk that is simulated;
- :mod:`oamwalk.continuum` - the transport/mass continuum model of the
  split-step walk and its refinement diagnostic on Gaussian packets.

:mod:`oamwalk.cli` wraps everything in a reproducible batch front-end.
"""

from .compiler import (
    ColumnParams,
    CompiledStep,
    EulerAngles,
    PdcBlock,
    VerificationReport,
    column_params,
    compile_generalized,
    compile_pdc,
    compile_ssqw,
    euler_decompose,
    euler_recompose,
    su2_normalize,
    verify,
)
from .continuum import WavepacketSpec, continuum_residual, dirac_rhs, gaussian_state
from .optics import (
    HalfWavePlate,
    JPlate,
    VariableWavePlate,
    compose,
    equal_up_to_phase,
    jplate_pointwise,
    lift,
)
from .walk import (
    GUARD,
    SYMMETRIC_COIN,
    CoinParams,
    CoinTable,
    LatticeGuardError,
    WalkSpec,
    WalkerState,
    coin_matrix,
    evolve,
    make_state,
    moments,
    probability,
    spread,
    step,
    step_operator,
    u2_matrix,
)

__version__ = "0.1.0"
