"""Optical trains the tests build on purpose, shared by the test modules and the acceptance gate.

Not collected by pytest; import it as ``trains``, as the tests import ``conftest``.
"""

import dataclasses
import math

from oamwalk.compiler import compile_ssqw, euler_decompose, su2_normalize
from oamwalk.optics import JPlate


def gamma2_variant(c1, c2):
    """The plausible but wrong split-step train, whose final J-plate splits the middle Euler angle of C2 C1."""
    right = compile_ssqw(c1, c2)
    s = 0.5 * (euler_decompose(su2_normalize(c2)[0] @ su2_normalize(c1)[0]).gamma2 + math.pi)
    return dataclasses.replace(right, elements=right.elements[:-1] + (JPlate(0, s, +1, -s, 0.0),))
