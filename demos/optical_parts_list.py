"""Compile a split-step walk into five optical elements and certify the train.

The split-step unitary with coins C1, C2 factors into, in the order the
photon meets them:

    1. a variable waveplate   exp(-i*(pi-beta)*s3/2)
    2. a J-plate              left OAM shift on axes rotated by alpha
    3. a variable waveplate   exp(+i*(pi-beta+gamma3)*s3/2)
    4. a half-waveplate       fast axis at gamma2/4
    5. a J-plate              right OAM shift, constant phases +-(gamma1+pi)/2

where (alpha, beta) come from the first column of C1† and the gammas are the
Euler angles of C2·C1.  The script certifies the train against the dense
step operator, then builds the train again with gamma2 in the final plate's
constants - a mix-up the printed recipe invites - and shows verification
catch it.
"""

import dataclasses
import math

import numpy as np

from oamwalk import JPlate, compile_pdc, compile_ssqw, euler_decompose, su2_normalize, verify
from oamwalk.walk import CoinParams, CoinTable, coin_matrix, split_step_operator


def describe(cs):
    for order, (element, why) in enumerate(zip(cs.elements, cs.provenance)):
        print(f"  {order}. {element}")
        print(f"       {why}")
    print(f"  predicted global phase: {cs.phase:+.6f} rad")


def main():
    half_width = 12
    c1, c2 = coin_matrix(0.7), coin_matrix(-0.35)
    reference = split_step_operator(c1, c2, half_width)

    train = compile_ssqw(c1, c2)
    print("compiled split-step train (application order):")
    describe(train)

    report = verify(train, reference)
    print(f"\nverification: passed={report.passed}, fidelity={report.fidelity:.15f}, "
          f"measured phase={report.phase:+.6f} rad")
    for note in train.notes:
        print(f"  note: {note}")

    split = 0.5 * (euler_decompose(su2_normalize(c2)[0] @ su2_normalize(c1)[0]).gamma2 + math.pi)
    wrong = dataclasses.replace(train, elements=train.elements[:-1] + (JPlate(0, split, +1, -split, 0.0),))
    bad = verify(wrong, reference)
    print(f"\nwith gamma2 in the final plate: passed={bad.passed}, fidelity={bad.fidelity:.6f}")

    print("\nper-site plates for a position-dependent coin (first three sites):")
    rng = np.random.default_rng(8)
    table = CoinTable.random_disorder(half_width, rng)
    block = compile_pdc(table)
    for x in range(-half_width, -half_width + 3):
        q2, q1 = block.plates(x)
        print(f"  x={x:+3d}: Q2=J({q2[0]:+.3f},{q2[1]:+.3f},{q2[2]:+.3f})  "
              f"Q1=J({q1[0]:+.3f},{q1[1]:+.3f},{q1[2]:+.3f})  + HWP(0)")
    site = -half_width
    err = np.max(np.abs(block.site_matrix(site) - _coin(table[site])))
    print(f"  pointwise factorization error at x={site}: {err:.2e}")


def _coin(params: CoinParams):
    from oamwalk import u2_matrix

    return u2_matrix(params)


if __name__ == "__main__":
    main()
