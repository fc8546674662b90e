"""Property-based tests over random inputs drawn by hypothesis."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oamwalk import walk


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 5), half_width=st.integers(1, 40))
def test_batched_site_coin_equals_single_applications(seed, count, half_width):
    """A per-site coin on (S, 2, n) equals S one-walk applications, bit for bit.

    The tables are general U(2) coins with all four angle columns nonzero, so
    the complex products have nonzero imaginary parts on both sides.
    """
    rng = np.random.default_rng(seed)
    n = 2 * half_width + 1
    tables = [walk.CoinTable(-half_width, *rng.uniform(0.1, 3.0, (4, n)) * rng.choice([-1, 1], (4, n)))
              for _ in range(count)]
    amps = rng.normal(size=(count, 2, n)) + 1j * rng.normal(size=(count, 2, n))
    batched = walk._coin(amps, np.stack([walk._site_coefficients(t) for t in tables]))
    for s, t in enumerate(tables):
        single = walk.apply_coin(walk.WalkerState(-half_width, amps[s]), t).amps
        assert np.array_equal(batched[s], single)
        # the per-site einsum form earlier releases used, and that recorded outputs rest on
        assert np.array_equal(single, np.einsum("xij,jx->ix", t.matrices(), amps[s]))
