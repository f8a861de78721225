"""The block stream kernel against numpy's own Generators, its oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bcsl.codec_sim import _STREAM_ENC, _STREAM_TRIAL
from bcsl.errors import CapabilityError, UsageError
from bcsl.streams import stream_draws


# bounds of `integers(0, k)`: k = 1 draws nothing, 2^32 takes a 32-bit word
# as it is, and 3 * 2^30 rejects a quarter of its draws
_STREAM_BOUNDS = (1, 3, 5, 7, 12, 2 ** 31 + 1, 3 * 2 ** 30, 3 * 2 ** 30,
                  2 ** 32)


def _numpy_draws(prefix, t, bounds, n):
    rng = np.random.default_rng([*prefix, t])
    return [int(rng.integers(0, k)) for k in bounds], rng.random(n)


def _check_stream_draws(prefix, ts, bounds, n):
    ints, u = stream_draws(prefix, np.array(ts, dtype=np.uint64), bounds, n)
    assert ints.shape == (len(ts), len(bounds)) and u.shape == (len(ts), n)
    for i, t in enumerate(ts):
        want_ints, want_u = _numpy_draws(prefix, t, bounds, n)
        assert ints[i].tolist() == want_ints, (prefix, t)
        assert u[i].tobytes() == want_u.tobytes(), (prefix, t)


class TestStreamDraws:
    """The block stream kernel against numpy's own Generators."""

    @pytest.mark.parametrize("seed", [0, 2 ** 32 - 1, 2 ** 32 + 5, 2 ** 70])
    @pytest.mark.parametrize("tag", [_STREAM_ENC, _STREAM_TRIAL])
    def test_matches_numpy(self, seed, tag):
        # counters on both sides of 2^32, where t takes a second word
        ts = [*range(40), 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1]
        for bounds in (_STREAM_BOUNDS, _STREAM_BOUNDS[::-1], (2, 1), ()):
            _check_stream_draws((seed, tag), ts, bounds, 5)

    @pytest.mark.parametrize("k", [0, 2 ** 32 + 1])
    def test_refuses_bounds_outside_32_bits(self, k):
        with pytest.raises(CapabilityError):
            stream_draws((0, _STREAM_TRIAL), np.arange(3), (2, k))

    def test_refuses_negative_keys(self):
        with pytest.raises(UsageError):
            stream_draws((-1, _STREAM_TRIAL), np.arange(3), (2,))
        with pytest.raises(UsageError):
            stream_draws((0, _STREAM_TRIAL), np.arange(-1, 2), (2,))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 80), tag=st.sampled_from([1, 2]),
       ts=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=6),
       bounds=st.lists(st.one_of(st.integers(1, 16),
                                 st.sampled_from(_STREAM_BOUNDS),
                                 st.integers(1, 2 ** 32)), max_size=6),
       n=st.integers(0, 5))
def test_stream_draws_match_numpy(seed, tag, ts, bounds, n):
    _check_stream_draws((seed, tag), ts, bounds, n)
