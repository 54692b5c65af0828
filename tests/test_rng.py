"""Stream derivation: determinism, independence, cell hashing."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from lorentzlab.rng import (HashStream, _each, mix_key, philox_uniforms,
                            rng_stream, rng_streams, splitmix64)
from lorentzlab.scattering import deflection_angle


class TestRngStream:
    def test_same_inputs_same_stream(self):
        a = rng_stream(12345, 7).random(1000)
        b = rng_stream(12345, 7).random(1000)
        assert np.array_equal(a, b)

    def test_different_indices_differ(self):
        a = rng_stream(12345, 0).random(1000)
        b = rng_stream(12345, 1).random(1000)
        assert not np.array_equal(a, b)

    def test_different_master_seeds_differ(self):
        a = rng_stream(1, 0).random(1000)
        b = rng_stream(2, 0).random(1000)
        assert not np.array_equal(a, b)

    def test_streams_uncorrelated(self):
        n = 1_000_000
        a = rng_stream(9, 0).random(n)
        b = rng_stream(9, 1).random(n)
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 3.0 / math.sqrt(n)


class TestRngStreams:
    """One re-keyed Generator gives each rng_stream's draws in turn."""

    @settings(max_examples=30)
    @given(seed=st.integers(-2**70, 2**70),
           index=st.lists(st.integers(0, 2**40), max_size=6))
    def test_equals_rng_stream(self, seed, index):
        got = [(g.random(), *g.standard_normal(2), g.integers(0, 2**31))
               for g in rng_streams(seed, index)]
        want = []
        for i in index:
            g = rng_stream(seed, i)
            want.append((g.random(), *g.standard_normal(2),
                         g.integers(0, 2**31)))
        assert got == want

    def test_a_stream_that_stopped_mid_block(self):
        # the next stream does not continue the last one's buffered words
        a, b = (g.random(3).tolist() for g in rng_streams(5, [0, 0]))
        assert a == b == rng_stream(5, 0).random(3).tolist()


class TestPhiloxUniforms:
    """The numpy port of Philox4x64-10 gives rng_stream's draws bit for
    bit, for many streams at once and from any draw on."""

    @settings(max_examples=80)
    @given(seed=st.integers(-2**70, 2**70),
           index=st.lists(st.integers(0, 2**40), min_size=1, max_size=4),
           n=st.one_of(st.integers(1, 9), st.just(400)),
           at=st.integers(0, 13))
    def test_equals_rng_stream(self, seed, index, n, at):
        got = philox_uniforms(seed, np.array(index), n, at=at)
        assert got.shape == (len(index), n)
        for row, i in zip(got, index):
            assert np.array_equal(row, rng_stream(seed, i).random(at + n)[at:])

    def test_continuation_joins_the_stream(self):
        index = np.arange(100, 140)
        head = philox_uniforms(3, index, 6)
        tail = philox_uniforms(3, index, 10, at=6)
        assert np.array_equal(np.hstack((head, tail)),
                              philox_uniforms(3, index, 16))

    def test_no_indices(self):
        assert philox_uniforms(1, np.array([], dtype=np.int64), 5).shape == (0, 5)


class TestEach:
    """``_each`` is a Python loop over ``math``, bit for bit."""

    def test_a_float_column_applies_to_every_element(self):
        x = 2.0 * rng_stream(3, 0).random(200) - 1.0
        assert _each(pow, x, 2.0).tolist() == [pow(v, 2.0)
                                               for v in x.tolist()]
        assert _each(deflection_angle, x, 0.7).tolist() == [
            deflection_angle(v, 0.7) for v in x.tolist()]

    def test_a_2d_column_keeps_its_shape_and_row_major_order(self):
        # strided and transposed views, as the jump sampler passes them
        g = rng_stream(3, 1)
        x, y = g.random((4, 10))[:, ::2], g.random((5, 4)).T
        got = _each(math.hypot, x, y)
        assert got.shape == (4, 5)
        assert got.tolist() == [[math.hypot(a, b) for a, b in zip(r, s)]
                                for r, s in zip(x.tolist(), y.tolist())]

    def test_empty_column(self):
        got = _each(math.cos, np.zeros((0, 3)))
        assert got.shape == (0, 3)


class TestHashStream:
    def test_keyed_determinism(self):
        s1 = HashStream(3, 5, 7)
        s2 = HashStream(3, 5, 7)
        assert [s1.uniform() for _ in range(50)] == [s2.uniform() for _ in range(50)]

    def test_uniform_range_and_mean(self):
        s = HashStream(11)
        draws = np.array([s.uniform() for _ in range(50_000)])
        assert draws.min() >= 0.0 and draws.max() < 1.0
        assert abs(draws.mean() - 0.5) < 3.0 * draws.std() / math.sqrt(draws.size)

    def test_poisson_moments(self):
        s = HashStream(13)
        lam = 2.5
        counts = np.array([s.poisson(lam) for _ in range(40_000)])
        assert abs(counts.mean() - lam) < 3.0 * counts.std() / math.sqrt(counts.size)
        assert abs(counts.var() - lam) < 0.1

    def test_poisson_large_mean_split(self):
        s = HashStream(17)
        counts = np.array([s.poisson(200.0) for _ in range(3000)])
        assert abs(counts.mean() - 200.0) < 3.0 * counts.std() / math.sqrt(counts.size)

    def test_poisson_zero(self):
        assert HashStream(1).poisson(0.0) == 0

    def test_mix_key_order_sensitive(self):
        assert mix_key(1, 2) != mix_key(2, 1)
        assert splitmix64(0) != splitmix64(1)
