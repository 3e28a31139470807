"""sosage's SeedSequence keys and Philox words against numpy's, and Stream's
draws against numpy's own Generator on the same words."""

from __future__ import annotations

import zlib

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from sosage.rng import LANES, Philox, Stream, seed_sequence_key, substream

from support import numpy_blocks, philox_words


def pair(kind, key):
    """A Stream and a numpy Generator, each on its own copy of one bit generator."""
    bits = np.random.Philox if kind == "philox" else np.random.PCG64
    return Stream(numpy_blocks(bits(key))), np.random.Generator(bits(key))


# 2**31 + 1 rejects about half its draws; 1 takes no draw; 2**32 takes a
# 32-bit draw as it is
HIGHS = st.one_of(
    st.sampled_from([1, 2, 3, 2 ** 31 + 1, 2 ** 32 - 1, 2 ** 32]),
    st.integers(1, 2 ** 32),
)
# masks up to 17 bits; the long ones are drawn rarely, for time
SHORT = st.integers(0, 40)
PERMUTATIONS = st.one_of(SHORT, SHORT, SHORT, SHORT, st.sampled_from([65536, 65537, 70000]))
# numpy takes Floyd's algorithm unless n > 10000 and k > n // 50, where it
# shuffles and Stream.sample refuses; these shapes stay in Floyd's region
FLOYD = st.integers(0, 60).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n)))
LARGE = st.sampled_from(
    [(10000, k) for k in (1, 200, 201, 7500, 10000)] + [(n, k) for n in (10001, 10500) for k in (1, n // 50)]
)
FLOATS = st.floats(-1e6, 1e6)
DRAWS = st.lists(
    st.one_of(
        st.tuples(st.just("random")),
        st.tuples(st.just("uniform"), FLOATS, FLOATS).map(lambda d: (d[0], min(d[1:]), max(d[1:]))),
        st.tuples(st.just("normal"), FLOATS, st.floats(0.0, 1e3)),
        st.tuples(st.just("integers"), HIGHS),
        st.tuples(st.just("permutation"), PERMUTATIONS),
        st.one_of(FLOYD, FLOYD, FLOYD, LARGE).map(lambda shape: ("sample", *shape)),
    ),
    max_size=8,
)


def draw_numpys(gen, name, *args):
    if name == "sample":
        return gen.choice(*args, replace=False).tolist()
    if name == "permutation":
        return gen.permutation(*args).tolist()
    if name == "integers":
        return int(gen.integers(*args))
    return getattr(gen, name)(*args)


class TestStreamEqualsGenerator:
    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(["philox", "pcg64"]), key=st.integers(0, 2 ** 64 - 1), draws=DRAWS)
    def test_any_interleaving_of_draws(self, kind, key, draws):
        ours, numpys = pair(kind, key)
        for name, *args in draws:
            assert getattr(ours, name)(*args) == draw_numpys(numpys, name, *args), name
            event(name)
        # the 32-bit half-word and the word buffer end where numpy's do
        assert ours.integers(2 ** 31 + 1) == numpys.integers(2 ** 31 + 1)
        assert ours.random() == numpys.random()

    def test_a_long_run_crosses_many_word_blocks(self):
        ours, numpys = pair("philox", 5)
        assert [ours.random() for _ in range(1000)] == numpys.random(1000).tolist()
        assert ours.permutation(5000) == numpys.permutation(5000).tolist()

    def test_every_ziggurat_layer_and_both_slow_paths(self):
        """Every normal draw equals numpy's. `normal` takes each attempt's
        word from `_word` and the slow paths' uniforms from `random`, which
        takes its own word from `_word`; so a recording subclass that skips
        the words `random` takes sees which layer and path each attempt took."""

        class Recording(Stream):
            __slots__ = ("layers", "layer", "tail", "wedge", "in_random")

            def _word(self):
                word = super()._word()
                if not self.in_random:
                    self.layer = word & 0xFF
                    self.layers.add(self.layer)
                return word

            def random(self):
                if self.layer == 0:
                    self.tail += 1
                else:
                    self.wedge += 1
                self.in_random = True
                u = super().random()
                self.in_random = False
                return u

        ours = Recording(numpy_blocks(np.random.Philox(20)))
        ours.layers, ours.layer, ours.tail, ours.wedge, ours.in_random = set(), None, 0, 0, False
        numpys = np.random.Generator(np.random.Philox(20))
        n = 50_000
        assert [ours.normal(0.25, 2.0) for _ in range(n)] == numpys.normal(0.25, 2.0, size=n).tolist()
        assert ours.layers == set(range(256))
        assert ours.tail >= 2 and ours.wedge >= 2

    def test_a_zero_range_takes_no_draw(self):
        ours, untouched = substream(1, "edge"), substream(1, "edge")
        assert ours.integers(1) == 0
        assert ours.random() == untouched.random()

    @pytest.mark.parametrize("high", [0, -1, 2 ** 32 + 1])
    def test_a_high_outside_32_bits_is_refused(self, high):
        with pytest.raises(ValueError):
            substream(1, "edge").integers(high)


# seeds and generations of one 32-bit word and of two: a key of more than
# four words takes SeedSequence's extra mixing loop
WORD64 = st.one_of(st.integers(0, 2 ** 32 - 1), st.integers(2 ** 32, 2 ** 64 - 1))
# three blocks and then some, so the words cross three block boundaries
WORDS = 3 * 4 * LANES + 5


class TestPhiloxEqualsNumpy:
    """The digests rest on numpy's SeedSequence, which turns a substream key
    into a Philox key, and on Philox4x64-10's words. sosage computes both
    itself; numpy and a one-counter-at-a-time copy of Philox are the oracles."""

    @settings(max_examples=200, deadline=None)
    @given(seed=WORD64, phase=st.sampled_from(["init", "assemble", "evolve"]), generation=WORD64)
    def test_substream_keys_and_words(self, seed, phase, generation):
        key = [seed, zlib.crc32(phase.encode("utf-8")), generation, 0]
        event(f"{(seed >= 2 ** 32) + (generation >= 2 ** 32)} two-word ints")
        state = seed_sequence_key(key)
        assert list(state) == np.random.SeedSequence(key).generate_state(2, np.uint64).tolist()
        want = np.random.Philox(np.random.SeedSequence(key)).random_raw(WORDS).tolist()
        blocks = Philox(*state)
        words = [word for _ in range(3) for word in blocks()]
        assert words == want[: len(words)]
        assert philox_words(list(state), WORDS) == want
        ours = substream(seed, phase, generation)
        assert [ours._word() for _ in range(WORDS)] == want

    @settings(max_examples=200, deadline=None)
    @given(entropy=st.lists(st.integers(0, 2 ** 160), min_size=1, max_size=6))
    def test_keys_of_any_entropy(self, entropy):
        want = np.random.SeedSequence(entropy).generate_state(2, np.uint64).tolist()
        assert list(seed_sequence_key(entropy)) == want

    @pytest.mark.parametrize("key", [(0, 0), (2 ** 64 - 1, 2 ** 64 - 1)])
    def test_the_extreme_keys(self, key):
        blocks = Philox(*key)
        assert blocks() + blocks() == philox_words(list(key), 8 * LANES)


class TestPinnedSubstreams:
    """Draws written out, so no numpy Generator is needed to check them."""

    def test_evolve_45_of_seed_7(self):
        s = substream(7, "evolve", 45)
        assert [s.random() for _ in range(3)] == [0.9078456068438318, 0.29640233838436647, 0.4664988989177019]
        assert s.integers(6) == 1
        assert s.normal(0.0, 0.5) == -0.26515477404568627
        assert s.integers(6) == 3
        assert s.random() == 0.12328340436984153

    def test_assemble_3_of_seed_0(self):
        s = substream(0, "assemble", 3)
        assert s.permutation(24) == [
            22, 11, 4, 5, 15, 7, 8, 1, 18, 0, 23, 17, 10, 20, 3, 14, 21, 2, 13, 9, 19, 12, 6, 16
        ]
        assert s.sample(24, 3) == [12, 9, 4]
        assert s.sample(24, 3) == [21, 23, 8]
        assert s.random() == 0.05215928936491765


class TestSamplesWithoutReplacement:
    @pytest.mark.parametrize("n", [10000, 10001])
    @pytest.mark.parametrize("k", [1, 200, 201, 202, 9999, 10000])
    def test_the_branch_boundary(self, n, k):
        ours, numpys = pair("philox", 3)
        if n == 10001 and k > 200:  # numpy's shuffle region: refused, no draw taken
            with pytest.raises(ValueError):
                ours.sample(n, k)
            assert ours.random() == numpys.random()
            return
        want = [numpys.choice(n, k, replace=False).tolist() for _ in range(2)]
        assert [ours.sample(n, k) for _ in range(2)] == want
        assert ours.random() == numpys.random()

    @pytest.mark.parametrize("shapes", [[], [(0, 0)], [(1, 1)], [(1, 1), (5, 0), (1, 1)]])
    def test_no_draw_without_a_nonzero_bound(self, shapes):
        ours, untouched = substream(1, "edge"), substream(1, "edge")
        assert [ours.sample(n, k) for n, k in shapes] == [list(range(k)) for _, k in shapes]
        assert ours.random() == untouched.random()

    def test_a_larger_sample_than_the_population_is_refused(self):
        for shape in [(2, 3), (0, 1)]:
            with pytest.raises(ValueError):
                substream(1, "edge").sample(*shape)

    def test_a_population_beyond_32_bits_is_refused(self):
        with pytest.raises(ValueError):
            substream(1, "edge").sample(2 ** 32 + 1, 1)
