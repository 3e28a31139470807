"""The without-replacement sampler against numpy's own Generator.choice."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from sosage.rng import SCALAR_DRAWS, _all_bounds, samples_without_replacement, substream


def generator(kind, key):
    if kind == "philox":
        return substream(key, "assemble", key % 97, key % 5)
    return np.random.default_rng(key)


def play(rng, draws):
    """Make the named draws in order and return what they gave."""
    out = []
    for name, size in draws:
        if name == "random":
            out.append(rng.random())
        elif name == "integers":
            out.append(int(rng.integers(size)))
        else:
            out.append(rng.permutation(size).tolist())
    return out


DRAWS = st.lists(
    st.tuples(st.sampled_from(["random", "integers", "permutation"]), st.integers(1, 40)),
    max_size=3,
)
# Floyd's algorithm below 10001; numpy shuffles the tail of range(n) once
# n > 10000 and k > n // 50, and 10000 / 10001 straddle that boundary
FLOYD = st.integers(0, 60).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n)))
LARGE = st.sampled_from([10000, 10001, 10500]).flatmap(
    lambda n: st.tuples(st.just(n), st.sampled_from([1, n // 50, n // 50 + 1, 3 * n // 4, n]))
)
SHAPES = st.lists(st.one_of(FLOYD, FLOYD, FLOYD, LARGE), max_size=5)


class TestSamplesWithoutReplacement:
    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(["philox", "pcg64"]),
        key=st.integers(0, 2 ** 64 - 1),
        shapes=SHAPES,
        before=DRAWS,
        after=DRAWS,
    )
    def test_equals_successive_choice_calls(self, kind, key, shapes, before, after):
        ours, numpys = generator(kind, key), generator(kind, key)
        assert play(ours, before) == play(numpys, before)
        want = [numpys.choice(n, k, replace=False).tolist() for n, k in shapes]
        assert samples_without_replacement(ours, shapes) == want
        assert play(ours, after) == play(numpys, after)
        event("tail shuffle" if any(n > 10000 and k > n // 50 for n, k in shapes) else "floyd only")
        event("scalar draws" if len(_all_bounds(tuple(shapes))) < SCALAR_DRAWS else "one integers call")

    @pytest.mark.parametrize("n", [10000, 10001])
    @pytest.mark.parametrize("k", [1, 200, 201, 202, 9999, 10000])
    def test_the_branch_boundary(self, n, k):
        ours, numpys = substream(3, "edge"), substream(3, "edge")
        want = [numpys.choice(n, k, replace=False).tolist() for _ in range(2)]
        assert samples_without_replacement(ours, [(n, k)] * 2) == want
        assert ours.random() == numpys.random()

    @pytest.mark.parametrize("shapes", [[], [(0, 0)], [(1, 1)], [(1, 1), (5, 0), (1, 1)]])
    def test_no_draw_without_a_nonzero_bound(self, shapes):
        ours, untouched = substream(1, "edge"), substream(1, "edge")
        assert samples_without_replacement(ours, shapes) == [list(range(k)) for _, k in shapes]
        assert ours.random() == untouched.random()

    def test_a_larger_sample_than_the_population_is_refused(self):
        with pytest.raises(ValueError):
            samples_without_replacement(substream(1, "edge"), [(2, 3)])
