import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclesplit.patterns import (
    find_decreasing_triple,
    find_increasing_triple,
    find_interleaved_pair,
    iter_interleaved_pairs,
)

from conftest import (
    brute_decreasing_triple,
    brute_increasing_triple,
    brute_interleaved_pair,
)


class TestIncreasingTriple:
    def test_identity_chain(self):
        assert find_increasing_triple([(0, 0), (1, 1), (2, 2)]) is not None

    def test_strictly_decreasing(self):
        assert find_increasing_triple([(0, 2), (1, 1), (2, 0)]) is None

    def test_ties_do_not_chain(self):
        assert find_increasing_triple([(0, 0), (0, 1), (0, 2), (1, 3)]) is None
        assert find_increasing_triple([(0, 0), (1, 0), (2, 0), (3, 1)]) is None

    def test_chain_is_valid(self):
        pairs = [(5, 1), (0, 0), (2, 4), (1, 2), (9, 9)]
        t = find_increasing_triple(pairs)
        a, b, c = (pairs[i] for i in t)
        assert a[0] < b[0] < c[0] and a[1] < b[1] < c[1]


class TestDecreasingTriple:
    def test_antichain(self):
        assert find_decreasing_triple([(0, 2), (1, 1), (2, 0)]) == (0, 1, 2)

    def test_increasing_input(self):
        assert find_decreasing_triple([(0, 0), (1, 1), (2, 2)]) is None


class TestInterleavedPair:
    def test_minimal(self):
        assert find_interleaved_pair([(0, 2), (1, 3)]) == (0, 1)

    def test_nested_and_disjoint(self):
        assert find_interleaved_pair([(0, 1), (2, 3)]) is None
        assert find_interleaved_pair([(0, 5), (1, 3)]) is None

    def test_sweep_order(self):
        chords = [(0, 3), (1, 4), (2, 5)]
        assert list(iter_interleaved_pairs(chords)) == [(0, 1), (0, 2), (1, 2)]

    @pytest.mark.parametrize("chord", [(3, 1), (2, 2)])
    def test_unnormalised_chord_rejected(self, chord):
        h, j = chord
        message = rf"^chord \({h}, {j}\) not normalized \(need h < j\)$"
        with pytest.raises(ValueError, match=message):
            list(iter_interleaved_pairs([(0, 4), chord]))

    def test_pair_is_valid(self):
        chords = [(3, 9), (0, 5), (6, 11), (1, 2)]
        got = find_interleaved_pair(chords)
        h, j = chords[got[0]]
        i, m = chords[got[1]]
        assert h < i < j < m


def _random_pairs(rnd, size, span=60):
    return [(rnd.randrange(span), rnd.randrange(span)) for _ in range(size)]


@settings(max_examples=200)
@given(st.integers(0, 40), st.random_module())
def test_triples_match_brute_force(size, rnd):
    pairs = _random_pairs(random.Random(rnd.seed), size)
    fast = find_increasing_triple(pairs)
    assert (fast is None) == (brute_increasing_triple(pairs) is None)
    if fast is not None:
        a, b, c = (pairs[i] for i in fast)
        assert a[0] < b[0] < c[0] and a[1] < b[1] < c[1]
    fastd = find_decreasing_triple(pairs)
    assert (fastd is None) == (brute_decreasing_triple(pairs) is None)
    if fastd is not None:
        a, b, c = (pairs[i] for i in fastd)
        assert a[0] < b[0] < c[0] and a[1] > b[1] > c[1]


@settings(max_examples=200)
@given(st.integers(0, 30), st.random_module())
def test_interleaving_matches_brute_force(size, rnd):
    rng = random.Random(rnd.seed)
    chords = []
    for _ in range(size):
        a, b = rng.sample(range(40), 2)
        chords.append((min(a, b), max(a, b)))
    fast = find_interleaved_pair(chords)
    assert (fast is None) == (brute_interleaved_pair(chords) is None)
    if fast is not None:
        h, j = chords[fast[0]]
        i, m = chords[fast[1]]
        assert h < i < j < m
