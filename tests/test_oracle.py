"""Tests for the next-use oracle."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.mem.oracle import NEVER, NextUseOracle


class TestNextUse:
    def test_basic_chain(self):
        oracle = NextUseOracle([5, 6, 5, 7, 5])
        assert oracle.next_use_at(0) == 2
        assert oracle.next_use_at(2) == 4
        assert oracle.next_use_at(4) == NEVER
        assert oracle.next_use_at(1) == NEVER

    def test_next_use_of_arbitrary_time(self):
        oracle = NextUseOracle([5, 6, 5, 7, 5])
        assert oracle.next_use_of(5, 0) == 2
        assert oracle.next_use_of(5, 2) == 4
        assert oracle.next_use_of(5, 4) == NEVER
        assert oracle.next_use_of(99, 0) == NEVER

    def test_reuse_distance_after(self):
        oracle = NextUseOracle([1, 2, 1])
        assert oracle.reuse_distance_after(0) == 2
        assert oracle.reuse_distance_after(1) == NEVER

    @given(st.lists(st.integers(min_value=0, max_value=12), max_size=120))
    def test_matches_bruteforce(self, blocks):
        oracle = NextUseOracle(blocks)
        for t, block in enumerate(blocks):
            expected = NEVER
            for j in range(t + 1, len(blocks)):
                if blocks[j] == block:
                    expected = j
                    break
            assert oracle.next_use_at(t) == expected
            assert oracle.next_use_of(block, t) == expected

    @given(
        st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=60),
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=-1, max_value=60),
    )
    def test_next_use_of_bruteforce_any_query(self, blocks, block, t):
        oracle = NextUseOracle(blocks)
        expected = NEVER
        for j in range(max(0, t + 1), len(blocks)):
            if blocks[j] == block:
                expected = j
                break
        assert oracle.next_use_of(block, t) == expected


class NaiveNextUseOracle(NextUseOracle):
    """The oracle built by two plain loops: the readable reference."""

    def __init__(self, blocks):
        blocks_arr = np.asarray(blocks, dtype=np.int64)
        n = len(blocks_arr)
        self.length = n
        next_use = np.full(n, NEVER, dtype=np.int64)
        last_seen = {}
        # Backward pass: next_use[t] = the index of the following access.
        for t in range(n - 1, -1, -1):
            block = int(blocks_arr[t])
            seen = last_seen.get(block)
            if seen is not None:
                next_use[t] = seen
            last_seen[block] = t
        self._next_use = next_use
        positions = {}
        for t, block in enumerate(blocks_arr.tolist()):
            positions.setdefault(block, []).append(t)
        self._positions = positions


def _sequences():
    """Random block sequences with small alphabets and long runs."""
    rng = np.random.RandomState(7)
    yield []
    yield [42]
    yield [3, 3, 3, 3]
    for alphabet in (1, 2, 5, 40):
        for _ in range(3):
            runs = rng.randint(0, alphabet, size=rng.randint(1, 60))
            lengths = rng.geometric(0.3, size=len(runs))
            yield np.repeat(runs, lengths).tolist()
    # Large, sparse block ids, as real traces carry.
    yield (rng.randint(0, 30, size=500) * 1_000_003 + (1 << 40)).tolist()


class TestVectorisedMatchesNaive:
    @pytest.mark.parametrize("blocks", list(_sequences()), ids=lambda b: f"n{len(b)}")
    def test_structures_and_queries(self, blocks):
        fast, naive = NextUseOracle(blocks), NaiveNextUseOracle(blocks)
        n = len(blocks)
        assert fast.length == naive.length == n
        assert fast._next_use.dtype == naive._next_use.dtype
        assert np.array_equal(fast._next_use, naive._next_use)
        assert fast._positions == naive._positions
        assert all(type(b) is int for b in fast._positions)
        assert all(
            type(t) is int for pos in fast._positions.values() for t in pos
        )
        for t in range(n):
            assert fast.next_use_at(t) == naive.next_use_at(t)
            assert fast.reuse_distance_after(t) == naive.reuse_distance_after(t)
        for t in (n, n + 5):
            with pytest.raises(IndexError):
                fast.next_use_at(t)
        absent = max(blocks, default=0) + 1
        for block in sorted(set(blocks)) + [absent, -1]:
            for t in range(-2, n + 3):
                assert fast.next_use_of(block, t) == naive.next_use_of(block, t)
