import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import check_record
from tspbench.errors import CapacityError, ValidationError
from tspbench.permutation import (
    MAX_FACTORIAL_N,
    WorkRange,
    factorial,
    next_permutation,
    partition,
    rank,
    unrank,
)


class TestFactorial:
    def test_base_cases(self):
        assert factorial(0) == 1
        assert factorial(1) == 1
        assert factorial(5) == 120

    def test_against_iterative_product(self):
        # oracle: plain running product 1*2*...*n
        product = 1
        for n in range(1, MAX_FACTORIAL_N + 1):
            product *= n
            assert factorial(n) == product
        assert factorial(16) == 20922789888000

    def test_ratio_property(self):
        for n in range(1, MAX_FACTORIAL_N + 1):
            assert factorial(n) // factorial(n - 1) == n

    def test_fits_128_bits(self):
        assert factorial(MAX_FACTORIAL_N) < 2**128

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            factorial(MAX_FACTORIAL_N + 1)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            factorial(-1)


class TestNextPermutation:
    def test_adjacent_swap(self):
        seq = [1, 2, 3]
        assert next_permutation(seq) is True
        assert seq == [1, 3, 2]

    def test_wraparound(self):
        seq = [3, 2, 1]
        assert next_permutation(seq) is False
        assert seq == [1, 2, 3]

    def test_derived_successor(self):
        # oracle: position in the sorted enumeration of all 6 permutations
        seq = [2, 3, 1]
        assert next_permutation(seq) is True
        assert seq == [3, 1, 2]

    def test_single_element(self):
        seq = [7]
        assert next_permutation(seq) is False
        assert seq == [7]

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            next_permutation([])

    @pytest.mark.parametrize("k", range(2, 8))
    def test_enumerates_everything_in_order(self, k):
        # starting from sorted order, repeated calls must visit all k!
        # permutations in exactly the order itertools.permutations yields
        expected = list(itertools.permutations(range(k)))
        seq = list(range(k))
        seen = [tuple(seq)]
        while next_permutation(seq):
            seen.append(tuple(seq))
        assert seen == expected
        assert seq == list(range(k))  # wrapped back to first


class TestUnrankRank:
    def test_first_and_last(self):
        assert unrank(0, [1, 2, 3]) == [1, 2, 3]
        assert unrank(5, [1, 2, 3]) == [3, 2, 1]

    def test_derived_example(self):
        # oracle: sorted(itertools.permutations([1,2,3]))[3] == (2,3,1)
        assert unrank(3, [1, 2, 3]) == [2, 3, 1]

    def test_rank_examples(self):
        assert rank([1, 2, 3]) == 0
        assert rank([3, 2, 1]) == 5
        assert rank([2, 3, 1]) == 3

    @pytest.mark.parametrize("k", range(1, 8))
    def test_round_trip_exhaustive(self, k):
        labels = list(range(1, k + 1))
        for perm in itertools.permutations(labels):
            assert tuple(unrank(rank(list(perm)), labels)) == perm

    @pytest.mark.parametrize("k", range(1, 7))
    def test_matches_lexicographic_enumeration(self, k):
        labels = list(range(1, k + 1))
        expected = sorted(itertools.permutations(labels))
        for index, perm in enumerate(expected):
            assert tuple(unrank(index, labels)) == perm

    @pytest.mark.parametrize("k", range(2, 7))
    def test_successor_consistency(self, k):
        labels = list(range(k))
        for index in range(factorial(k) - 1):
            seq = unrank(index, labels)
            assert next_permutation(seq) is True
            assert seq == unrank(index + 1, labels)

    def test_unrank_out_of_range(self):
        with pytest.raises(ValidationError):
            unrank(6, [1, 2, 3])
        with pytest.raises(ValidationError):
            unrank(-1, [1, 2, 3])

    def test_unrank_requires_sorted_distinct(self):
        with pytest.raises(ValidationError):
            unrank(0, [2, 1, 3])
        with pytest.raises(ValidationError):
            unrank(0, [1, 1, 2])

    def test_rank_rejects_duplicates(self):
        with pytest.raises(ValidationError):
            rank([1, 1, 2])

    def test_arbitrary_labels(self):
        labels = ["a", "c", "f", "z"]
        for index, perm in enumerate(sorted(itertools.permutations(labels))):
            assert tuple(unrank(index, labels)) == perm


class TestWorkRange:
    def test_count(self):
        assert WorkRange(3, 10).count == 7
        assert WorkRange(4, 4).count == 0

    def test_invalid(self):
        with pytest.raises(ValidationError):
            WorkRange(5, 3)
        with pytest.raises(ValidationError):
            WorkRange(-1, 2)

    @pytest.mark.parametrize("start,end", [(5, 3), (-1, 2), (-2, -3)])
    def test_error_text(self, start, end):
        with pytest.raises(ValidationError, match=rf"^invalid work range \[{start}, {end}\)$"):
            WorkRange(start, end)

    def test_record_behaviour(self):
        assert repr(WorkRange(0, 3)) == "WorkRange(start=0, end=3)"
        check_record(
            WorkRange(4242, 5000), {"start": 4242, "end": 5000},
            "WorkRange(start=4242, end=5000)", {"end": 4241},
        )


def _check_partition(total, workers, ranges):
    assert len(ranges) == workers
    # contiguous, in order, covering [0, total)
    assert ranges[0].start == 0
    assert ranges[-1].end == total
    for a, b in zip(ranges, ranges[1:]):
        assert a.end == b.start
    sizes = [r.count for r in ranges]
    q, r = divmod(total, workers)
    assert sizes == [q + 1] * r + [q] * (workers - r)


class TestPartition:
    def test_trivial_examples(self):
        assert [(r.start, r.end) for r in partition(6, 4)] == [(0, 2), (2, 4), (4, 5), (5, 6)]
        assert [(r.start, r.end) for r in partition(6, 1)] == [(0, 6)]

    def test_derived_example(self):
        # oracle: q, r = divmod(24, 5) = (4, 4)
        assert [(r.start, r.end) for r in partition(24, 5)] == [
            (0, 5), (5, 10), (10, 15), (15, 20), (20, 24),
        ]

    def test_more_workers_than_work(self):
        ranges = partition(2, 5)
        _check_partition(2, 5, ranges)
        assert [r.count for r in ranges] == [1, 1, 0, 0, 0]

    def test_zero_workers_rejected(self):
        with pytest.raises(ValidationError):
            partition(10, 0)

    def test_exhaustive_small(self):
        for total in range(101):
            for workers in range(1, 11):
                _check_partition(total, workers, partition(total, workers))

    def test_sampled_grid_up_to_ten_factorial(self):
        rng = random.Random(20240817)
        totals = [0, 1, 2, 99, 5040, 40320, 362880, 3628800]
        totals += [rng.randrange(3628801) for _ in range(40)]
        workers_set = list(range(1, 65))
        for total in totals:
            for workers in workers_set:
                _check_partition(total, workers, partition(total, workers))

    @given(total=st.integers(min_value=0, max_value=3628800), workers=st.integers(min_value=1, max_value=64))
    @settings(max_examples=300)
    def test_property(self, total, workers):
        _check_partition(total, workers, partition(total, workers))

    def test_huge_totals_exact(self):
        # indices beyond 64 bits must still partition exactly
        total = factorial(26)  # ~4e26
        ranges = partition(total, 7)
        _check_partition(total, 7, ranges)
