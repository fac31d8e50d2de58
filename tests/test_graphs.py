"""Graph metric: formula vs oracle, geodesics, and the interval characterization."""

import itertools
import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interlace import (
    InvalidInput,
    dist,
    dist_oracle_bfs,
    enumerate_tuples,
    geodesic_path,
    geodesic_step,
    is_adjacent,
    itup,
    walk_profile,
)
from interlace import graphs
from interlace.graphs import InterlacedTuple, TupleBox


def interval_count_distance(n, m):
    """Definitional oracle: sup over integer intervals of ||n cap S| - |m cap S||."""
    top = max(n.top, m.top)
    best = 0
    for a in range(1, top + 1):
        for b in range(a, top + 1):
            c = abs(
                sum(1 for e in n if a <= e <= b) - sum(1 for e in m if a <= e <= b)
            )
            best = max(best, c)
    return best


def tuples(k, max_entry=9):
    return st.builds(
        lambda s: InterlacedTuple(tuple(sorted(s))),
        st.sets(st.integers(1, max_entry), min_size=k, max_size=k),
    )


def tuple_pairs(max_k=4, max_entry=9):
    return st.integers(1, max_k).flatmap(
        lambda k: st.tuples(tuples(k, max_entry), tuples(k, max_entry))
    )


class TestConstruction:
    def test_rejects_duplicates(self):
        with pytest.raises(InvalidInput):
            InterlacedTuple((1, 1, 2))

    def test_rejects_unsorted(self):
        with pytest.raises(InvalidInput):
            InterlacedTuple((3, 2))

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInput):
            InterlacedTuple((0, 1))

    def test_rejects_empty(self):
        with pytest.raises(InvalidInput):
            InterlacedTuple(())

    @pytest.mark.parametrize(
        "entries, message",
        [
            ((1.5, 3), "entries must be integers: 1.5 at index 1"),
            ((1, 3.0), "entries must be integers: 3.0 at index 2"),
            ((True, 2), "entries must be integers: True at index 1"),
            (("3", "5"), "entries must be integers: '3' at index 1"),
            ((1, 2, None), "entries must be integers: None at index 3"),
        ],
    )
    def test_rejects_non_integers_instead_of_truncating(self, entries, message):
        with pytest.raises(InvalidInput) as info:
            InterlacedTuple(entries)
        assert str(info.value) == message

    def test_errors_name_the_first_bad_entry_only(self):
        ent = list(range(1, 20_002))
        ent[10_000] = 5
        with pytest.raises(InvalidInput) as info:
            InterlacedTuple(tuple(ent))
        assert str(info.value) == "entries must be strictly increasing: 5 at index 10001 follows 10000"
        with pytest.raises(InvalidInput) as info:
            InterlacedTuple((0, *range(1, 20_000)))
        assert str(info.value) == "entries must be positive: 0 at index 1"
        with pytest.raises(InvalidInput) as info:
            InterlacedTuple((1, *range(20_000), 3.5))
        assert str(info.value) == "entries must be integers: 3.5 at index 20002"

    def test_an_integer_too_long_to_print_is_invalid_input(self):
        # its repr would raise ValueError past sys.get_int_max_str_digits()
        huge = 10**5000
        cases = [
            ((huge, 1), "entries must be strictly increasing: 1 at index 2 follows "
                        "an integer too long to print"),
            ((1, huge, huge), "entries must be strictly increasing: an integer too long to "
                              "print at index 3 follows an integer too long to print"),
            ((-huge, 1), "entries must be positive: an integer too long to print at index 1"),
        ]
        for entries, message in cases:
            with pytest.raises(InvalidInput) as info:
                InterlacedTuple(entries)
            assert str(info.value) == message
        assert InterlacedTuple((1, huge)).top == huge

    def test_integer_types_become_plain_ints(self):
        import enum

        class Level(enum.IntEnum):
            LOW = 2
            HIGH = 7

        t = InterlacedTuple((Level.LOW, Level.HIGH))
        assert t.entries == (2, 7)
        assert all(type(v) is int for v in t.entries)
        assert InterlacedTuple([1, 4]).entries == (1, 4)


class TestAdjacency:
    def test_interlacing_pair(self):
        assert is_adjacent(itup(1, 3), itup(2, 4))

    def test_equal_tuples_not_adjacent(self):
        assert not is_adjacent(itup(1, 2), itup(1, 2))

    def test_disjoint_blocks_not_adjacent(self):
        n, m = itup(1, 2), itup(4, 5)
        assert not is_adjacent(n, m)
        assert dist_oracle_bfs(n, m) == 2

    def test_arity_mismatch(self):
        with pytest.raises(InvalidInput):
            is_adjacent(itup(1), itup(1, 2))

    def test_every_ordered_pair_over_a_small_box(self):
        def alternates(a, b):
            # the zipped sequence a_1, b_1, a_2, b_2, ..., a_k, b_k is sorted
            zipped = [v for pair in zip(a, b) for v in pair]
            return zipped == sorted(zipped)

        pairs = 0
        for k in range(1, 5):
            tuples = enumerate_tuples(range(1, 10), k)
            for n, m in itertools.product(tuples, repeat=2):
                a, b = n.entries, m.entries
                want = a != b and (alternates(a, b) or alternates(b, a))
                assert is_adjacent(n, m) == want, (n, m)
                pairs += 1
        assert pairs == 24_309


class TestWalkProfile:
    @settings(max_examples=100, deadline=None)
    @given(tuple_pairs())
    def test_steps_describe_the_profile(self, pair):
        n, m = pair
        steps = walk_profile(n, m)
        positions = [j for j, _ in steps]
        assert positions == sorted(set(positions))
        assert set(positions) <= set(n.entries) ^ set(m.entries)
        heights = [0] + [h for _, h in steps]
        assert all(abs(b - a) == 1 for a, b in zip(heights, heights[1:]))
        assert heights[-1] == 0
        # expanding the steps reproduces the dense partial sums
        level = dict(steps)
        expanded = 0
        for i in range(1, max(n.top, m.top) + 1):
            expanded = level.get(i, expanded)
            assert expanded == sum((j in n.entries) - (j in m.entries) for j in range(1, i + 1))

    def test_separated_pair(self):
        assert walk_profile(itup(1, 2), itup(3, 4)) == ((1, 1), (2, 2), (3, 1), (4, 0))

    def test_equal_tuples(self):
        assert walk_profile(itup(2, 5), itup(2, 5)) == ()

    def test_interlaced_pair(self):
        assert walk_profile(itup(1, 3), itup(2, 4)) == ((1, 1), (2, 0), (3, 1), (4, 0))

    def test_profile_class_is_gone(self):
        import interlace
        import interlace.graphs

        assert not hasattr(interlace, "WalkProfile")
        assert not hasattr(interlace.graphs, "WalkProfile")


class TestDist:
    def test_separated_pair(self):
        assert dist(itup(1, 2), itup(3, 4)) == 2

    def test_zero_iff_equal(self):
        assert dist(itup(1, 4), itup(1, 4)) == 0

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_shifted_block(self, k):
        n = itup(*range(1, k + 1))
        m = itup(*range(k + 1, 2 * k + 1))
        assert dist(n, m) == k

    def test_bfs_examples(self):
        assert dist_oracle_bfs(itup(1, 3), itup(2, 4)) == 1
        assert dist_oracle_bfs(itup(1, 2, 3), itup(4, 5, 6)) == 3
        assert dist(itup(1, 2, 3), itup(4, 5, 6)) == 3

    def test_formula_equals_bfs_exhaustive_small(self):
        for k in (1, 2):
            verts = enumerate_tuples(range(1, 7), k)
            for n, m in itertools.combinations_with_replacement(verts, 2):
                assert dist(n, m) == dist_oracle_bfs(n, m)

    @settings(max_examples=60, deadline=None)
    @given(tuple_pairs(max_k=3, max_entry=8))
    def test_formula_equals_bfs_random(self, pair):
        n, m = pair
        assert dist(n, m) == dist_oracle_bfs(n, m)

    @settings(max_examples=60, deadline=None)
    @given(tuple_pairs())
    def test_interval_characterization(self, pair):
        n, m = pair
        assert dist(n, m) == interval_count_distance(n, m)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda k: st.tuples(*[tuples(k)] * 3)))
    def test_metric_axioms(self, triple):
        a, b, c = triple
        assert dist(a, b) == dist(b, a)
        assert (dist(a, b) == 0) == (a.entries == b.entries)
        assert dist(a, c) <= dist(a, b) + dist(b, c)

    @settings(max_examples=60, deadline=None)
    @given(tuple_pairs())
    def test_adjacency_is_distance_one(self, pair):
        n, m = pair
        assert (dist(n, m) == 1) == is_adjacent(n, m)


def set_profile(n, m):
    """The walk profile by its set-based definition: sort both tuples' entries
    together and step at each one that lies in exactly one of them."""
    sn, sm = set(n.entries), set(m.entries)
    steps, height = [], 0
    for j in sorted(n.entries + m.entries):
        if (j in sn) != (j in sm):
            height += 1 if j in sn else -1
            steps.append((j, height))
    return tuple(steps)


@st.composite
def sharing_pairs(draw):
    """Same-arity pairs over [1..12] with arity 1 to 8 that share many entries:
    a shared set, then the two tuples' own entries from what is left."""
    k = draw(st.integers(1, 8))
    shared = draw(st.sets(st.integers(1, 12), max_size=k))
    rest = sorted(set(range(1, 13)) - shared)
    own = k - len(shared)
    picks = draw(st.permutations(rest))
    a = shared | set(picks[:own])
    b = shared | set(draw(st.sets(st.sampled_from(rest), min_size=own, max_size=own)))
    return InterlacedTuple(tuple(sorted(a))), InterlacedTuple(tuple(sorted(b)))


class TestMerge:
    """`dist` and `walk_profile` walk the two sorted tuples in one merge."""

    @settings(max_examples=300, deadline=None)
    @given(sharing_pairs())
    def test_dist_is_the_spread_of_the_profile_heights(self, pair):
        n, m = pair
        h = [height for _, height in walk_profile(n, m)]
        assert dist(n, m) == max([0, *h]) - min([0, *h]) == dist(m, n)

    def test_profile_equals_the_set_definition_on_every_small_pair(self):
        pairs = 0
        for k in (1, 2, 3):
            tuples = enumerate_tuples(range(1, 9), k)
            for n, m in itertools.product(tuples, repeat=2):
                assert walk_profile(n, m) == set_profile(n, m), (n, m)
                pairs += 1
        assert pairs == 8**2 + 28**2 + 56**2

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("gap", [0, 1, 10**12])
    def test_one_tuple_ends_before_the_other_starts(self, k, gap):
        low = itup(*range(1, k + 1))
        high = itup(*range(k + 1 + gap, 2 * k + 1 + gap))
        climb = tuple(zip(low.entries, range(1, k + 1)))
        fall = tuple(zip(high.entries, range(k - 1, -1, -1)))
        assert walk_profile(low, high) == climb + fall
        assert walk_profile(high, low) == tuple((j, -h) for j, h in climb + fall)
        assert dist(low, high) == dist(high, low) == k

    @pytest.mark.parametrize("k", [2, 3, 6])
    def test_a_leftover_run_after_shared_entries(self, k):
        # n and m agree on their first k - 1 entries; what is left of each
        # lies above all of the other
        head = tuple(range(1, k))
        n, m = itup(*head, k), itup(*head, k + 5)
        assert walk_profile(n, m) == ((k, 1), (k + 5, 0))
        assert walk_profile(m, n) == ((k, -1), (k + 5, 0))
        assert dist(n, m) == 1
        # the climb (n) or the fall (m) that is left over runs several entries
        n, m = itup(*head, *range(50, 50 + k)), itup(*head, *range(10, 10 + k))
        assert dist(n, m) == dist(m, n) == k
        assert walk_profile(n, m) == set_profile(n, m)
        assert walk_profile(m, n) == set_profile(m, n)

    def test_a_seeded_long_pair_with_huge_entries(self):
        rng = random.Random(20)
        k = 10**5
        pool = sorted(rng.sample(range(1, 2**61), 2 * k))
        shared = set(rng.sample(pool, k // 3))
        rest = [v for v in pool if v not in shared]
        rng.shuffle(rest)
        own = k - len(shared)
        n = InterlacedTuple(tuple(sorted(shared.union(rest[:own]))))
        m = InterlacedTuple(tuple(sorted(shared.union(rest[own : 2 * own]))))
        steps = walk_profile(n, m)
        assert steps == set_profile(n, m)
        h = [height for _, height in steps]
        assert len(steps) == 2 * own
        assert dist(n, m) == max([0, *h]) - min([0, *h]) == dist(m, n)


class TestGeodesics:
    def test_step_requires_distance_two(self):
        with pytest.raises(InvalidInput):
            geodesic_step(itup(1, 3), itup(2, 4))

    def test_step_separated_pair(self):
        n, m = itup(1, 2), itup(3, 4)
        step = geodesic_step(n, m)
        assert dist(n, step) == 1 and dist(step, m) == 1
        # deterministic selection: swap the first fresh maximum (at 2) for the
        # first minimum after it (at 4)
        assert step == itup(1, 4)

    def test_step_triple_block(self):
        n, m = itup(1, 2, 3), itup(4, 5, 6)
        step = geodesic_step(n, m)
        assert dist(n, step) == 1 and dist(step, m) == 2

    def test_interlaced_pair_is_adjacent_not_distance_two(self):
        # 1 <= 2 <= 4 <= 6 interlaces, so this pair admits no geodesic step
        n, m = itup(1, 4), itup(2, 6)
        assert dist(n, m) == 1
        with pytest.raises(InvalidInput):
            geodesic_step(n, m)

    def test_step_distance_two_pair(self):
        n, m = itup(1, 4), itup(2, 3)
        assert dist(n, m) == 2
        step = geodesic_step(n, m)
        assert dist(n, step) == 1 and dist(step, m) == 1

    def test_step_with_nonpositive_profile_maximum(self):
        # the argument order forces the internal swap; postconditions must survive
        n, m = itup(4, 5, 6), itup(1, 2, 3)
        step = geodesic_step(n, m)
        assert dist(n, step) == 1 and dist(step, m) == 2

    def test_step_regression_late_argmax(self):
        # argmax of F recurs after the first descent; the naive closing point fails here
        n, m = itup(2, 3, 5), itup(1, 4, 6)
        assert dist(n, m) == 2
        step = geodesic_step(n, m)
        assert dist(n, step) == 1 and dist(step, m) == 1

    def test_step_is_one_step_on_every_small_pair(self, monkeypatch):
        # the step is built from the profile alone, never from a whole path
        def no_path(n, m):
            raise AssertionError("geodesic_step must not build the whole path")

        monkeypatch.setattr(graphs, "geodesic_path", no_path)
        checked = 0
        for k in (1, 2, 3):
            tuples = enumerate_tuples(range(1, 9), k)
            for n, m in itertools.permutations(tuples, 2):
                d = dist(n, m)
                if d < 2:
                    continue
                step = geodesic_step(n, m)
                assert is_adjacent(n, step)
                assert dist(step, m) == d - 1
                checked += 1
        assert checked > 0

    def test_path_walks_the_step_on_every_small_pair(self):
        checked = 0
        for k in (1, 2, 3):
            tuples = enumerate_tuples(range(1, 9), k)
            for n, m in itertools.permutations(tuples, 2):
                if dist(n, m) < 2:
                    continue
                path = geodesic_path(n, m)
                for u, v in zip(path[:-2], path[1:-1]):
                    assert v == geodesic_step(u, m)
                checked += 1
        assert checked > 0

    def test_path_reversed_far_pair(self):
        # max F <= 0 at every vertex: each step takes the reflection branch
        big = 10**12
        n, m = itup(big + 1, big + 2, big + 3), itup(1, 2, 3)
        path = geodesic_path(n, m)
        assert len(path) == dist(n, m) + 1 == 4
        assert path[0] == n and path[-1] == m
        for u, v in zip(path, path[1:]):
            assert is_adjacent(u, v)

    def test_path_trivial(self):
        assert geodesic_path(itup(2, 4), itup(2, 4)) == [itup(2, 4)]

    def test_path_examples(self):
        path = geodesic_path(itup(1, 2), itup(3, 4))
        assert len(path) == 3
        for u, v in zip(path, path[1:]):
            assert is_adjacent(u, v)
        path = geodesic_path(itup(1, 2, 3), itup(4, 5, 6))
        assert len(path) == 4

    @settings(max_examples=80, deadline=None)
    @given(tuple_pairs())
    def test_path_is_geodesic(self, pair):
        n, m = pair
        d = dist(n, m)
        path = geodesic_path(n, m)
        assert len(path) == d + 1
        assert path[0] == n and path[-1] == m
        for u, v in zip(path, path[1:]):
            assert is_adjacent(u, v)

    @settings(max_examples=60, deadline=None)
    @given(tuple_pairs())
    def test_step_postconditions(self, pair):
        n, m = pair
        d = dist(n, m)
        if d < 2:
            return
        step = geodesic_step(n, m)
        assert step.entries not in (n.entries, m.entries)
        assert dist(n, step) == 1
        assert dist(step, m) == d - 1


    def test_paths_equal_the_paths_built_through_init(self, monkeypatch):
        # criterion 2's boxes: every step and reflection is built as a trusted
        # tuple, and equals the one __init__ checks and builds
        def boxes():
            return [enumerate_tuples(range(1, 9), k) for k in (1, 2, 3)]

        def paths(verts):
            return [geodesic_path(n, m) for n, m in itertools.combinations_with_replacement(verts, 2)]

        trusted = [paths(verts) for verts in boxes()]
        monkeypatch.setattr(InterlacedTuple, "_trusted", classmethod(lambda cls, e: cls(e)))
        checked = [paths(verts) for verts in boxes()]
        assert trusted == checked
        for got_box, want_box in zip(trusted, checked):
            for got, want in zip(got_box, want_box):
                assert [type(v) for v in got] == [InterlacedTuple] * len(got)
                assert [v.entries for v in got] == [v.entries for v in want]


class TestEnumeration:
    def test_small(self):
        assert enumerate_tuples({1, 2, 3}, 2) == [itup(1, 2), itup(1, 3), itup(2, 3)]

    def test_singleton(self):
        assert enumerate_tuples({1}, 1) == [itup(1)]

    def test_count(self):
        assert len(enumerate_tuples(range(1, 7), 3)) == 20

    def test_universe_too_small(self):
        with pytest.raises(InvalidInput):
            enumerate_tuples({1, 2}, 3)

    def test_lexicographic(self):
        out = enumerate_tuples(range(1, 6), 2)
        assert out == sorted(out)

    @pytest.mark.parametrize(
        "universe, message",
        [
            ([1, 2.5, 3], "universe values must be integers: 2.5 at index 2"),
            ((1, 2, False), "universe values must be integers: False at index 3"),
            (["1", "2"], "universe values must be integers: '1' at index 1"),
        ],
    )
    def test_universe_rejects_non_integers(self, universe, message):
        with pytest.raises(InvalidInput) as info:
            enumerate_tuples(universe, 1)
        assert str(info.value) == message


class TestTupleBox:
    """A box is checked when it is made, with the messages its tuples would give."""

    @pytest.mark.parametrize(
        "universe, k, message",
        [
            (range(-5, 4), 3, "entries must be positive: -5 at index 1"),
            ({1, 2}, 3, "universe of size 2 cannot host arity 3"),
            (range(1, 4), 5, "universe of size 3 cannot host arity 5"),
            (range(1, -4), 1, "universe of size 0 cannot host arity 1"),
            (range(1, 4), 0, "arity must be >= 1"),
            ([0, 1], 0, "arity must be >= 1"),
        ],
    )
    def test_the_box_rejects_what_the_enumeration_rejects(self, universe, k, message):
        for build in (TupleBox, enumerate_tuples):
            with pytest.raises(InvalidInput) as info:
                build(universe, k)
            assert str(info.value) == message, build

    @pytest.mark.parametrize("k", [True, 2.0, "2"])
    def test_an_arity_that_is_not_an_int_is_invalid_input(self, k):
        # True read as arity 1 and 2.0 failed inside itertools.combinations
        with pytest.raises(InvalidInput, match="^arity must be >= 1$"):
            TupleBox(range(1, 5), k)

    def test_the_box_builds_its_tuples_in_enumeration_order_on_every_pass(self):
        box = TupleBox([5, 1, 3, 3, 4], 2)
        assert box.universe == (1, 3, 4, 5) and box.size == 4 and len(box) == 6
        assert list(box) == list(box) == [
            itup(1, 3), itup(1, 4), itup(1, 5), itup(3, 4), itup(3, 5), itup(4, 5)
        ]

    @pytest.mark.parametrize(
        "universe, kept, size",
        [
            (range(1, 10**9 + 1), range(1, 10**9 + 1), 10**9),
            (range(10, 0, -3), range(1, 11, 3), 4),
            (range(1, 2**70, 2), range(1, 2**70, 2), 2**69),
        ],
    )
    def test_a_range_universe_stays_a_range(self, universe, kept, size):
        # len() of a range stops at sys.maxsize; the box counts a range arithmetically
        box = TupleBox(universe, 2)
        assert type(box.universe) is range and box.universe == kept and box.size == size
        # a range and the list of its values give the same tuples
        assert list(TupleBox(universe[:5], 2)) == enumerate_tuples(list(kept[:5]), 2)

    @pytest.mark.parametrize(
        "universe, k",
        [
            (range(1, 21), 5),
            (range(7, 1, -2), 2),
            ([9, 2, 2, 5, 1, 7], 3),
            ((4,), 1),
            ([2**63 - 1, 2**63, 2**63 + 1, 2**64, 2**100], 3),
            (range(2**70, 2**70 + 8), 4),
        ],
    )
    def test_unchecked_box_tuples_equal_checked_ones(self, universe, k):
        # the box builds its tuples without re-running the checks its universe passed
        got = enumerate_tuples(universe, k)
        want = [InterlacedTuple(c) for c in itertools.combinations(sorted(set(universe)), k)]
        assert got == want and list(map(hash, got)) == list(map(hash, want))
        assert all(type(t) is InterlacedTuple and type(t.entries) is tuple for t in got)
        assert [t.entries for t in got] == [t.entries for t in want]

    def test_a_box_past_sys_maxsize_is_not_counted_by_len(self):
        # C(68, 34) > sys.maxsize: len() raises, which MapSample never calls on a box
        box = TupleBox(range(1, 69), 34)
        assert math.comb(box.size, box.k) > sys.maxsize
        with pytest.raises(OverflowError):
            len(box)
