"""Empirical moduli, Lipschitz constants, probes, and the equicoarse table."""

import itertools
import json
import math
import re
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interlace import (
    Branch,
    FinSeq,
    InvalidInput,
    MapSample,
    compute_moduli,
    concentration_probe,
    dist,
    enumerate_tuples,
    equicoarse_report,
    g_embed,
    itup,
    james_norm,
    jt_norm_exact,
    lipschitz_constant,
    summing_image,
    sup_norm,
    walk_profile,
)
from interlace.cli import main
from interlace.errors import ResourceLimit
from interlace.graphs import TupleBox, _short_repr, _walk
from interlace.moduli import (
    _balanced,
    _HeightScore,
    _peaks,
    constant_map_sample,
    g_map_sample,
    identity_map_sample,
    summing_map_sample,
)


class TestComputeModuli:
    def test_identity_map_moduli_sit_on_the_diagonal(self):
        report = compute_moduli(identity_map_sample(2, 5))
        for t, rho, omega in report.rows():
            assert rho >= t
            assert omega <= t

    def test_constant_map(self):
        report = compute_moduli(constant_map_sample(2, 5))
        assert all(r == 0.0 for r in report.rho_hat)
        assert all(w == 0.0 for w in report.omega_hat)

    def test_summing_sample_respects_distortion(self):
        report = compute_moduli(summing_map_sample(3, 8), thresholds=[1.0, 2.0, 3.0])
        for t, rho, omega in report.rows():
            assert rho >= t / 2
            assert omega <= t

    def test_bracketing(self):
        sample = summing_map_sample(2, 6)
        report = compute_moduli(sample)
        lookup = dict(zip(report.thresholds, zip(report.rho_hat, report.omega_hat)))
        for ds, dt in sample.pair_distances():
            rho, omega = lookup[ds]
            assert rho <= dt <= omega

    def test_monotone_in_threshold(self):
        report = compute_moduli(summing_map_sample(2, 6))
        assert list(report.rho_hat) == sorted(report.rho_hat)
        assert list(report.omega_hat) == sorted(report.omega_hat)

    def test_empty_constraint_conventions(self):
        sample = identity_map_sample(1, 3)
        report = compute_moduli(sample, thresholds=[50.0])
        assert report.rho_hat == (math.inf,)  # no pair is that far apart
        assert report.omega_hat[0] >= 0.0

    def test_rejects_tiny_samples(self):
        with pytest.raises(InvalidInput):
            MapSample([itup(1)], lambda a, b: 0.0, lambda a, b: 0.0)

    def test_rejects_negative_thresholds(self):
        with pytest.raises(InvalidInput):
            compute_moduli(identity_map_sample(1, 3), thresholds=[-1.0])

    def test_nan_threshold_is_invalid_and_inf_is_the_far_end(self):
        sample = summing_map_sample(2, 5)
        with pytest.raises(InvalidInput):
            compute_moduli(sample, thresholds=[math.nan, 1.0])
        report = compute_moduli(sample, thresholds=[math.inf])
        assert report.rho_hat == (math.inf,)
        assert report.omega_hat == (max(dt for _, dt in sample.pair_distances()),)

    @pytest.mark.parametrize("bad", ["a", None, [1.0]])
    def test_a_threshold_that_is_not_a_number_is_invalid_input(self, bad):
        # float() raised ValueError on "a" and TypeError on None; the first bad one is named
        for sample in (summing_map_sample(2, 5), _wrapped(summing_map_sample(2, 5))):
            with pytest.raises(InvalidInput, match=re.escape(f"got {bad!r}")):
                compute_moduli(sample, [1.0, bad, "b"])

    @pytest.mark.parametrize("bad", ["1.5", "0", " 2 ", True, False], ids=repr)
    def test_a_numeric_string_or_a_bool_is_not_a_threshold(self, bad):
        # float() reads each of these as a number; the CLI's JSON readers refuse them
        for sample in (summing_map_sample(2, 5), _wrapped(summing_map_sample(2, 5))):
            with pytest.raises(InvalidInput, match=re.escape(f"got {bad!r}")):
                compute_moduli(sample, [1.0, bad])

    def test_an_int_beyond_the_float_range_is_not_a_threshold(self):
        with pytest.raises(InvalidInput, match=r"thresholds must be non-negative numbers, got 1000"):
            compute_moduli(summing_map_sample(2, 5), [10**400])

    def test_int_and_float_thresholds_read_alike(self):
        sample = summing_map_sample(2, 5)
        assert compute_moduli(sample, [0, 1, 3]) == compute_moduli(sample, [0.0, 1.0, 3.0])

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 6).flatmap(
            lambda n: st.lists(
                st.tuples(
                    st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]),
                    st.one_of(st.sampled_from([0.0, 1.0, 2.5]), st.floats(0.0, 10.0)),
                ),
                min_size=n * (n - 1) // 2,
                max_size=n * (n - 1) // 2,
            ).map(lambda table: (n, table))
        ),
        st.one_of(
            st.none(),
            st.lists(
                st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 7.0, math.inf]),
                min_size=1,
                max_size=6,
            ),
        ),
    )
    def test_matches_the_definition(self, sized_table, thresholds):
        # ties in both distances; thresholds below, at, between and above them
        n, table = sized_table
        by_pair = dict(zip(itertools.combinations(range(n), 2), table))
        sample = MapSample(
            list(range(n)), lambda a, b: by_pair[a, b][0], lambda a, b: by_pair[a, b][1]
        )
        report = compute_moduli(sample, thresholds)
        ts = sorted({ds for ds, _ in table}) if thresholds is None else sorted(thresholds)
        assert report.thresholds == tuple(ts)
        assert report.rho_hat == tuple(
            min((dt for ds, dt in table if ds >= t), default=math.inf) for t in ts
        )
        assert report.omega_hat == tuple(
            max((dt for ds, dt in table if ds <= t), default=0.0) for t in ts
        )


class TestLipschitz:
    def test_summing_embedding_constant_is_one(self):
        assert lipschitz_constant(summing_map_sample(2, 6)) == 1.0
        assert lipschitz_constant(summing_map_sample(3, 7)) == 1.0

    def test_branch_embedding_is_one_lipschitz(self):
        assert lipschitz_constant(g_map_sample(2, 6)) <= 1.0 + 1e-9

    def test_constant_map(self):
        assert lipschitz_constant(constant_map_sample(2, 5)) == 0.0

    def test_rejects_non_graph_source(self):
        sample = MapSample([1, 2], lambda a, b: 0.5 * abs(a - b), lambda a, b: abs(a - b))
        with pytest.raises(InvalidInput):
            lipschitz_constant(sample)

    @pytest.mark.parametrize("far", [math.nan, math.inf])
    def test_a_non_finite_source_distance_is_invalid_input(self, far):
        # round() raised ValueError on NaN and OverflowError on inf
        sample = MapSample(
            [1, 2, 3],
            lambda a, b: far if abs(a - b) == 2 else 1.0,
            lambda a, b: float(abs(a - b)),
        )
        with pytest.raises(InvalidInput):
            lipschitz_constant(sample)


def _wrapped_score(score):
    """The score behind a plain function, which is not a `_HeightScore`: it takes the pair path."""
    return lambda n, m: score(n, m)


class TestConcentrationProbe:
    def test_constant_map_concentrates(self):
        score = _wrapped_score(constant_map_sample(2, 6).d_target)
        res = concentration_probe(score, range(1, 7), 2, c=0.0)
        assert res.diameter == 0.0
        assert res.concentrated

    def test_summing_map_does_not_concentrate(self):
        score = _wrapped_score(summing_map_sample(3, 10).d_target)
        for mode in ("greedy", "exhaustive"):
            res = concentration_probe(score, range(1, 11), 3, c=1.0, mode=mode)
            assert res.omega_1 == 1.0
            assert res.diameter >= 2.0  # any 4-point sub-universe keeps diameter >= 2
            assert not res.concentrated

    def test_greedy_removes_an_outlier(self):
        images = {itup(v): FinSeq((100.0,)) if v == 6 else FinSeq() for v in range(1, 7)}
        res = concentration_probe(
            lambda n, m: sup_norm(images[n] - images[m]), range(1, 7), 1, c=1.0
        )
        assert 6 not in res.subset
        assert res.diameter == 0.0
        assert res.concentrated

    def test_exhaustive_small_subsets_are_degenerate(self):
        # over k + 1 elements every pair of tuples is adjacent, so the flag
        # holds trivially; the default subset size 2k avoids this
        score = _wrapped_score(summing_map_sample(3, 10).d_target)
        res = concentration_probe(score, range(1, 11), 3, c=1.0, mode="exhaustive", subset_size=4)
        assert res.diameter == 1.0
        assert res.concentrated

    def test_exhaustive_cap(self):
        score = _wrapped_score(summing_map_sample(1, 14).d_target)
        with pytest.raises(ResourceLimit, match="size 14 exceeds .* EXHAUSTIVE_PROBE_CAP = 12"):
            concentration_probe(score, range(1, 15), 1, c=1.0, mode="exhaustive")

    def test_each_image_distance_is_evaluated_once(self):
        sample = summing_map_sample(3, 10)
        for mode, size in (("greedy", None), ("exhaustive", None), ("exhaustive", 4)):
            calls = []

            def d_target(x, y):
                calls.append(None)
                return sample.d_target(x, y)

            concentration_probe(d_target, range(1, 11), 3, c=1.0, mode=mode, subset_size=size)
            assert len(calls) == 120 * 119 // 2  # C(10, 3) tuples, every pair once

    @pytest.mark.parametrize(
        "make", [summing_map_sample, g_map_sample, constant_map_sample]
    )
    @pytest.mark.parametrize("mode", ["greedy", "exhaustive"])
    def test_result_matches_direct_evaluation(self, make, mode):
        sample = make(2, 7)
        res = concentration_probe(
            _wrapped_score(sample.d_target), range(1, 8), 2, c=1.0, mode=mode
        )
        tuples = [itup(*c) for c in itertools.combinations(res.subset, 2)]
        direct = max(
            (sample.d_target(a, b) for a, b in itertools.combinations(tuples, 2)), default=0.0
        )
        assert res.diameter == direct
        assert res.omega_1 == lipschitz_constant(sample)

    def test_greedy_mode_rejects_a_subset_size(self):
        sample = summing_map_sample(2, 6)
        with pytest.raises(InvalidInput, match="--subset-size"):
            concentration_probe(sample.d_target, range(1, 7), 2, c=1.0, subset_size=3)

    def test_universe_too_small(self):
        with pytest.raises(InvalidInput):
            concentration_probe(lambda x, y: 0.0, range(1, 3), 2, c=1.0)

    @pytest.mark.parametrize("c", [math.nan, -1.0, math.inf])
    def test_rejects_c_outside_its_domain(self, c):
        with pytest.raises(InvalidInput):
            concentration_probe(lambda x, y: 0.0, range(1, 4), 1, c=c)

    @pytest.mark.parametrize(
        "c", ["1", True, b"1", None, 10**400, math.nan], ids=lambda c: _short_repr(c)[:12]
    )
    def test_c_is_an_int_or_a_float(self, c):
        # float() read "1", True and b"1" as 1.0, and raised OverflowError on 10**400
        score = summing_map_sample(1, 2).d_target
        with pytest.raises(
            InvalidInput, match=f"^c must be finite and >= 0, got {re.escape(_short_repr(c))}$"
        ):
            concentration_probe(score, range(1, 4), 1, c=c)
        assert concentration_probe(score, range(1, 4), 1, c=1) == concentration_probe(
            score, range(1, 4), 1, c=1.0
        )

    @pytest.mark.parametrize("universe", [[1.5, 2.7, 3, 4.2, 5.9], [1, 2, "3"], [True, 2, 3]])
    def test_rejects_universe_values_that_are_not_integers(self, universe):
        with pytest.raises(InvalidInput, match="universe values must be integers") as probe:
            concentration_probe(summing_map_sample(1, 2).d_target, universe, 1, 1.0)
        with pytest.raises(InvalidInput) as tuples:
            enumerate_tuples(universe, 1)
        assert str(probe.value) == str(tuples.value)

    @pytest.mark.parametrize("mode", ["greedy", "exhaustive"])
    @pytest.mark.parametrize("k", [0, -3, 2.5, True])
    def test_rejects_an_arity_that_is_not_an_int_of_at_least_1(self, k, mode):
        # checked first: the exhaustive default 2k would make k = 0 a subset-size error
        with pytest.raises(InvalidInput, match="arity must be >= 1"):
            concentration_probe(
                summing_map_sample(1, 2).d_target, range(1, 7), k, 1.0, mode=mode
            )

    @pytest.mark.parametrize("size", [4.9, 4.0, True, "4"])
    def test_rejects_a_subset_size_that_is_not_an_int(self, size):
        with pytest.raises(InvalidInput, match="subset size must be an int"):
            concentration_probe(
                summing_map_sample(1, 2).d_target, range(1, 9), 3, 1.0,
                mode="exhaustive", subset_size=size,
            )


class TestEquicoarse:
    def test_summing_family_signature(self):
        rows = equicoarse_report(
            [(k, summing_map_sample(k, 2 * k)) for k in (1, 2, 3, 4)]
        )
        for row in rows:
            assert row.omega_at_1 == 1.0
            assert row.ratio >= row.k / 2

    def test_constant_family(self):
        rows = equicoarse_report([(k, constant_map_sample(k, 2 * k)) for k in (1, 2)])
        assert all(row.ratio == 0.0 for row in rows)

    def test_branch_family(self):
        rows = equicoarse_report([(k, g_map_sample(k, 2 * k)) for k in (1, 2, 4)])
        for row in rows:
            assert row.omega_at_1 <= 1.0 + 1e-9
            assert row.rho_at_k > 0.0

    @pytest.mark.parametrize("k", [0, -3, 1.5, 2.0, True, "2"])
    def test_rejects_an_arity_that_is_not_an_int_of_at_least_1(self, k):
        # the thresholds [0, 1] would read rho at 1 and omega at 0 for k = 0
        with pytest.raises(InvalidInput, match="arity must be >= 1"):
            equicoarse_report([(k, summing_map_sample(2, 6))])


def _box_pairs(sample):
    """Each pair of the sample's tuples with its (source, image) distances."""
    return zip(itertools.combinations(sample.points, 2), sample.pair_distances())


class TestProfileScores:
    """The summing and branch samples score pairs from the walk profile; the
    norms of the image differences are the independent side."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_summing_score_is_the_sup_norm_of_the_image_difference(self, k):
        sample = summing_map_sample(k, 8)
        images = {t: summing_image(t) for t in sample.points}
        for (n, m), (_, score) in _box_pairs(sample):
            assert score == sup_norm(images[n] - images[m])

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_branch_score_is_the_jt_norm_of_the_image_difference(self, k):
        sample = g_map_sample(k, 8)
        sigma = Branch("0" * 8)
        images = {t: g_embed(sigma, t) for t in sample.points}
        for (n, m), (_, score) in _box_pairs(sample):
            want = jt_norm_exact(images[n] - images[m])[0]
            assert abs(score - want) <= 1e-12 * want

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_the_heights_carry_the_j_p_norm_of_the_image_difference(self, k):
        pts = enumerate_tuples(range(1, 9), k)
        images = {t: summing_image(t) for t in pts}
        for n, m in itertools.combinations(pts, 2):
            heights = FinSeq((0.0, *(float(h) for _, h in walk_profile(n, m))))
            for p in (1.5, 2.0, 3.0):
                assert james_norm(heights, p) == james_norm(images[n] - images[m], p)


FAMILIES = [summing_map_sample, g_map_sample, identity_map_sample, constant_map_sample]


def _bits(pairs):
    return [(ds.hex(), dt.hex()) for ds, dt in pairs]


def _wrapped(sample):
    """The sample with its score wrapped, which is not a `_HeightScore`: it takes the pair table."""
    return MapSample(sample.points, sample.d_source, _wrapped_score(sample.d_target))


def _count_metric_calls(monkeypatch):
    """Count every profile read, every `dist` call and every `james_norm`.

    A profile read is a call of `graphs._walk`, the one merge that
    `walk_profile`, `geodesic_step` and the pair table read.

    `dist` walks its own merge and reads no profile, so its calls are counted
    apart: those of the c0 certificate through `sequences.dist`, and those of
    a sample that takes the returned `dist` as its source metric.
    """
    import interlace.graphs as graphs
    import interlace.moduli as moduli
    import interlace.sequences as sequences

    calls = SimpleNamespace(heights=[], dists=[], norms=[])

    def counted_walk(n, m):
        positions, heights = _walk(n, m)
        calls.heights.append(tuple(heights[1:]))
        return positions, heights

    def counted_dist(n, m):
        calls.dists.append((n, m))
        return dist(n, m)

    def counted_norm(x, p=2.0):
        calls.norms.append(x)
        return james_norm(x, p)

    calls.dist = counted_dist
    monkeypatch.setattr(graphs, "_walk", counted_walk)
    monkeypatch.setattr(moduli, "_walk", counted_walk)
    monkeypatch.setattr(sequences, "dist", counted_dist)
    monkeypatch.setattr(moduli, "james_norm", counted_norm)
    return calls


class TestPairTable:
    """The canonical samples read each profile once per pair and score each
    distinct height sequence once per `pair_distances()` call."""

    @pytest.mark.parametrize("make", FAMILIES, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("k, max_entry", [(1, 5), (2, 7), (3, 8), (4, 9)])
    def test_table_equals_both_metrics_bit_for_bit(self, make, k, max_entry):
        sample = make(k, max_entry)
        want = [
            (float(dist(n, m)), float(sample.d_target(n, m)))
            for n, m in itertools.combinations(sample.points, 2)
        ]
        assert _bits(sample.pair_distances()) == _bits(want)

    @pytest.mark.parametrize("make", FAMILIES, ids=lambda f: f.__name__)
    def test_one_profile_per_pair_and_one_score_per_distinct_heights(self, make, monkeypatch):
        sample = make(3, 8)
        calls = _count_metric_calls(monkeypatch)
        pairs = math.comb(len(sample.points), 2)
        first = sample.pair_distances()
        assert len(calls.heights) == pairs
        scored = len(calls.norms)
        assert scored == (len(set(calls.heights)) if make is g_map_sample else 0)
        # no memo outlives a call: the second table is read and scored again
        assert _bits(sample.pair_distances()) == _bits(first)
        assert len(calls.heights) == 2 * pairs
        assert len(calls.norms) == 2 * scored

    def test_a_wrapped_score_takes_the_two_metric_loop(self, monkeypatch):
        sample = g_map_sample(2, 6)
        want = sample.pair_distances()
        calls = _count_metric_calls(monkeypatch)
        score = _wrapped_score(sample.d_target)
        got = MapSample(sample.points, calls.dist, score).pair_distances()
        assert _bits(got) == _bits(want)
        pairs = math.comb(len(sample.points), 2)
        # per pair: one `dist` call for the source, one profile read and one score for the target
        assert (len(calls.heights), len(calls.dists), len(calls.norms)) == (pairs, pairs, pairs)


def _image_g_sample(k, max_entry):
    """The branch map with TreeVec images, measured by jt_norm_exact."""
    sigma = Branch("0" * max_entry)
    pts = enumerate_tuples(range(1, max_entry + 1), k)
    images = {t: g_embed(sigma, t) for t in pts}
    return MapSample(pts, dist, lambda n, m: jt_norm_exact(images[n] - images[m])[0])


def _r12(value):
    return float(f"{value:.12g}")


class TestProfileScoredCli:
    def test_moduli_table_matches_the_image_based_sample(self, tmp_path, capsys):
        argv = ["moduli", "--family", "g", "--k", "3", "--max-entry", "8", "--out", str(tmp_path)]
        assert main(argv) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        report = compute_moduli(_image_g_sample(3, 8))
        assert rows == [
            {"t": _r12(t), "rho_hat": _r12(r), "omega_hat": _r12(w)} for t, r, w in report.rows()
        ]

    def test_equicoarse_table_matches_the_image_based_samples(self, tmp_path, capsys):
        argv = ["moduli", "--equicoarse", "--family", "g", "--ks", "1,2,3", "--out", str(tmp_path)]
        assert main(argv) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        report = equicoarse_report([(k, _image_g_sample(k, 2 * k)) for k in (1, 2, 3)])
        assert rows == [
            {
                "k": r.k,
                "rho_hat_k": _r12(r.rho_at_k),
                "omega_hat_1": _r12(r.omega_at_1),
                "ratio": _r12(r.ratio),
            }
            for r in report
        ]


def _report_bits(report):
    return [tuple(v.hex() for v in row) for row in report.rows()]


def _boxes():
    """Every box with k <= 5 and |U| <= 10 that has a pair, over [1..|U|] and
    over the first |U| odd numbers."""
    for size in range(2, 11):
        for k in range(1, min(5, size - 1) + 1):
            yield k, range(1, size + 1)
            yield k, range(1, 2 * size, 2)


def box_heights(k, size):
    """The distinct profile heights h of the pairs n < m of a full box: the oracle.

    n △ m has 2j elements, 1 <= j <= min(k, size - k), and the first of them
    lies in n.  Every balanced pattern of 2j steps +-1 that starts with +1
    occurs, and h = (0, s_1, s_1 + s_2, ...) are its partial sums: that is
    sum_j C(2j - 1, j - 1) sequences, 49 at k = 4 and 8,788 at k = 8.
    """
    for j in range(1, min(k, size - k) + 1):
        for ups in itertools.combinations(range(1, 2 * j), j - 1):
            steps = [-1] * (2 * j)
            for i in (0, *ups):
                steps[i] = 1
            yield (0, *itertools.accumulate(steps))


def _enumerated_rows(score, k, size):
    """The distinct (source, image) rows of a full box, one score per enumerated pattern."""
    return {(float(max(h) - min(h)), score.of_heights(k, h)) for h in box_heights(k, size)}


def _scan(rows, ts):
    """(thresholds, rho_hat, omega_hat) of the rows at the thresholds, by definition."""
    rho = [min((dt for ds, dt in rows if ds >= t), default=math.inf) for t in ts]
    omega = [max((dt for ds, dt in rows if ds <= t), default=0.0) for t in ts]
    return [tuple(v.hex() for v in row) for row in zip(ts, rho, omega)]


class TestBoxPatterns:
    """`compute_moduli` answers a `TupleBox` from one `_balanced` and one `_peaks`
    pattern per threshold; every other sample dedups its pair table.  The
    enumeration of every box pattern is the oracle."""

    @pytest.mark.parametrize("make", FAMILIES, ids=lambda f: f.__name__)
    def test_pattern_rows_equal_the_pair_table(self, make):
        score = make(1, 2).d_target
        for k, universe in _boxes():
            box = TupleBox(universe, k)
            sample = MapSample(box, dist, score)
            table = sample.pair_distances()
            rows = _enumerated_rows(score, k, len(universe))
            assert set(_bits(rows)) == set(_bits(table)), (k, universe)
            ts = sorted({ds for ds, _ in table})
            assert _report_bits(compute_moduli(sample)) == _scan(table, ts), (k, universe)

    @pytest.mark.parametrize("make", FAMILIES, ids=lambda f: f.__name__)
    def test_the_box_path_equals_the_enumeration_bit_for_bit(self, make):
        # 60 boxes, k <= 8 and |U| = k + 1..2k + 3, at the default thresholds and at
        # thresholds below, between, at and beyond the box's distances 1..J
        score = make(1, 2).d_target
        cases = 0
        for k in range(1, 9):
            for size in range(k + 1, 2 * k + 4):
                j = min(k, size - k)
                rows = _enumerated_rows(score, k, size)
                box = TupleBox(range(1, size + 1), k)
                sample = MapSample(box, dist, score)
                for ts in ([0, 0.5, 1, 1.5, j - 0.5, j, j + 0.5, math.inf, k, 2 * k], None):
                    want = sorted({ds for ds, _ in rows}) if ts is None else sorted(map(float, ts))
                    report = compute_moduli(sample, ts)
                    assert _report_bits(report) == _scan(rows, want), (k, size, ts)
                    cases += 1
                # lipschitz_constant reads omega_hat(1) and max omega_hat(t) / t off the
                # default report; both equal the enumerated rows' values
                omega_1 = max(dt for ds, dt in rows if ds <= 1)
                ratio = max(dt / ds for ds, dt in rows)
                assert lipschitz_constant(sample).hex() == omega_1.hex(), (k, size)
                assert max(w / t for t, _, w in report.rows()).hex() == ratio.hex(), (k, size)
                # the row's two patterns give what compute_moduli reads at 1 and k
                rho_k = min((dt for ds, dt in rows if ds >= k), default=math.inf)
                want_row = _want_row_bits(k, rho_k, omega_1)
                assert _row_bits(equicoarse_report([(k, sample)])[0]) == want_row, (k, size)
                at_1_k = compute_moduli(sample, [1, k])
                got = (at_1_k.rho_hat[-1], at_1_k.omega_hat[0])
                assert _want_row_bits(k, *got) == want_row, (k, size)
        assert cases == 120

    def test_the_two_builders_attain_the_integer_bounds(self):
        # _peaks(J, t): range and max |h| min(t, J), var_2^2 = 2(q t^2 + r^2) for
        # (q, r) = divmod(J, t); _balanced(t): range t, max |h| ceil(t/2),
        # var_2^2 = min_a a^2 + t^2 + (t - a)^2
        for J in range(1, 51):
            for t in range(1, J + 1):
                q, r = divmod(J, t)
                h = _peaks(J, t)
                assert _steps_of_a_box_pattern(h) == 2 * J
                assert max(map(abs, h)) == max(h) - min(h) == t
                assert _var2_squared(h) == 2 * (q * t * t + r * r)
            h = _balanced(J)
            assert _steps_of_a_box_pattern(h) == 2 * J
            assert (max(h) - min(h), max(map(abs, h))) == (J, (J + 1) // 2)
            assert _var2_squared(h) == min(a * a + J * J + (J - a) ** 2 for a in range(1, J + 1))
        # the bounds hold on every pattern of the k = 8 box over 16 elements
        for h in box_heights(8, 16):
            width, top, var2 = max(h) - min(h), max(map(abs, h)), _var2_squared(h)
            for t in range(1, 9):
                q, r = divmod(8, t)
                if width <= t:
                    assert top <= t and var2 <= 2 * (q * t * t + r * r), (h, t)
                if width >= t:
                    assert top >= (t + 1) // 2, (h, t)
                    assert var2 >= min(a * a + t * t + (t - a) ** 2 for a in range(1, t + 1))

    @pytest.mark.parametrize("make", FAMILIES, ids=lambda f: f.__name__)
    def test_samples_that_are_not_boxes_take_the_pair_table(self, make, monkeypatch):
        box = make(3, 7)
        pts = list(box.points)
        shuffled = pts[1:] + pts[:1]
        short = pts[:10] + pts[11:]
        wrapped = _wrapped_score(box.d_target)
        want = compute_moduli(box)
        heights = _count_metric_calls(monkeypatch).heights
        for points, score, same_pairs in (
            (shuffled, box.d_target, True),
            (short, box.d_target, False),
            (pts, wrapped, True),
            (box.points, wrapped, True),  # the box itself, under a score that is not a height score
            (pts, box.d_target, True),  # every tuple of the box, listed: not a TupleBox
        ):
            sample = MapSample(points, dist, score)
            read = len(heights)
            got = compute_moduli(sample)
            assert len(heights) > read  # the pairs were read
            if same_pairs:
                assert _report_bits(got) == _report_bits(want)
            table = sample.pair_distances()
            ts = sorted({ds for ds, _ in table})
            assert got.thresholds == tuple(ts)
            assert got.rho_hat == tuple(
                min((dt for ds, dt in table if ds >= t), default=math.inf) for t in ts
            )
            assert got.omega_hat == tuple(
                max((dt for ds, dt in table if ds <= t), default=0.0) for t in ts
            )

    @pytest.mark.parametrize("k, max_entry, scores", [(4, 10, 8), (5, 11, 10)])
    def test_a_box_reads_no_profile_and_scores_two_per_threshold(
        self, k, max_entry, scores, monkeypatch
    ):
        # the enumeration has 49 patterns at k = 4 and 175 at k = 5
        sample = g_map_sample(k, max_entry)
        calls = _count_metric_calls(monkeypatch)
        report = compute_moduli(sample)
        assert report.thresholds == tuple(float(t) for t in range(1, k + 1))
        assert (len(calls.heights), len(calls.norms)) == (0, scores)
        lipschitz_constant(sample)
        assert (len(calls.heights), len(calls.norms)) == (0, 2 * scores)

    def test_a_box_builds_no_tuple(self, monkeypatch):
        # C(80, 40) ~ 1.1e23 tuples: neither the sample nor the moduli count or list them
        def no_tuples(self):
            raise AssertionError("the box path built a tuple")

        monkeypatch.setattr(TupleBox, "__iter__", no_tuples)
        monkeypatch.setattr(TupleBox, "__len__", no_tuples)
        sample = g_map_sample(40, 80)
        assert isinstance(sample.points, TupleBox)
        of = sample.d_target.of_heights
        want = [
            (float(t), of(40, _balanced(t)), of(40, _peaks(40, t))) for t in range(1, 41)
        ]
        assert _report_bits(compute_moduli(sample)) == [
            tuple(v.hex() for v in row) for row in want
        ]
        assert lipschitz_constant(sample) == of(40, _peaks(40, 1)) == 1.0

    def test_a_box_is_checked_when_it_is_made(self):
        # the box builds no tuple, so it names a value below 1 as its first tuple would
        with pytest.raises(InvalidInput, match="^entries must be positive: 0 at index 1$"):
            box = TupleBox([0, 1, 2, 3], 2)
            compute_moduli(MapSample(box, dist, summing_map_sample(1, 2).d_target))

    def test_a_default_table_above_the_box_cap_is_a_resource_limit(self):
        # each threshold scores two patterns of up to 2J + 1 heights: J = 1000 is the
        # last default table under the cap, J = 10^30 is refused before a pattern is built
        for k, max_entry in ((1001, 2002), (10**30, 10**31)):
            with pytest.raises(
                ResourceLimit,
                match=rf"^a box table of {k} thresholds at J = .* exceeds the box cap: .*"
                r"BOX_HEIGHTS_CAP = 4000000$",
            ):
                compute_moduli(summing_map_sample(k, max_entry))
        # two thresholds of the J = 1001 box are well under it
        rows = compute_moduli(summing_map_sample(1001, 2002), [1, 1001]).rows()
        assert rows == [(1.0, 1.0, 1.0), (1001.0, 501.0, 1001.0)]
        assert len(compute_moduli(summing_map_sample(1000, 2000)).rows()) == 1000

    def test_equicoarse_report_reads_no_profile(self, monkeypatch):
        samples = [(k, summing_map_sample(k, 2 * k)) for k in (1, 2, 3, 4, 5)]
        heights = _count_metric_calls(monkeypatch).heights
        rows = equicoarse_report(samples)
        assert heights == []
        by_pairs = equicoarse_report([(k, _wrapped(s)) for k, s in samples])
        assert len(heights) > 0
        assert rows == by_pairs


def _probe_bits(res):
    return (res.subset, res.diameter.hex(), res.concentrated, res.omega_1.hex())


def _probe_cases(k, size):
    """(mode, subset size) of every probe over a universe of `size` elements."""
    yield "greedy", None
    for s in range(k + 1, size + 1):
        yield "exhaustive", s


class TestPatternProbe:
    """A height-scored probe reads each diameter from one peak pattern per size; a
    wrapped score gives the same searches the pair-table diameter, the independent side."""

    @pytest.mark.parametrize("make", FAMILIES, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("odd", [False, True], ids=["contiguous", "odd"])
    def test_pattern_answer_equals_the_pair_table_answer(self, make, odd):
        score = make(1, 2).d_target
        for k in range(1, 5):
            # D(s) stops growing at s = 2k, so 2k + 1 elements reach every branch
            # of both searches; larger boxes only cost the pair side time, except
            # at k = 1, which runs up to the exhaustive cap
            for size in range(k + 1, (12 if k == 1 else 2 * k + 1) + 1):
                universe = range(1, 2 * size, 2) if odd else range(1, size + 1)
                scored = {}

                def d_target(x, y):  # the score behind a plain function, read once per pair
                    if (x, y) not in scored:
                        scored[x, y] = score(x, y)
                    return scored[x, y]

                for mode, s in _probe_cases(k, size):
                    pairs = concentration_probe(
                        d_target, universe, k, 1.0, mode=mode, subset_size=s
                    )
                    for c in (0.0, 0.5, 1.0, 2.0):
                        got = concentration_probe(score, universe, k, c, mode=mode, subset_size=s)
                        # c enters the pair-table probe only through this flag
                        flag = pairs.diameter <= c * pairs.omega_1 + 1e-12
                        want = (*_probe_bits(pairs)[:2], flag, pairs.omega_1.hex())
                        assert _probe_bits(got) == want, (k, universe, mode, s, c)

    @pytest.mark.parametrize(
        "mode, size", [("greedy", None), ("exhaustive", None), ("exhaustive", 4)]
    )
    def test_a_canonical_probe_reads_no_profile_and_scores_each_pattern_once(
        self, mode, size, monkeypatch
    ):
        calls = _count_metric_calls(monkeypatch)
        res = concentration_probe(
            g_map_sample(1, 2).d_target, range(1, 11), 3, 1.0, mode=mode, subset_size=size
        )
        assert calls.heights == []
        # the alternating pattern of 6 steps, and one peak: no search here removes
        # an element, so each reads D(s) at one j
        assert len(calls.norms) == 2
        assert res.omega_1 == 1.0

    def test_a_canonical_probe_builds_no_tuple(self, monkeypatch):
        # the pair path over the same universe is the oracle, read before the patch
        cases = [("greedy", None), ("exhaustive", None), ("exhaustive", 4)]
        scores = [make(1, 2).d_target for make in FAMILIES]
        want = [
            _probe_bits(
                concentration_probe(
                    _wrapped_score(score), range(1, 10), 3, 1.0, mode=m, subset_size=s
                )
            )
            for score in scores
            for m, s in cases
        ]

        def no_tuples(self):
            raise AssertionError("the probe built a tuple")

        monkeypatch.setattr(TupleBox, "__iter__", no_tuples)
        monkeypatch.setattr(TupleBox, "__len__", no_tuples)
        got = [
            _probe_bits(concentration_probe(score, range(1, 10), 3, 1.0, mode=m, subset_size=s))
            for score in scores
            for m, s in cases
        ]
        assert got == want
        # C(1000, 3) ~ 1.7e8 tuples: past 2k elements no removal lowers the diameter
        for score in scores:
            of = score.of_heights
            res = concentration_probe(score, range(1, 1001), 3, 1.0)
            assert res.subset == tuple(range(1, 1001))
            assert (res.diameter, res.omega_1) == (of(3, _peaks(3, 3)), of(3, _peaks(3, 1)))

    def test_omega_1_reads_every_alternating_pattern(self):
        # an adjacent pair can take 2k steps, (0, 1, 0, 1, ..., 0): the branch map
        # scores (0, 1, 0) at (2k)^(-1/2) but the alternating 2k steps at 1
        res = concentration_probe(g_map_sample(1, 2).d_target, range(1, 9), 4, 0.5)
        assert res.omega_1 == 1.0
        assert g_map_sample(1, 2).d_target.of_heights(4, (0, 1, 0)) == 0.5

    def test_greedy_keeps_the_largest_elements(self):
        # below 2k every removal lowers D(s); the strict < drops the smallest each round
        score = summing_map_sample(1, 2).d_target
        res = concentration_probe(score, range(10, 15), 3, 1.0)
        assert (res.subset, res.diameter, res.concentrated) == ((11, 12, 13, 14), 1.0, True)

    @pytest.mark.parametrize("make", FAMILIES, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("size", [4, 5, 6])
    def test_greedy_drops_the_first_element_each_round(self, make, size):
        # every candidate of a round has one size, so one score, and the scan keeps
        # the first: the probe scores that one only, and the pair table agrees;
        # the constant map's diameter 0 leaves nothing to lower
        score = make(1, 2).d_target
        res = concentration_probe(score, range(1, size + 1), 3, 1.0)
        pairs = concentration_probe(_wrapped_score(score), range(1, size + 1), 3, 1.0)
        first = 1 if make is constant_map_sample else size - 3
        assert res.subset == tuple(range(first, size + 1)) == pairs.subset
        assert _probe_bits(res) == _probe_bits(pairs)

    def test_a_greedy_canonical_probe_of_20000_elements(self):
        # one candidate list per element in each round was 0.45 s at |U| = 5,000 and
        # grew as |U|^2; past 2k elements the one round scored removes nothing
        score = summing_map_sample(1, 2).d_target
        res = concentration_probe(score, range(1, 20001), 3, 1.0)
        assert res.subset == tuple(range(1, 20001))
        assert (res.diameter, res.omega_1, res.concentrated) == (3.0, 1.0, False)


def _box_row(k, size, score):
    """The equicoarse row of the arity-k box over `size` elements, as the library makes it."""
    box = TupleBox(range(1, size + 1), k)
    (row,) = equicoarse_report([(k, MapSample(box, dist, score))])
    return row


def _recorded_patterns(k, size):
    """The heights the equicoarse row scores for the arity-k box over `size` elements."""
    seen = []
    _box_row(k, size, _HeightScore(lambda k, h: seen.append(h) or 0.0))
    return seen


def _scan_patterns(k, size):
    """The box patterns of range <= 1 and of range >= k, as the scan oracle lists them.

    The alternating (0, 1, 0, ..., 1, 0) of 2j steps, 1 <= j <= min(k, size - k),
    and a up, k down, k - a up for 1 <= a <= k when size >= 2k.
    """
    near = [(0, 1) * j + (0,) for j in range(1, min(k, size - k) + 1)]
    far = [
        (*range(a), *range(a, a - k, -1), *range(a - k, 1))
        for a in (range(1, k + 1) if size >= 2 * k else ())
    ]
    return near, far


def _row_bits(row):
    return (row.k, row.rho_at_k.hex(), row.omega_at_1.hex(), row.ratio.hex())


def _want_row_bits(k, rho_k, omega_1):
    """The row bits by definition: 0 when rho_hat(k) is 0, else inf when omega_hat(1) is."""
    ratio = 0.0 if rho_k == 0.0 else math.inf if omega_1 == 0.0 else rho_k / omega_1
    return (k, rho_k.hex(), omega_1.hex(), ratio.hex())


class TestBoxRow:
    """An equicoarse row scores one box pattern of range <= 1 and one of range >= k."""

    @pytest.mark.parametrize("k", range(1, 9))
    def test_the_extremal_patterns_are_the_range_filters_of_the_box(self, k):
        for size in (k + 1, 2 * k, 2 * k + 1):
            near, far = _scan_patterns(k, size)
            box = list(box_heights(k, size))
            assert set(near) == {h for h in box if max(h) - min(h) <= 1}, (k, size)
            assert set(far) == {h for h in box if max(h) - min(h) >= k}, (k, size)
            assert len(far) == (k if size >= 2 * k else 0)
            # the row scores _peaks(J, 1), the longest alternating pattern, and from
            # 2k elements on _balanced(k), the balanced a = ceil(k/2), each once
            seen = _recorded_patterns(k, size)
            assert seen == [near[-1]] + far[(k - 1) // 2:(k + 1) // 2], (k, size)
            j = min(k, size - k)
            assert seen == [_peaks(j, 1)] + ([_balanced(k)] if size >= 2 * k else [])

    @pytest.mark.parametrize("make", FAMILIES, ids=lambda f: f.__name__)
    def test_two_patterns_give_the_rows_of_the_scan(self, make):
        # the scan scores every pattern of range <= 1 and >= k: 2k per row
        score = make(1, 2).d_target
        for k in range(1, 65):
            near, far = _scan_patterns(k, 2 * k)
            near_scores = [score.of_heights(k, h) for h in near]
            rho_k = min(score.of_heights(k, h) for h in far)
            for size in range(k + 1, 2 * k + 3):
                omega_1 = max(near_scores[: min(k, size - k)])
                want = _want_row_bits(k, rho_k if size >= 2 * k else math.inf, omega_1)
                assert _row_bits(_box_row(k, size, score)) == want, (k, size)

    @pytest.mark.parametrize(
        "k", [10**6 + 1, 99999999999, pytest.param(10**4000, id="10**4000")]
    )
    def test_an_arity_above_the_cap_is_a_named_resource_limit(self, k):
        # the patterns of an arity-k row hold about 2k heights each: k = 99999999999
        # was a MemoryError.  The box cap fires exactly above k = 10^6, and names a
        # long arity short: all 4,001 digits of 10^4000 were echoed
        from interlace.moduli import BOX_HEIGHTS_CAP

        assert BOX_HEIGHTS_CAP == 4 * 10**6
        with pytest.raises(
            ResourceLimit,
            match=f"^arity {re.escape(_short_repr(k))} exceeds the box cap: .{{,80}} "
            "BOX_HEIGHTS_CAP = 4000000$",
        ):
            equicoarse_report([(k, g_map_sample(k, 2 * k))])

    def test_the_library_answers_the_arity_at_the_cap(self):
        # the CLI's edge: a row at k = 10^6 scores two patterns of 2 * 10^6 + 1 heights
        (row,) = equicoarse_report([(10**6, summing_map_sample(10**6, 2 * 10**6))])
        assert (row.k, row.rho_at_k, row.omega_at_1, row.ratio) == (10**6, 5e5, 1.0, 5e5)

    def test_an_arity_beyond_the_float_range_is_invalid_input(self):
        # a threshold of the compute_moduli path: float(k) was a bare OverflowError
        box = summing_map_sample(2, 6)
        for sample in (box, MapSample(list(box.points), dist, box.d_target)):
            with pytest.raises(InvalidInput, match="^thresholds must be non-negative numbers"):
                equicoarse_report([(10**400, sample)])

    @pytest.mark.parametrize("make", FAMILIES, ids=lambda f: f.__name__)
    def test_rows_equal_the_pair_table_rows(self, make):
        cases = [(k, make(k, size)) for k in (1, 2, 3, 4) for size in range(k + 1, 2 * k + 2)]
        cases += [(3, make(2, 6)), (1, make(2, 5))]  # k is not the box arity
        rows = equicoarse_report(cases)
        wrapped = [(k, _wrapped(s)) for k, s in cases]
        assert [_row_bits(r) for r in rows] == [_row_bits(r) for r in equicoarse_report(wrapped)]


def _steps_of_a_box_pattern(h):
    """The step count of h, checked to be a balanced +-1 walk from 0 that starts with +1."""
    steps = [b - a for a, b in zip(h, h[1:])]
    assert h[0] == 0 and steps[0] == 1 and set(steps) == {1, -1} and sum(steps) == 0, h
    return len(steps)


def _var2_squared(h):
    """The exact squared 2-variation of integer heights: a chain DP over the turning points."""
    turns = [h[0], *(b for a, b, c in zip(h, h[1:], h[2:]) if (b - a) * (c - b) < 0), h[-1]]
    best = [0]
    for i in range(1, len(turns)):
        best.append(max(best[j] + (turns[i] - turns[j]) ** 2 for j in range(i)))
    return max(best)
