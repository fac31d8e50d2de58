"""Sequence model: sup norm, summing embedding, and the variation norm."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interlace import (
    FinSeq,
    InvalidInput,
    dist,
    enumerate_tuples,
    itup,
    james_norm,
    james_norm_bruteforce,
    m_k_point,
    successive_block_ratio,
    summing_distortion_check,
    summing_image,
    sup_norm,
)
from interlace.errors import ResourceLimit

finseqs = st.builds(
    FinSeq,
    st.lists(
        st.sampled_from([-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0]), max_size=8
    ).map(tuple),
)


class TestFinSeq:
    def test_canonical_form_strips_tail_values(self):
        assert FinSeq((1.0, 0.0, 0.0)).coeffs == (1.0,)
        assert FinSeq((1.0, 1.0), tail=1.0).coeffs == ()

    def test_value_at(self):
        x = FinSeq((2.0, -1.0), tail=0.5)
        assert x.value_at(1) == 2.0
        assert x.value_at(5) == 0.5
        with pytest.raises(InvalidInput):
            x.value_at(0)

    def test_arithmetic(self):
        x, y = FinSeq((1.0, 2.0)), FinSeq((0.0, -2.0, 3.0))
        assert (x + y).coeffs == (1.0, 0.0, 3.0)
        assert (x - y).coeffs == (1.0, 4.0, -3.0)
        assert (2.0 * x).coeffs == (2.0, 4.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(InvalidInput):
            FinSeq((bad, 1.0))
        with pytest.raises(InvalidInput):
            FinSeq((1.0,), tail=bad)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(-1e6, 1e6), max_size=8),
        st.data(),
        st.sampled_from([math.nan, math.inf, -math.inf]),
    )
    def test_non_finite_anywhere_is_rejected(self, coeffs, data, bad):
        pos = data.draw(st.integers(0, len(coeffs)))
        with pytest.raises(InvalidInput):
            FinSeq(tuple(coeffs[:pos] + [bad] + coeffs[pos:]))
        with pytest.raises(InvalidInput):
            FinSeq(tuple(coeffs), tail=bad)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), max_size=8), st.floats(-1e6, 1e6))
    def test_bounded_finite_input_gives_finite_norms(self, coeffs, tail):
        x = FinSeq(tuple(coeffs), tail)
        assert all(map(math.isfinite, x.coeffs)) and math.isfinite(x.tail)
        assert math.isfinite(james_norm(x, 2.0)) and math.isfinite(sup_norm(FinSeq(x.coeffs)))

    def test_overflowing_arithmetic_is_rejected(self):
        with pytest.raises(InvalidInput):
            FinSeq((1e308,)) + FinSeq((1e308,))


class TestSupNorm:
    def test_zero(self):
        assert sup_norm(FinSeq()) == 0.0

    def test_examples(self):
        assert sup_norm(FinSeq((2.0, 1.0, 1.0))) == 2.0
        assert sup_norm(FinSeq((0.0, -1.0, 0.0, 1.0))) == 1.0

    def test_requires_zero_tail(self):
        with pytest.raises(InvalidInput):
            sup_norm(FinSeq((1.0,), tail=1.0))


class TestSummingImage:
    def test_examples(self):
        assert summing_image(itup(1, 3)).coeffs == (2.0, 1.0, 1.0)
        assert summing_image(itup(1)).coeffs == (1.0,)
        assert summing_image(itup(2, 4)).coeffs == (2.0, 2.0, 1.0, 1.0)

    @settings(max_examples=200, deadline=None)
    @given(st.sets(st.integers(1, 60), min_size=1, max_size=6))
    def test_run_fill_equals_the_count_per_coordinate(self, entries):
        n = itup(*sorted(entries))
        want = [float(sum(e >= j for e in n.entries)) for j in range(1, n.top + 1)]
        assert list(summing_image(n).coeffs) == want

    def test_distortion_examples(self):
        assert summing_distortion_check(itup(1, 3), itup(2, 4)) == (1.0, 1.0)
        assert summing_distortion_check(itup(1, 2), itup(3, 4)) == (1.0, 1.0)
        assert summing_distortion_check(itup(1, 10**5), itup(2, 10**5 + 1)) == (1.0, 1.0)

    def test_equal_tuples_sentinel(self):
        ratio, other = summing_distortion_check(itup(1, 2), itup(1, 2))
        assert math.isnan(ratio) and math.isnan(other)

    def test_exhaustive_small_range(self):
        for k in (1, 2, 3):
            verts = enumerate_tuples(range(1, 7), k)
            for n, m in itertools.combinations(verts, 2):
                ratio, _ = summing_distortion_check(n, m)
                assert 0.5 <= ratio <= 1.0
                diff = summing_image(n) - summing_image(m)
                assert sup_norm(diff) <= dist(n, m)


class TestMkPoint:
    def test_full_indicator(self):
        assert m_k_point(itup(1, 3), {1, 2, 3}) == summing_image(itup(1, 3))

    def test_empty_indicator(self):
        assert m_k_point(itup(1, 3), set()) == FinSeq()

    def test_partial_indicator(self):
        assert m_k_point(itup(1, 3), {2}).coeffs == (0.0, 1.0)


class TestJamesNorm:
    def test_summing_vectors_are_unit(self):
        for n in (1, 3, 20):
            for p in (1.5, 2.0, 3.0):
                assert james_norm(FinSeq((1.0,) * n), p) == 1.0

    def test_spike_dip_spike(self):
        # frozen from the exhaustive oracle: indices (1,2,3,4) give 1+1+1
        assert abs(james_norm(FinSeq((1.0, 0.0, 1.0)), 2.0) - math.sqrt(3)) < 1e-12
        assert abs(
            james_norm_bruteforce(FinSeq((1.0, 0.0, 1.0)), 2.0) - math.sqrt(3)
        ) < 1e-12

    def test_zero(self):
        assert james_norm(FinSeq(), 2.0) == 0.0

    def test_constant_sequence_has_zero_variation(self):
        assert james_norm(FinSeq((), tail=1.0), 2.0) == 0.0

    def test_invalid_exponent(self):
        with pytest.raises(InvalidInput):
            james_norm(FinSeq((1.0,)), 1.0)
        with pytest.raises(InvalidInput):
            james_norm_bruteforce(FinSeq((1.0,)), 0.5)

    def test_bruteforce_cap(self):
        with pytest.raises(ResourceLimit):
            james_norm_bruteforce(FinSeq((1.0, 0.0) * 10), 2.0)

    @settings(max_examples=80, deadline=None)
    @given(finseqs, st.sampled_from([1.5, 2.0, 3.0]))
    def test_dp_equals_bruteforce(self, x, p):
        a, b = james_norm(x, p), james_norm_bruteforce(x, p)
        assert abs(a - b) <= 1e-12 * max(1.0, b)

    @settings(max_examples=40, deadline=None)
    @given(finseqs, st.sampled_from([1.5, 2.0]), st.integers(1, 4))
    def test_extra_tail_indices_cannot_improve_the_supremum(self, x, p, pad):
        # all post-support values equal the tail, so one sentinel is enough;
        # brute-force over a padded index set must agree with the DP
        vals = list(x.coeffs) + [x.tail] * (pad + 1)
        best = 0.0
        for size in range(2, len(vals) + 1):
            for comb in itertools.combinations(range(len(vals)), size):
                s = sum(abs(vals[b] - vals[a]) ** p for a, b in zip(comb, comb[1:]))
                best = max(best, s)
        padded = best ** (1.0 / p)
        assert abs(padded - james_norm(x, p)) <= 1e-12 * max(1.0, padded)

    @settings(max_examples=80, deadline=None)
    @given(finseqs, st.sampled_from([1.5, 2.0, 3.0]))
    def test_dp_equals_bruteforce_with_tail(self, x, p):
        y = FinSeq(x.coeffs, tail=-0.5)
        a, b = james_norm(y, p), james_norm_bruteforce(y, p)
        assert abs(a - b) <= 1e-12 * max(1.0, b)

    @settings(max_examples=60, deadline=None)
    @given(finseqs, finseqs, st.sampled_from([1.5, 2.0, 3.0]))
    def test_triangle_inequality(self, x, y, p):
        assert james_norm(x + y, p) <= james_norm(x, p) + james_norm(y, p) + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(finseqs, st.sampled_from([-2.0, -0.5, 0.25, 3.0]), st.sampled_from([1.5, 2.0]))
    def test_homogeneity(self, x, lam, p):
        got = james_norm(lam * x, p)
        want = abs(lam) * james_norm(x, p)
        assert abs(got - want) <= 1e-12 * max(1.0, want)

    @settings(max_examples=60, deadline=None)
    @given(finseqs)
    def test_definite(self, x):
        if x.coeffs:
            assert james_norm(x, 2.0) > 0.0

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), max_size=8).map(
            lambda v: FinSeq(tuple(v))
        )
    )
    def test_monotone_in_p_for_small_increments(self, x):
        # every increment is <= 1, so t^p decreases pointwise in p
        norms = [james_norm(x, p) for p in (1.5, 2.0, 3.0)]
        assert norms[0] >= norms[1] - 1e-12
        assert norms[1] >= norms[2] - 1e-12


class TestSuccessiveBlocks:
    def test_single_block(self):
        assert successive_block_ratio([FinSeq((1.0, 2.0))], 2.0) == 1.0

    def test_two_blocks(self):
        s1 = FinSeq((1.0,))
        e3 = FinSeq((0.0, 0.0, 1.0))
        # ||s1 + e3||^2 = 3, ||s1||^2 = 1, ||e3||^2 = 2 (both via the exact norm)
        assert abs(successive_block_ratio([s1, e3], 2.0) - 1.0) < 1e-12

    def test_spike_family_stays_bounded(self):
        for p in (1.5, 2.0, 3.0):
            blocks = [
                FinSeq((0.0,) * (2 * i) + (1.0,)) for i in range(5)
            ]
            ratio = successive_block_ratio(blocks, p)
            assert 0.0 < ratio <= 2.0**p + 1e-12

    def test_rejects_overlapping_supports(self):
        with pytest.raises(InvalidInput):
            successive_block_ratio([FinSeq((1.0, 1.0)), FinSeq((0.0, 1.0))], 2.0)

    def test_rejects_nonzero_tail(self):
        with pytest.raises(InvalidInput):
            successive_block_ratio([FinSeq((1.0,), tail=1.0)], 2.0)

    def test_rejects_zero_block(self):
        with pytest.raises(InvalidInput):
            successive_block_ratio([FinSeq((1.0,)), FinSeq()], 2.0)
