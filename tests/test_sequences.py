"""Sequence model: sup norm, summing embedding, and the variation norm."""

import itertools
import math
import operator
import random
import re
import time
import tracemalloc

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
    successive_block_ratio,
    summing_distortion_check,
    summing_image,
    sup_norm,
)
from interlace import acceptance, sequences
from interlace.errors import ResourceLimit, _short_repr

finseqs = st.builds(
    FinSeq,
    st.lists(
        st.sampled_from([-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0]), max_size=8
    ).map(tuple),
)

SIGNED_ZEROS_AND_FLOATS = st.builds(
    FinSeq,
    st.lists(st.sampled_from([0.0, -0.0, 1.0, -2.5]) | st.floats(-1e6, 1e6), max_size=8).map(
        tuple
    ),
    st.sampled_from([0.0, -0.0, 1.0, -2.5]) | st.floats(-1e6, 1e6),
)


def _signed(v):
    # a float as (value, sign), so 0.0 and -0.0 differ; a FinSeq coefficient by coefficient
    if isinstance(v, FinSeq):
        return [_signed(c) for c in v.coeffs], _signed(v.tail)
    return v, math.copysign(1.0, v)


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

    @pytest.mark.parametrize("scalar", [True, 10**400, "x", math.inf])
    def test_scalar_is_read_as_a_number(self, scalar):
        with pytest.raises(InvalidInput, match="the scalar must be a finite number, got"):
            FinSeq((1.0,)) * scalar
        with pytest.raises(InvalidInput, match="the scalar must be a finite number, got"):
            scalar * FinSeq((1.0,))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(InvalidInput):
            FinSeq((bad, 1.0))
        with pytest.raises(InvalidInput):
            FinSeq((1.0,), tail=bad)

    @pytest.mark.parametrize(
        "coeffs, tail", [((1.0, None), 0.0), ((1.0,), "x"), ((1.0,), None), (5, 0.0)]
    )
    def test_rejects_values_that_are_not_numbers(self, coeffs, tail):
        with pytest.raises(InvalidInput, match="must be numbers"):
            FinSeq(coeffs, tail)

    def test_rejects_coeffs_that_are_not_iterable(self):
        with pytest.raises(InvalidInput) as info:
            FinSeq(5)
        assert str(info.value) == "sequence values must be numbers: coeffs 5 is not iterable"

    def test_iterator_coeffs_are_read_once(self):
        assert FinSeq(v for v in (1, 2.5, 0)).coeffs == (1.0, 2.5)
        with pytest.raises(InvalidInput) as info:
            FinSeq(v for v in (1.0, 2.0, None))
        assert str(info.value) == "sequence values must be numbers: None at index 3"

    @pytest.mark.parametrize(
        "coeffs, tail, text",
        [
            ((1.0, math.nan, math.inf), 0.0, "finite: nan at index 10002"),
            ((1.0, 2.0), -math.inf, "finite: -inf at the tail"),
            ((1, 10**400), 0.0, "finite: an integer beyond the float range at index 10002"),
            ((1.0, "x" * 10**4), 0.0, "numbers: 'xxxxxxxxxxxx...xxxxxxxxxxxxx' at index 10002"),
            ((1.0,), None, "numbers: None at the tail"),
        ],
    )
    def test_errors_name_only_the_first_bad_value(self, coeffs, tail, text):
        with pytest.raises(InvalidInput) as info:
            FinSeq((0.0,) * 10**4 + coeffs, tail)
        assert str(info.value) == "sequence values must be " + text

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

    @pytest.mark.parametrize(
        "x, y, where",
        [
            (FinSeq((1.0, 1e308)), FinSeq((0.0, -1e308)), "inf at index 2"),
            (FinSeq((1.0,), 1e308), FinSeq((2.0, 3.0), -1e308), "inf at the tail"),
            (FinSeq((1e308, 1.0, 5.0)), FinSeq((-1e308,)), "inf at index 1"),
            (FinSeq((1.0,), 1e308), FinSeq((0.0, 2.0, -1e308)), "inf at index 3"),
        ],
    )
    def test_an_overflowing_difference_names_its_first_infinite_value(self, x, y, where):
        with pytest.raises(InvalidInput, match=f"^sequence values must be finite: {where}$"):
            x - y

    def test_negation_and_scalar_multiples_are_the_per_index_values(self):
        # what building the result through __init__ gives, signed zeros included
        rng = random.Random(81)
        values = [0.0, -0.0, 1.0, -2.5, 1e-310, -1e308]
        for _ in range(200):
            pool = values + [rng.uniform(-9, 9)]
            x = FinSeq(tuple(rng.choice(pool) for _ in range(rng.randrange(9))), rng.choice(pool))
            assert _signed(-x) == _signed(FinSeq(tuple(-v for v in x.coeffs), -x.tail))
            for s in (0.0, -0.0, 1.0, -1.0, 0.5, rng.uniform(-1, 1)):
                want = FinSeq(tuple(s * v for v in x.coeffs), s * x.tail)
                assert _signed(s * x) == _signed(x * s) == _signed(want)
        assert (0.0 * FinSeq((1.0, -2.0, 3.0))).coeffs == ()
        with pytest.raises(InvalidInput, match="^sequence values must be finite: inf at index 1$"):
            FinSeq((1e308,)) * 10
        with pytest.raises(InvalidInput, match="^sequence values must be finite: -inf at the tail"):
            FinSeq((1.0,), 1e308) * -10

    @pytest.mark.parametrize("op", [operator.neg, lambda x: 2.0 * x], ids=["neg", "mul"])
    def test_negation_and_scalar_multiples_are_one_tuple_in_working_memory(self, op):
        # the result holds 0.8 MB of tuple and 2.4 MB of floats; building it through
        # __init__ (a tuple, a list and a second tuple) peaked at 4.80 MB
        x = summing_image(itup(1, 10**5))
        tracemalloc.start()
        try:
            y = op(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert y.coeffs == tuple(op(v) for v in x.coeffs)
        assert peak <= 3.6e6

    def test_a_difference_is_one_tuple_in_working_memory(self):
        # the result holds 0.8 MB of tuple and 2.4 MB of floats; padding both
        # tuples and copying the result through __init__ peaked at 5.60 MB
        x, y = summing_image(itup(1, 10**5)), summing_image(itup(2, 10**5 + 1))
        tracemalloc.start()
        try:
            d = x - y
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(d.coeffs) == 10**5 + 1 and d.tail == 0.0
        assert d == FinSeq(tuple(x.value_at(i) - y.value_at(i) for i in range(1, 10**5 + 2)))
        assert peak <= 3.6e6

    @settings(max_examples=200, deadline=None)
    @given(SIGNED_ZEROS_AND_FLOATS, SIGNED_ZEROS_AND_FLOATS)
    def test_sum_and_difference_are_the_per_index_values(self, x, y):
        # a - b is a + (-b), and a + b the per-index sum, signed zeros included
        assert _signed(x - y) == _signed(x + (-y))
        L = max(len(x.coeffs), len(y.coeffs))
        per_index = [x.value_at(i) + y.value_at(i) for i in range(1, L + 2)]
        total = x + y
        assert _signed(total.tail) == _signed(x.tail + y.tail)
        # canonical form: the stored block is the per-index sums up to the last
        # one that differs from the tail
        kept = len(per_index)
        while kept and per_index[kept - 1] == total.tail:
            kept -= 1
        assert _signed(total)[0] == [_signed(v) for v in per_index[:kept]]


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

    @settings(max_examples=200, deadline=None)
    @given(st.sets(st.integers(1, 200), min_size=1, max_size=8))
    def test_images_are_canonical(self, entries):
        # built without FinSeq.__init__, so it must be what __init__ would build
        img = summing_image(itup(*sorted(entries)))
        again = FinSeq(img.coeffs)
        assert img == again and hash(img) == hash(again)
        assert img.tail == 0.0 and img.coeffs[-1] != 0.0
        assert all(type(v) is float for v in img.coeffs)

    def test_an_image_is_one_list_and_one_tuple_in_working_memory(self):
        # 8 MB of list and 8 MB of tuple for 10^6 coordinates; building the
        # FinSeq through __init__ took another list, 24.45 MB in all
        n = itup(3, 10**6)
        tracemalloc.start()
        try:
            img = summing_image(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(img.coeffs) == 10**6
        assert peak <= 16.8e6

    def test_distortion_examples(self):
        assert summing_distortion_check(itup(1, 3), itup(2, 4)) == (1.0, 1.0)
        assert summing_distortion_check(itup(1, 2), itup(3, 4)) == (1.0, 1.0)
        assert summing_distortion_check(itup(1, 10**5), itup(2, 10**5 + 1)) == (1.0, 1.0)

    def test_equal_tuples_sentinel(self):
        ratio, other = summing_distortion_check(itup(1, 2), itup(1, 2))
        assert math.isnan(ratio) and math.isnan(other)

    def test_prebuilt_images_give_the_same_certificate(self):
        for k in (1, 2, 3):
            for n, m in itertools.combinations(enumerate_tuples(range(1, 7), k), 2):
                images = (summing_image(n), summing_image(m))
                want = summing_distortion_check(n, m)
                assert summing_distortion_check(n, m, images=images) == want
                # and with the distance a pair table holds, as a float
                assert summing_distortion_check(n, m, images=images, d=float(dist(n, m))) == want

    def test_a_wrong_passed_distance_raises(self):
        # d(n, m) = 1 and the sup is 1, so d = 2 keeps both bounds but not the identity
        n, m = itup(1, 3), itup(2, 4)
        with pytest.raises(AssertionError, match="profile identity violated"):
            summing_distortion_check(n, m, d=2)

    def test_a_passed_zero_distance_needs_equal_tuples_and_images(self):
        n, m = itup(1, 3), itup(2, 4)
        img_n, img_m = summing_image(n), summing_image(m)
        # distinct tuples, also when the supplied images do not tell them apart;
        # equal tuples whose images differ
        for a, b, images in [(n, m, None), (n, m, (img_n, img_n)), (n, n, (img_n, img_m))]:
            with pytest.raises(AssertionError, match="distance 0"):
                summing_distortion_check(a, b, images=images, d=0)

    def test_a_supplied_image_with_a_fractional_sup_is_not_truncated(self):
        # d((1), (2)) = 1 but the sup of the difference is 1.9
        images = (FinSeq((1.9, 0.0)), FinSeq((0.0, 0.0)))
        with pytest.raises(AssertionError, match="violated"):
            summing_distortion_check(itup(1), itup(2), images=images)

    def test_a_supplied_image_with_a_nonzero_tail_is_invalid(self):
        images = (FinSeq((1.0, 0.0), 5.0), FinSeq((1.0, 1.0)))
        with pytest.raises(InvalidInput, match="tail"):
            summing_distortion_check(itup(1), itup(2), images=images)

    def test_criterion_4_builds_each_image_once(self, monkeypatch):
        calls = 0
        real = sequences.summing_image

        def counting(n):
            nonlocal calls
            calls += 1
            return real(n)

        monkeypatch.setattr(acceptance, "summing_image", counting)
        monkeypatch.setattr(sequences, "summing_image", counting)
        assert acceptance.criterion_04().passed
        assert calls == sum(math.comb(10, k) for k in (1, 2, 3, 4)) == 385

    def test_exhaustive_small_range(self):
        for k in (1, 2, 3):
            verts = enumerate_tuples(range(1, 7), k)
            for n, m in itertools.combinations(verts, 2):
                ratio, _ = summing_distortion_check(n, m)
                assert 0.5 <= ratio <= 1.0
                diff = summing_image(n) - summing_image(m)
                assert sup_norm(diff) <= dist(n, m)


def _padded_list_check(n, m, images=None, d=None):
    """The certificate as it read its extremes before: both images padded with
    zeros into full copies and one float per coordinate in a list."""
    if d is None:
        d = dist(n, m)
    img_n, img_m = images if images is not None else (summing_image(n), summing_image(m))
    a, b = img_n.coeffs, img_m.coeffs
    L = max(len(a), len(b))
    vals = [*map(operator.sub, a + (0.0,) * (L - len(a)), b + (0.0,) * (L - len(b))), 0.0]
    hi, lo = max(vals), min(vals)
    if d == 0:
        if n != m or hi != lo:
            raise AssertionError(f"distance 0 for distinct tuples or images at {n}, {m}")
        return (math.nan, math.nan)
    s = max(hi, -lo)
    if not (2 * s >= d and s <= d):
        raise AssertionError(f"distortion bound violated for {n}, {m}: s={s}, d={d}")
    if hi - lo != d:
        raise AssertionError(f"profile identity violated for {n}, {m}")
    return (s / d, 1.0)


def _outcome(check, *args, **kwargs):
    # the returned pair or the raised AssertionError, as text: repr tells nan and
    # the signed zeros apart
    try:
        return repr(check(*args, **kwargs))
    except AssertionError as exc:
        return f"AssertionError: {exc}"


def _far_pair(rng, k, top):
    # every entry of one tuple lies below every entry of the other, which ends at top
    low = itup(*sorted(rng.sample(range(1, top // 2), k)))
    high = itup(*sorted(rng.sample(range(top // 2, top), k - 1)), top)
    return low, high


class TestCertificateAgainstThePaddedList:
    """The distinct-difference set gives the padded list's extremes, bit for bit."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_every_pair_of_a_small_box(self, k):
        tuples = enumerate_tuples(range(1, 11), k)
        images = {t: summing_image(t) for t in tuples}
        for n, m in itertools.product(tuples, repeat=2):
            pair = (images[n], images[m])
            assert _outcome(summing_distortion_check, n, m, images=pair) == _outcome(
                _padded_list_check, n, m, images=pair
            )
        for n, m in itertools.combinations(tuples[:40], 2):
            assert _outcome(summing_distortion_check, n, m) == _outcome(_padded_list_check, n, m)

    def test_seeded_far_pairs_in_both_length_orders(self):
        # tops log-uniform up to 10^5, so short images come up as often as long ones
        rng = random.Random(20260)
        for _ in range(200):
            k = rng.randint(1, 4)
            n, m = _far_pair(rng, k, max(2 * k + 2, round(10 ** rng.uniform(1, 5))))
            img_n, img_m = summing_image(n), summing_image(m)
            for a, b, images in [(n, m, (img_n, img_m)), (m, n, (img_m, img_n))]:
                want = _outcome(_padded_list_check, a, b, images=images)
                assert want == "(1.0, 1.0)"  # dist is k and so is the sup at the gap
                assert _outcome(summing_distortion_check, a, b, images=images) == want

    def test_explicit_images_with_zeros_negatives_and_wrong_distances(self):
        images = [
            FinSeq(()),
            FinSeq((0.0, 1.0)),
            FinSeq((-0.0, 1.0)),
            FinSeq((2.0, 0.0, 1.0)),
            FinSeq((1.0, -0.0, -1.0, 0.0, 1.0)),
            FinSeq((-1.0, -2.0, 0.0, -1.0)),
            FinSeq((0.5, -0.5)),
            FinSeq((2.0, 2.0, 1.0, 1.0)),
        ]
        tuples = [(itup(1), itup(1)), (itup(1), itup(2)), (itup(1, 3), itup(2, 4))]
        seen = set()
        for (n, m), img_n, img_m, d in itertools.product(
            tuples, images, images, [None, 0, 0.0, 1, 2, 3, 0.5]
        ):
            pair = (img_n, img_m)
            want = _outcome(_padded_list_check, n, m, images=pair, d=d)
            assert _outcome(summing_distortion_check, n, m, images=pair, d=d) == want
            seen.add(want.split(" for ")[0].split(" at ")[0])
        # every outcome of the certificate is reached, a -0.0 sup among them
        assert {
            "(1.0, 1.0)",
            "(nan, nan)",
            "AssertionError: distance 0",
            "AssertionError: distortion bound violated",
            "AssertionError: profile identity violated",
        } <= seen
        assert _outcome(
            summing_distortion_check, itup(1), itup(2), images=(images[2], images[1]), d=1
        ).endswith("s=-0.0, d=1")

    def test_passed_images_are_certified_in_working_memory_independent_of_the_tops(self):
        # the padded list held one float per coordinate: 4.00 MB on this pair
        n, m = itup(10, 20000, 30000, 49000), itup(50000, 60000, 70000, 100000)
        images = (summing_image(n), summing_image(m))
        tracemalloc.start()
        try:
            assert summing_distortion_check(n, m, images=images) == (1.0, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


def _all_pairs_dp(x, p):
    # the plain O(L^2) DP over every canonical index, no reduction of any kind
    vals = list(x.coeffs) + [x.tail]
    best = [0.0] * len(vals)
    overall = 0.0
    for j in range(len(vals)):
        b = 0.0
        for i in range(j):
            cand = best[i] + abs(vals[j] - vals[i]) ** p
            if cand > b:
                b = cand
        best[j] = b
        if b > overall:
            overall = b
    return overall ** (1.0 / p)


def _every_chain(x, p):
    # the definition: every increasing chain of two or more canonical indices,
    # its increments added left to right (not sum(), which may compensate)
    vals = list(x.coeffs) + [x.tail]
    best = 0.0
    for size in range(2, len(vals) + 1):
        for chain in itertools.combinations(range(len(vals)), size):
            s = 0.0
            for a, b in zip(chain, chain[1:]):
                s += abs(vals[b] - vals[a]) ** p
            best = max(best, s)
    return best ** (1.0 / p)


def _with_tails(values, max_size):
    return st.builds(
        FinSeq, st.lists(values, max_size=max_size).map(tuple), st.just(0.0) | values
    )


TIE_HEAVY = st.sampled_from([-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0])
# seven decades, 1e-3 .. 9e3, so every merge of a run gains more than the
# rounding of the sum even at p = 1.0001; wider ranges are tested to rounding
WIDE = st.builds(
    lambda sign, digit, e: sign * digit * 10.0**e,
    st.sampled_from([-1.0, 1.0]),
    st.integers(1, 9),
    st.integers(-3, 3),
)
EXPONENTS = st.sampled_from([1.0001, 1.1, 1.5, 2.0, 3.0, 7.5, 40.0])


class TestJamesNorm:
    @settings(max_examples=300, deadline=None)
    @given(_with_tails(TIE_HEAVY, 40) | _with_tails(WIDE, 40), EXPONENTS)
    def test_equals_the_all_pairs_dp_bit_for_bit(self, x, p):
        assert james_norm(x, p) == _all_pairs_dp(x, p)

    @settings(max_examples=100, deadline=None)
    @given(
        _with_tails(
            st.builds(
                lambda sign, frac, e: sign * frac * 10.0**e,
                st.sampled_from([-1.0, 1.0]),
                st.floats(0.1, 1.0),
                st.integers(-6, 6),
            ),
            40,
        ),
        st.sampled_from([1.0000001, 1.0001]),
    )
    def test_near_one_exponent_on_far_apart_increments_agrees_to_rounding(self, x, p):
        # merging a run can gain less than the rounding of the sum here, so the
        # reduced DP may differ from the all-pairs DP in the last bits
        want = _all_pairs_dp(x, p)
        assert abs(james_norm(x, p) - want) <= 1e-13 * want

    @settings(max_examples=40, deadline=None)
    @given(_with_tails(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]), 12), EXPONENTS)
    def test_tie_heavy_equals_bruteforce(self, x, p):
        a, b = james_norm(x, p), james_norm_bruteforce(x, p)
        assert abs(a - b) <= 1e-12 * max(1.0, b)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 40.0])
    def test_long_ramp_closed_form(self, p):
        # turning points 1, N and the zero tail: the chain 1 -> N -> 0
        N = 10**5
        x = FinSeq(tuple(map(float, range(1, N + 1))))
        assert james_norm(x, p) == ((N - 1) ** p + N**p) ** (1.0 / p)

    @pytest.mark.parametrize("p", [1.0001, 1.5, 2.0, 3.0, 7.5])
    def test_expanding_oscillation_equals_the_all_pairs_dp(self, p):
        # 0, 1, -1, 2, -2, ...: every value is a new extremum
        x = FinSeq(tuple(float((i + 1) // 2 * (1 if i % 2 else -1)) for i in range(300)))
        assert james_norm(x, p) == _all_pairs_dp(x, p)

    def test_long_random_input_stays_near_linear(self):
        # 5e4 uniform values keep about 3.3e4 turning points; each scan stops
        # within a few steps (0.1 s), where scans run to the start take 5e8 steps
        rng = random.Random(3)
        x = FinSeq(tuple(rng.random() for _ in range(50_000)))
        start = time.perf_counter()
        james_norm(x, 2.0)
        assert time.perf_counter() - start < 10.0

    @pytest.mark.parametrize("shape", ["plus-minus-one", "expanding-oscillation"])
    def test_scans_stop_at_the_prefix_extrema(self, shape):
        # random +-1 keeps about 5e4 turning points at the two levels; in the
        # expanding oscillation 0, 1, -1, 2, -2, ... every earlier value lies
        # inside the range.  Scans run to the start would take over 1e9 steps.
        rng = random.Random(5)
        if shape == "plus-minus-one":
            values = [rng.choice((-1.0, 1.0)) for _ in range(10**5)]
        else:
            values = [float((i + 1) // 2 * (1 if i % 2 else -1)) for i in range(10**5)]
        start = time.perf_counter()
        james_norm(FinSeq(tuple(values)), 2.0)
        assert time.perf_counter() - start < 10.0

    @pytest.mark.parametrize("p", [1.0001, 1.5, 2.0, 3.0, 7.5])
    def test_rising_lows_and_highs_equal_the_all_pairs_dp(self, p):
        # -10^6 + i at even i, i at odd i: the prefix minimum is the first value,
        # so every scan runs to the start; the kernel's worst case
        x = FinSeq(tuple(float(i if i % 2 else -(10**6) + i) for i in range(300)))
        assert james_norm(x, p) == _all_pairs_dp(x, p)

    def test_huge_and_tiny_values_are_rescaled(self):
        assert james_norm(FinSeq((1e200,)), 2.0) == 1e200
        assert james_norm(FinSeq((1e-200, 0.0, 1e-200)), 3.0) == 1.4422495703074082e-200
        assert james_norm(FinSeq((1.7e308,)), 2.0) == pytest.approx(1.7e308, rel=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(
        _with_tails(TIE_HEAVY, 12).filter(lambda x: x.coeffs),
        st.sampled_from([1.5, 2.0, 3.0]),
        st.sampled_from([-1000, -700, 700, 1000]),
    )
    def test_rescaling_keeps_power_of_two_homogeneity(self, x, p, e):
        y = FinSeq(tuple(math.ldexp(v, e) for v in x.coeffs), math.ldexp(x.tail, e))
        want = math.ldexp(james_norm(x, p), e)
        assert math.isfinite(want) and want > 0.0
        assert james_norm(y, p) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize(
        "x, p",
        [
            (FinSeq((1e308, -1e308)), 2.0),  # the range itself overflows
            (FinSeq((1.5e308, 0.0, 1.5e308)), 2.0),  # the norm, sqrt(3) * 1.5e308, does
            (FinSeq((3.0,)), 2000.0),  # 1.5^2000 overflows after rescaling
        ],
    )
    def test_norm_beyond_the_float_range_is_invalid_input(self, x, p):
        with pytest.raises(InvalidInput, match=f"p = {p:g}"):
            james_norm(x, p)

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

    @pytest.mark.parametrize(
        "p", ["2", True, b"2", None, 10**400, 1, math.inf], ids=lambda p: _short_repr(p)[:12]
    )
    def test_the_exponent_is_an_int_or_a_float_in_its_domain(self, p):
        # float() read "2" and True, and raised OverflowError on 10**400
        x = FinSeq((0.0, 1.0, -1.0))
        for norm in (james_norm, james_norm_bruteforce):
            with pytest.raises(
                InvalidInput,
                match=f"^the variation exponent must satisfy 1 < p < inf, got {re.escape(_short_repr(p))}$",
            ):
                norm(x, p)
        assert james_norm(x, 2) == james_norm(x, 2.0)

    def test_bruteforce_cap(self):
        # the last 0.0 is the tail, so 4,097 coefficients and the tail: 4,098 canonical values
        with pytest.raises(ResourceLimit, match="BRUTE_FORCE_CAP"):
            james_norm_bruteforce(FinSeq((1.0, 0.0) * 2049), 2.0)

    @settings(max_examples=150, deadline=None)
    @given(_with_tails(TIE_HEAVY, 9) | _with_tails(WIDE, 9), EXPONENTS)
    def test_bruteforce_equals_the_chain_definition_bit_for_bit(self, x, p):
        assert james_norm_bruteforce(x, p) == _every_chain(x, p)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_bruteforce_at_the_cap(self, p):
        # BRUTE_FORCE_CAP = 4096: L (L - 1) / 2 <= 2^23 pair sums, about a second
        r = random.Random(13)
        x = FinSeq(tuple(r.uniform(-1.0, 1.0) for _ in range(4095)))  # 4,096 canonical values
        assert james_norm_bruteforce(x, p) == james_norm(x, p)
        with pytest.raises(ResourceLimit, match="size 4097 exceeds the cap BRUTE_FORCE_CAP = 4096$"):
            james_norm_bruteforce(FinSeq(x.coeffs + (0.5,)), p)

    def test_bruteforce_at_the_cap_equals_the_chain_definition(self):
        # 16 canonical values, 2^16 - 17 chains: as far as the enumeration goes
        r = random.Random(16)
        x = FinSeq(tuple(r.uniform(-1.0, 1.0) for _ in range(15)), r.uniform(-1.0, 1.0))
        assert james_norm_bruteforce(x, 2.0) == _every_chain(x, 2.0)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_bruteforce_certifies_the_long_inputs_bit_for_bit(self, seed):
        # 2,000 values built as the benchmark's wide sequences are: a sine at p = 2
        # and uniform noise at p = 1.5
        rng = random.Random(seed)
        size = 2000
        freq, phase = rng.uniform(2.0, 8.0), rng.uniform(0.0, 2 * math.pi)
        sine = FinSeq(tuple(math.sin(2 * math.pi * freq * i / size + phase) for i in range(size)))
        noise = FinSeq(tuple(rng.uniform(-1.0, 1.0) for _ in range(size)))
        assert james_norm_bruteforce(sine, 2.0) == james_norm(sine, 2.0)
        assert james_norm_bruteforce(noise, 1.5) == james_norm(noise, 1.5)

    def test_bruteforce_certifies_the_quadratic_case_bit_for_bit(self):
        # lows and highs both rise, so no running extremum cuts the DP's scan short
        x = FinSeq(tuple(-(10.0**6) + i if i % 2 == 0 else float(i) for i in range(2000)))
        for p in (1.5, 2.0):
            assert james_norm_bruteforce(x, p) == james_norm(x, p)

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

    @pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("gapped", [False, True], ids=["adjacent", "gapped"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_ratio_obeys_the_block_bounds(self, p, gapped, data):
        # each block starts and ends on a nonzero value, so adjacent supports touch
        nonzero = st.floats(-4.0, 4.0).filter(lambda v: abs(v) >= 1e-3)
        body = st.one_of(
            st.tuples(nonzero),
            st.builds(lambda a, mid, b: (a, *mid, b),
                      nonzero, st.lists(st.floats(-4.0, 4.0), max_size=2), nonzero),
        )
        bodies = data.draw(st.lists(body, min_size=1, max_size=5))
        blocks, start = [], data.draw(st.integers(0, 2))
        for values in bodies:
            blocks.append(FinSeq((0.0,) * start + values))
            start += len(values) + (data.draw(st.integers(1, 2)) if gapped else 0)
        ratio = successive_block_ratio(blocks, p)
        assert ratio <= 2.0 ** (p - 1) * (1 + 1e-12)
        if gapped:
            assert ratio >= 1 - 1e-12

    def test_alternating_adjacent_spikes_approach_the_upper_bound(self):
        k = 200
        blocks = [FinSeq((0.0,) * i + ((-1.0) ** i,)) for i in range(k)]
        want = (4 * (k - 1) + 1) / (2 * k - 1)  # 797/399 at p = 2
        assert abs(successive_block_ratio(blocks, 2.0) - want) <= 1e-12 * want

    def test_rejects_overlapping_supports(self):
        with pytest.raises(InvalidInput):
            successive_block_ratio([FinSeq((1.0, 1.0)), FinSeq((0.0, 1.0))], 2.0)

    def test_rejects_nonzero_tail(self):
        with pytest.raises(InvalidInput):
            successive_block_ratio([FinSeq((1.0,), tail=1.0)], 2.0)

    def test_rejects_zero_block(self):
        with pytest.raises(InvalidInput):
            successive_block_ratio([FinSeq((1.0,)), FinSeq()], 2.0)
