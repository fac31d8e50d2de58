"""Orlicz norms, N-norms, delta transform, and the comparison lemmas."""

import math
import random
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from interlace import (
    InvalidInput,
    ModulusSpec,
    OrliczSpec,
    compare_lp,
    delta_transform,
    modulus_fixture,
    n_norm,
    orlicz_fixture,
    orlicz_norm,
    validate_modulus,
    validate_orlicz,
)
from interlace.errors import ResourceLimit, _short_repr
from interlace.orlicz import GRID, LONG, MAX_BRACKET_STEPS, STRIDE

# each is read by float() as a number, or is an int past the float range
NOT_NUMBERS = ["1", True, False, b"1", None, 10**400]


def _not_a_number(rule, value):
    """The InvalidInput that names a scalar parameter which is not an int or a float."""
    return pytest.raises(InvalidInput, match=f"^{rule}, got {re.escape(_short_repr(value))}$")


FIXTURE_KEYS = (
    "identity", "square", "sqrt", "log1p", "huber", "t_minus_log1p", "pow:1.5", "pow:3",
)


def plain_bisection(x, spec, tol=1e-10):
    """The Orlicz norm by plain bisection of the doubling/halving bracket: the oracle."""
    xs = [abs(float(v)) for v in x if v != 0.0]
    if not xs:
        return 0.0
    _, exp = math.frexp(max(xs))
    xs = [math.ldexp(v, -exp) for v in xs]
    try:
        tol = math.ldexp(tol, -exp)
    except OverflowError:
        tol = math.inf

    def total(r):
        try:
            s = sum(spec.fn(v / r) for v in xs)
        except OverflowError:
            return math.inf
        if math.isnan(s):
            raise InvalidInput("phi returned NaN")
        return s

    hi = lo = max(xs)
    if total(hi) > 1.0:
        for _ in range(MAX_BRACKET_STEPS):
            lo, hi = hi, hi * 2.0
            if total(hi) <= 1.0:
                break
        else:
            raise ResourceLimit("bracket search exceeded the doubling cap")
    else:
        for _ in range(MAX_BRACKET_STEPS):
            hi, lo = lo, lo / 2.0
            if total(lo) > 1.0:
                break
        else:
            return 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if total(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    return math.ldexp(hi, exp)


# mantissa times a power of ten: entries spread over twelve decades, zeros included
mixed_magnitudes = st.lists(
    st.builds(lambda m, e: m * 10.0**e, st.floats(-1.0, 1.0), st.integers(-6, 6)),
    min_size=1,
    max_size=40,
)


class TestValidation:
    def test_identity_is_admissible(self):
        report = validate_orlicz(orlicz_fixture("identity"))
        assert report.ok

    def test_square_is_orlicz_but_not_lipschitz(self):
        assert validate_orlicz(orlicz_fixture("square")).ok
        flagged = OrliczSpec(lambda t: t * t, is_one_lipschitz=True)
        report = validate_orlicz(flagged)
        assert any("Lipschitz" in v for v in report.violations)

    def test_sqrt_fails_convexity(self):
        report = validate_orlicz(orlicz_fixture("sqrt"))
        assert any("convexity" in v for v in report.violations)

    def test_log1p_is_not_an_orlicz_function(self):
        report = validate_orlicz(orlicz_fixture("log1p"))
        assert any("convexity" in v for v in report.violations)

    def test_log1p_slope_limit_violation_is_detected(self):
        forced = OrliczSpec(math.log1p, True, True)
        report = validate_orlicz(forced)
        assert any("slope" in v for v in report.violations)

    def test_admissible_fixtures(self):
        for key in ("huber", "t_minus_log1p"):
            assert validate_orlicz(orlicz_fixture(key)).ok, key

    def test_modulus_fixtures(self):
        for key in ("identity", "rational"):
            assert validate_modulus(modulus_fixture(key)).ok, key

    def test_bad_modulus_flagged(self):
        report = validate_modulus(ModulusSpec(lambda s: math.sqrt(s)))
        assert not report.ok

    def test_unknown_fixture_key(self):
        with pytest.raises(InvalidInput):
            orlicz_fixture("nope")
        with pytest.raises(InvalidInput):
            modulus_fixture("nope")

    def test_unparsable_pow_exponent(self):
        with pytest.raises(InvalidInput, match="'pow:abc'"):
            orlicz_fixture("pow:abc")

    @pytest.mark.parametrize("key", ["pow:nan", "pow:inf", "pow:-inf", "pow:0.5"])
    def test_pow_exponent_outside_its_domain(self, key):
        # a NaN exponent fails p < 1 as well as p >= 1, so it used to build a fixture
        with pytest.raises(InvalidInput, match=f"'{key}' needs a finite exponent p >= 1"):
            orlicz_fixture(key)

    def test_grid_is_geometric_with_exact_ends(self):
        assert len(GRID) == 512
        assert GRID[0] == 1e-6 and GRID[-1] == 1e3
        step = 10.0 ** (9.0 / 511)
        for a, b in zip(GRID, GRID[1:]):
            assert abs(b / a - step) <= 1e-12

    def test_nan_is_one_violation_at_the_first_point(self):
        always = lambda t: math.nan
        late = lambda t: math.nan if t > 2.0 else t
        assert validate_orlicz(OrliczSpec(always, True, True)).violations == (
            "phi returned NaN at t = 0",
        )
        assert validate_orlicz(OrliczSpec(late)).violations == (
            "phi returned NaN at t = 2.01969",
        )
        assert validate_modulus(ModulusSpec(always)).violations == (
            "fn returned NaN at t = 1e-06",
        )
        assert validate_modulus(ModulusSpec(late)).violations == (
            "fn returned NaN at t = 2.01969",
        )


class TestOrliczNorm:
    def test_l2_case(self):
        assert abs(orlicz_norm([3.0, 4.0], orlicz_fixture("pow:2")) - 5.0) < 1e-9

    def test_zero_vector(self):
        for vec in ([0.0, 0.0], [], [0], [-0.0], [0.0, -0.0, 0]):
            assert orlicz_norm(vec, orlicz_fixture("identity")) == 0.0

    def test_l1_case(self):
        got = orlicz_norm([1.0, 1.0, 1.0], orlicz_fixture("identity"))
        assert abs(got - 3.0) < 1e-9

    def test_lp_specialization_random(self):
        rng = random.Random(11)
        for _ in range(50):
            p = rng.choice([1.5, 2.0, 3.0])
            vec = [rng.uniform(-2, 2) for _ in range(rng.randint(1, 10))]
            want = sum(abs(v) ** p for v in vec) ** (1 / p)
            got = orlicz_norm(vec, orlicz_fixture(f"pow:{p}"))
            assert abs(got - want) <= 1e-8 * max(1.0, want)

    def test_large_scale_terminates(self):
        # absolute tolerance below one ulp: bisection must stop on its own
        got = orlicz_norm([1e9, 1e9], orlicz_fixture("pow:2"), tol=1e-10)
        want = 1e9 * math.sqrt(2)
        assert abs(got - want) <= 1e-6 * want

    def test_nan_from_phi_is_invalid_input(self):
        spec = OrliczSpec(lambda t: math.nan, True, True)
        with pytest.raises(InvalidInput, match="phi returned NaN"):
            orlicz_norm([1.0, 2.0], spec)

    def test_invalid_tol(self):
        with pytest.raises(InvalidInput):
            orlicz_norm([1.0], orlicz_fixture("identity"), tol=0.0)

    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
    def test_tol_outside_its_domain_is_invalid_input(self, tol):
        # a NaN tol used to skip the bisection and return the bracket's upper end
        with pytest.raises(InvalidInput, match="tol must be positive"):
            orlicz_norm([3.0, 4.0], orlicz_fixture("pow:2"), tol=tol)

    @pytest.mark.parametrize("tol", NOT_NUMBERS, ids=lambda v: _short_repr(v)[:12])
    def test_tol_is_an_int_or_a_float(self, tol):
        # a string was a TypeError, and True a tolerance of 1.0
        with _not_a_number("tol must be positive and finite", tol):
            orlicz_norm([3.0, 4.0], orlicz_fixture("pow:2"), tol=tol)
        spec = orlicz_fixture("huber")
        assert orlicz_norm([3.0, 4.0], spec, tol=1) == orlicz_norm([3.0, 4.0], spec, tol=1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(InvalidInput):
            orlicz_norm([bad, 1.0], orlicz_fixture("huber"))

    def test_near_the_largest_float(self):
        got = orlicz_norm([1e308, 1e308], orlicz_fixture("pow:2"))
        assert abs(got - 1e308 * math.sqrt(2)) <= 1e-9 * got
        with pytest.raises(InvalidInput):
            orlicz_norm([1e308, 1e308], orlicz_fixture("identity"))

    @settings(max_examples=60, deadline=None)
    @given(
        # magnitudes in [1e-6, 1e6] stay normal floats under every scaling drawn
        st.lists(st.floats(-1e6, 1e6).filter(lambda v: abs(v) >= 1e-6), min_size=1, max_size=8),
        st.integers(-600, 600),
        st.sampled_from(["identity", "huber", "pow:2", "pow:3", "t_minus_log1p"]),
    )
    def test_power_of_two_scaling_is_exact(self, vec, e, key):
        spec = orlicz_fixture(key)
        scaled = [math.ldexp(v, e) for v in vec]
        assert orlicz_norm(scaled, spec, math.ldexp(1e-10, e)) == math.ldexp(
            orlicz_norm(vec, spec), e
        )


class TestReplayedBisection:
    @pytest.mark.parametrize("tol", [1e-10, 1e-6, 1e-3])
    @pytest.mark.parametrize("key", FIXTURE_KEYS)
    def test_equals_the_plain_bisection(self, key, tol):
        spec = orlicz_fixture(key)
        rng = random.Random(f"{key}/{tol}")
        for _ in range(40):
            n = rng.choice([1, 2, 5, 30, 300])
            vec = [rng.uniform(-1.0, 1.0) * 10 ** rng.uniform(-3.0, 3.0) for _ in range(n)]
            assert orlicz_norm(vec, spec, tol) == plain_bisection(vec, spec, tol), vec

    @settings(max_examples=200, deadline=None)
    @given(
        mixed_magnitudes,
        # each phi here is non-decreasing at the float level: IEEE operations
        # and correctly rounded library functions of one argument
        st.sampled_from(["identity", "square", "sqrt", "huber", "pow:2", "pow:3"]),
        st.sampled_from([1e-10, 1e-6, 1e-3]),
    )
    def test_equals_the_plain_bisection_on_mixed_magnitudes(self, vec, key, tol):
        spec = orlicz_fixture(key)
        assert orlicz_norm(vec, spec, tol) == plain_bisection(vec, spec, tol)

    def test_sums_at_most_25_times_per_entry(self):
        rng = random.Random(3)
        vec = [rng.uniform(-1.0, 1.0) * 10 ** rng.uniform(-1.0, 1.0) for _ in range(3000)]
        huber = orlicz_fixture("huber")
        calls = 0

        def counted(t):
            nonlocal calls
            calls += 1
            return huber.fn(t)

        got = orlicz_norm(vec, OrliczSpec(counted, True, True))
        # the plain bisection evaluates about 46 sums here
        assert calls <= 25 * len(vec)
        assert got == plain_bisection(vec, huber)

    def test_secant_steps_creeping_by_one_gap_are_capped(self):
        # total(r) = 2 phi(1/r) is 2 up to r = 0.5 and exactly 1 on (0.5, 1], so
        # every secant point lands one gap below b; past MAX_BRACKET_STEPS such
        # sums the undecided midpoints are summed themselves
        def step(t):
            return 0.0 if t < 1.0 else 0.5 if t < 2.0 else 1.0

        def counted(norm):
            calls = 0

            def fn(t):
                nonlocal calls
                calls += 1
                return step(t)

            return norm([1.0, 1.0], OrliczSpec(fn)), calls // 2

        got, sums = counted(orlicz_norm)
        want, plain_sums = counted(plain_bisection)
        assert got == want
        assert sums <= plain_sums + MAX_BRACKET_STEPS

    def test_doubling_cap_is_named(self):
        with pytest.raises(ResourceLimit, match="MAX_BRACKET_STEPS = 64"):
            orlicz_norm([1.0], OrliczSpec(lambda t: 2.0))

    def test_an_overflowing_tol_still_ends_at_the_bracket(self):
        # ldexp(1e300, 40) overflows: the bracket is returned with no bisection step
        vec = [math.ldexp(1.0, -40), 3e-13]
        huber = orlicz_fixture("huber")
        assert orlicz_norm(vec, huber, 1e300) == plain_bisection(vec, huber, 1e300)


class TestPreprocessing:
    """|x| is scaled by the power of two of max|x_n| into one list."""

    @pytest.mark.parametrize("key", ["identity", "huber", "pow:3", "t_minus_log1p"])
    @pytest.mark.parametrize(
        "vec",
        [
            [-7, 3.5, -0.0, 2, 0],
            [-0.0, -1e-300, 5e-301, 0],
            [3, -0.0, -2**60, 1],
            [-0.0, -1.5],
        ],
    )
    def test_a_negative_top_signed_zeros_and_ints(self, vec, key):
        # the largest |x_n| is a negative entry in every vector
        spec = orlicz_fixture(key)
        assert orlicz_norm(vec, spec) == plain_bisection(vec, spec)

    def test_the_entries_are_copied_once_in_working_memory(self):
        # the entries (0.24 MB of list) and the scaled |x_n| (0.96 MB of list and
        # floats): 1.21 MB; a separate list of |x_n| took it to 1.93 MB
        rng = random.Random(5)
        vec = [rng.uniform(-5.0, 5.0) for _ in range(30_000)]
        huber = orlicz_fixture("huber")
        tracemalloc.start()
        try:
            got = orlicz_norm(vec, huber)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == plain_bisection(vec, huber)
        assert peak <= 1.4e6


class TestBracketSearch:
    """The powers max|x_n| 2^k that end the plain bisection's bracket, found by secant steps."""

    @staticmethod
    def counted(vec, spec, tol=1e-10):
        """orlicz_norm of vec and the number of O(n) sums it took."""
        calls = 0

        def fn(t):
            nonlocal calls
            calls += 1
            return spec.fn(t)

        got = orlicz_norm(vec, OrliczSpec(fn), tol)
        return got, calls / sum(1 for v in vec if v != 0.0)

    @pytest.mark.parametrize("tol", [1e-10, 1e-300])
    @pytest.mark.parametrize(
        "vec",
        [
            [1.0, 1.0, 1.0, 1.0],  # the root is the power 4 = 1 * 2^2 itself
            [1.0, 1.0, 1.0, 1.0 - 2.0**-51],  # one ulp below it
            [1.0, 1.0, 1.0, 1.0, 2.0**-50],  # one ulp above it
        ],
    )
    def test_roots_on_and_beside_a_power_of_two(self, vec, tol):
        identity = orlicz_fixture("identity")
        got, sums = self.counted(vec, identity, tol)
        assert got == plain_bisection(vec, identity, tol)
        assert abs(got - math.fsum(vec)) <= tol + 4 * math.ulp(4.0)
        assert sums <= 6  # 3 to 5; a secant point equal to b, summed again, led to 100

    def test_a_root_below_max_abs_x(self):
        # huber(1) = 0.5 <= 1: one halving gives the bracket [|x|/2, |x|] of the root |x|/1.5
        huber = orlicz_fixture("huber")
        for x in (1.0, 3.7, -1e-9, 2.5e12):
            got = orlicz_norm([x], huber)
            assert got == plain_bisection([x], huber)
            assert got == pytest.approx(abs(x) / 1.5, rel=1e-12, abs=1e-10)

    @staticmethod
    def step_at(k):
        """phi with total(r) = 2 for r < 2^k and 0 from there on, for x = [1.0]."""
        return OrliczSpec(lambda t: 2.0 if t > math.ldexp(1.0, -k) else 0.0)

    @pytest.mark.parametrize("k", [-63, -1, 0, 1, 64])
    def test_brackets_up_to_both_caps(self, k):
        # the root is the power 2^k = max|x_n| 2^k; k = -63 and 64 are the last
        # bracket ends MAX_BRACKET_STEPS halvings or doublings reach
        got, sums = self.counted([1.0], self.step_at(k))
        assert got == plain_bisection([1.0], self.step_at(k)) == math.ldexp(1.0, k)
        # a total that is 2 or 0 gives no secant: the bracket is found by powers
        # 2^(+-2^j), then halved; 8 to 22 sums here, where the plain bisection takes
        # 35 to 117
        assert sums <= 25

    def test_past_the_halving_cap_the_norm_is_zero(self):
        assert self.counted([1.0], self.step_at(-64)) == (0.0, 2)
        assert plain_bisection([1.0], self.step_at(-64)) == 0.0
        assert orlicz_norm([1.0, -2.0], OrliczSpec(lambda t: 0.0)) == 0.0

    def test_past_the_doubling_cap_is_a_named_resource_limit(self):
        with pytest.raises(ResourceLimit, match="the doubling cap MAX_BRACKET_STEPS = 64"):
            self.counted([1.0], self.step_at(65))
        with pytest.raises(ResourceLimit):
            plain_bisection([1.0], self.step_at(65))

    def test_sums_per_call_on_a_large_huber_vector(self):
        rng = random.Random(3)
        vec = [rng.uniform(-1.0, 1.0) * 10 ** rng.uniform(-1.0, 1.0) for _ in range(3000)]
        huber = orlicz_fixture("huber")
        got, sums = self.counted(vec, huber)
        # 5 sums here, where the plain bisection takes 45
        assert sums <= 6
        assert got == plain_bisection(vec, huber)

    @pytest.mark.parametrize("seed", range(10))
    def test_sums_per_call_on_a_large_t_minus_log1p_vector(self, seed):
        # the costliest fixture of the benchmark's wide vectors: phi goes from t^2/2
        # near 0 to t at infinity, so log total bends between slopes -2 and -1;
        # 8 or 9 sums here, where the plain bisection takes 43 to 45
        rng = random.Random(seed)
        vec = [rng.uniform(-1.0, 1.0) * 10 ** rng.uniform(-1.0, 1.0) for _ in range(3000)]
        spec = orlicz_fixture("t_minus_log1p")
        got, sums = self.counted(vec, spec)
        assert sums <= 9
        assert got == plain_bisection(vec, spec)

    @pytest.mark.parametrize("key", ["square", "pow:1.5", "pow:3"])
    def test_sums_per_call_over_eight_decades(self, key):
        # log total is close to a line in log r for a power-like phi: at most 6 sums
        # on each vector here, where a linear secant in the replay takes up to 11
        spec = orlicz_fixture(key)
        rng = random.Random(key)
        for _ in range(20):
            vec = [rng.uniform(-1.0, 1.0) * 10 ** rng.uniform(-4.0, 4.0) for _ in range(30)]
            got, sums = self.counted(vec, spec, 1e-6)
            assert got == plain_bisection(vec, spec, 1e-6)
            assert sums <= 7

    def test_a_flat_line_next_to_the_root_steps_from_the_known_end(self):
        # the third 3,000-entry vector of the seeded identity/1e-10 cases: the sums at
        # m T and at three secant points all total 1 + a few ulps, the line through
        # the last two is flat, and squaring the end's ratio to m jumped to 8,332 m
        # and came back by median powers: 11 sums, where a power gallop took 7
        rng = random.Random("identity/1e-10")
        vecs = [
            [rng.uniform(-1, 1) * 10 ** rng.uniform(-4, 4) for _ in range(n)]
            for n in (1, 2, 5, 30, 300, 3000)
            for _ in range(7)
        ]
        vec = vecs[-5]
        identity = orlicz_fixture("identity")
        got, sums = self.counted(vec, identity)
        assert got == plain_bisection(vec, identity)
        assert sums <= 7  # 6 here

    @pytest.mark.parametrize("seed", range(5))
    def test_sums_per_call_where_the_total_is_1_over_several_ulps(self, seed):
        # sqrt over 10^(+-4) at tol 1e-10: total(r) is exactly 1 over several ulps,
        # which Illinois steps can pass one ulp at a time; 5 to 7 sums here, where
        # the plain bisection takes 66
        rng = random.Random(seed)
        vec = [rng.uniform(-1.0, 1.0) * 10 ** rng.uniform(-4.0, 4.0) for _ in range(1000)]
        root = orlicz_fixture("sqrt")
        got, sums = self.counted(vec, root)
        assert sums <= 8
        assert got == plain_bisection(vec, root)


class TestLongVectors:
    """From LONG nonzero entries on, a strided subsample places the first two sums,
    and a settled secant estimate the last two; the float stays the plain bisection's."""

    counted = staticmethod(TestBracketSearch.counted)

    @pytest.mark.parametrize("tol", [1e-10, 1e-6, 1e-3])
    @pytest.mark.parametrize("key", FIXTURE_KEYS)
    def test_equals_the_plain_bisection(self, key, tol):
        spec = orlicz_fixture(key)
        rng = random.Random(f"long/{key}/{tol}")
        for decades in (1.0, 4.0):
            vec = [rng.uniform(-1.0, 1.0) * 10 ** rng.uniform(-decades, decades)
                   for _ in range(5000)]
            assert orlicz_norm(vec, spec, tol) == plain_bisection(vec, spec, tol)

    @pytest.mark.parametrize(
        "key", ["identity", "square", "sqrt", "log1p", "huber", "t_minus_log1p", "pow:3"]
    )
    def test_dominant_entries_off_the_stride(self, key):
        # the subsample reads every STRIDE-th entry and max|x_n|: it sees one of the
        # ten large entries and the noise, so its root is far off, and the full sums
        # find the root from there (3 to 9 sums here, where the search of shorter
        # vectors takes 3 to 8)
        rng = random.Random(key)
        vec = [rng.uniform(-1e-6, 1e-6) for _ in range(5000)]
        large = range(7, 5000, 500)
        assert not any(i % STRIDE == 0 for i in large)
        for i in large:
            vec[i] = rng.uniform(1.0, 3.0)
        spec = orlicz_fixture(key)
        got, sums = self.counted(vec, spec)
        assert got == plain_bisection(vec, spec)
        assert sums <= 9

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("key, bound", [("huber", 3.5), ("t_minus_log1p", 5.5), ("pow:3", 3.5)])
    def test_sums_per_call_on_30000_entries(self, key, bound, seed):
        # the benchmark's wide vectors: the subsample's phi calls count too, at
        # 1/STRIDE of a sum each; the search of shorter vectors took 4 to 9 sums here
        rng = random.Random(seed)
        vec = [rng.uniform(-1.0, 1.0) * 10 ** rng.uniform(-1.0, 1.0) for _ in range(30_000)]
        spec = orlicz_fixture(key)
        got, sums = self.counted(vec, spec)
        assert got == plain_bisection(vec, spec)
        assert sums <= bound

    def test_shorter_vectors_make_only_full_sums(self):
        # below LONG nonzero entries every phi call belongs to a full sum, whose
        # first point is max|x_n|; zeros do not count towards LONG
        huber = orlicz_fixture("huber")
        rng = random.Random(7)
        vec = [rng.uniform(-1.0, 1.0) * 10 ** rng.uniform(-1.0, 1.0) for _ in range(LONG)]
        short = [0.0, *vec[1:]]
        calls = []

        def fn(t):
            calls.append(t)
            return huber.fn(t)

        assert orlicz_norm(short, OrliczSpec(fn)) == plain_bisection(short, huber)
        assert len(calls) % (LONG - 1) == 0
        assert calls[0] == abs(short[1]) / max(map(abs, short))
        got, sums = self.counted(vec, huber)
        assert got == plain_bisection(vec, huber)
        assert sums % 1.0 != 0.0  # the subsample's calls


class TestNNorm:
    def test_zero_first_coordinate(self):
        spec = orlicz_fixture("t_minus_log1p")
        assert n_norm([0.0, -3.5], spec) == 3.5

    def test_identity_reduces_to_l1(self):
        assert n_norm([1.0, 2.0, 3.0], orlicz_fixture("identity")) == 6.0

    def test_single_coordinate(self):
        assert n_norm([-2.0], orlicz_fixture("huber")) == 2.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(InvalidInput):
            n_norm([1.0, bad], orlicz_fixture("huber"))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(-1e6, 1e6), max_size=8),
        st.data(),
        st.sampled_from([math.nan, math.inf, -math.inf]),
    )
    def test_non_finite_anywhere_is_rejected(self, vec, data, bad):
        pos = data.draw(st.integers(0, len(vec)))
        with pytest.raises(InvalidInput):
            n_norm(vec[:pos] + [bad] + vec[pos:], orlicz_fixture("huber"))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8),
        st.sampled_from(["identity", "huber", "t_minus_log1p"]),
    )
    def test_bounded_finite_input_gives_a_finite_norm(self, vec, key):
        assert math.isfinite(n_norm(vec, orlicz_fixture(key)))

    def test_tiny_first_coordinate_and_overflow(self):
        # |t| / |s| overflows: s * phi(|t| / |s|) is at its limit |t|
        assert n_norm([5e-324, 1.0], orlicz_fixture("huber")) == 1.0
        with pytest.raises(InvalidInput):
            n_norm([1e308, 1e308], orlicz_fixture("identity"))

    def test_nan_from_phi_is_invalid_input(self):
        spec = OrliczSpec(lambda t: math.nan, True, True)
        with pytest.raises(InvalidInput, match="phi returned NaN"):
            n_norm([1.0, 2.0], spec)

    def test_requires_declared_flags(self):
        with pytest.raises(InvalidInput):
            n_norm([1.0, 2.0], orlicz_fixture("log1p"))
        with pytest.raises(InvalidInput):
            n_norm([1.0], orlicz_fixture("square"))

    def test_sandwich_sampled(self):
        rng = random.Random(23)
        for key in ("identity", "huber", "t_minus_log1p"):
            spec = orlicz_fixture(key)
            for _ in range(100):
                vec = [rng.uniform(-3, 3) for _ in range(rng.randint(1, 15))]
                base = orlicz_norm(vec, spec)
                if base == 0.0:
                    continue
                value = n_norm(vec, spec)
                assert 0.5 * base - 1e-8 <= value <= math.e * base + 1e-8

    def test_sandwich_fails_for_concave_log(self):
        # documents why log(1+t) is rejected: slope limit 0 collapses the rule
        forced = OrliczSpec(math.log1p, True, True)
        vec = [1e-6, 1e6]
        value = n_norm(vec, forced)
        base = orlicz_norm(vec, forced)
        assert value < 0.5 * base

    def test_monotone_for_bounded_curvature(self):
        rng = random.Random(31)
        for key in ("identity", "huber"):
            spec = orlicz_fixture(key)
            for _ in range(200):
                big = [rng.uniform(-2, 2) * 10 ** rng.uniform(-2, 2) for _ in range(10)]
                small = [v * rng.uniform(0, 1) for v in big]
                assert n_norm(small, spec) <= n_norm(big, spec) * (1 + 1e-12) + 1e-12

    def test_monotonicity_genuinely_fails_for_heavy_tailed_curvature(self):
        # u phi'(u) - phi(u) is unbounded for t - log(1+t); domination can reverse
        spec = orlicz_fixture("t_minus_log1p")
        assert n_norm([0.001, 1000.0], spec) > n_norm([0.01, 1000.0], spec)

    def test_homogeneity_sampled(self):
        rng = random.Random(47)
        for key in ("identity", "huber", "t_minus_log1p"):
            spec = orlicz_fixture(key)
            for _ in range(100):
                x = [rng.uniform(-2, 2) for _ in range(rng.randint(1, 10))]
                lam = rng.choice([0.25, 0.5, 2.0, 7.5])
                got = n_norm([lam * v for v in x], spec)
                assert abs(got - lam * n_norm(x, spec)) <= 1e-9 * max(1.0, got)

    def test_triangle_inequality_for_bounded_curvature(self):
        # N_2(s,t) = s (1 + phi(t/s)) is a perspective function, hence jointly
        # convex and subadditive; the induction to N_n additionally needs
        # monotonicity in the first slot, i.e. u phi'(u) - phi(u) <= 1
        rng = random.Random(53)
        for key in ("identity", "huber"):
            spec = orlicz_fixture(key)
            for _ in range(200):
                L = rng.randint(1, 10)
                x = [rng.uniform(-2, 2) for _ in range(L)]
                y = [rng.uniform(-2, 2) for _ in range(L)]
                both = n_norm([a + b for a, b in zip(x, y)], spec)
                assert both <= n_norm(x, spec) + n_norm(y, spec) + 1e-9

    def test_triangle_fails_for_heavy_tailed_curvature(self):
        # with unbounded u phi'(u) - phi(u) the first-slot monotonicity breaks
        # and with it the triangle inequality, by small but real margins
        spec = orlicz_fixture("t_minus_log1p")
        x = [0.45194282916516526, -1.2741527371441999, -1.688269511313608]
        y = [-0.3559227269807268, -1.102320687123448, -1.2963574251341692]
        both = n_norm([a + b for a, b in zip(x, y)], spec)
        assert both > n_norm(x, spec) + n_norm(y, spec) + 1e-3


class TestDeltaTransform:
    def test_identity_modulus(self):
        mod = modulus_fixture("identity")
        for t in (0.1, 1.0, 2.0):
            assert abs(delta_transform(mod, t) - t) <= 0.01 * t

    def test_zero(self):
        assert delta_transform(modulus_fixture("rational"), 0.0) == 0.0

    @pytest.mark.parametrize("t", NOT_NUMBERS, ids=lambda v: _short_repr(v)[:12])
    def test_t_is_an_int_or_a_float(self, t):
        # float() read "1" and True, and raised OverflowError on 10**400
        mod = modulus_fixture("rational")
        with _not_a_number("t must be finite and non-negative", t):
            delta_transform(mod, t)
        assert delta_transform(mod, 2) == delta_transform(mod, 2.0)

    def test_rational_modulus_closed_form(self):
        # integral of s/(1+s) is t - log(1+t)
        mod = modulus_fixture("rational")
        for t in (0.1, 0.5, 1.0, 2.0):
            want = t - math.log1p(t)
            assert abs(delta_transform(mod, t) - want) <= 0.01 * want

    @pytest.mark.parametrize("steps", [16, 256])
    @pytest.mark.parametrize("t", [1e-3, 0.1, 1.0, 2.0, 50.0])
    @pytest.mark.parametrize(
        "key, closed_form", [("identity", lambda t: t), ("rational", lambda t: t - math.log1p(t))]
    )
    def test_midpoint_enclosure(self, key, closed_form, t, steps):
        # f(s) = mod(s)/s is non-decreasing: the midpoint sum over [eps, t] is within
        # h (f(t) - f(eps)) of the integral, and the head mod(eps) within mod(eps) of its piece
        mod = modulus_fixture(key)
        eps = t / (steps * steps)
        h = (t - eps) / steps
        bound = h * (mod.fn(t) / t - mod.fn(eps) / eps) + mod.fn(eps)
        assert abs(delta_transform(mod, t, steps) - closed_form(t)) <= bound + 1e-13 * t

    def test_sandwich(self):
        for key in ("identity", "rational"):
            mod = modulus_fixture(key)
            for t in (0.1, 0.5, 1.0, 2.0):
                val = delta_transform(mod, t)
                assert mod.fn(t / 2) <= val * 1.01
                assert val <= mod.fn(t) * 1.01

    def test_invalid_arguments(self):
        mod = modulus_fixture("identity")
        with pytest.raises(InvalidInput):
            delta_transform(mod, -1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(InvalidInput):
                delta_transform(mod, bad)
        with pytest.raises(InvalidInput):
            delta_transform(mod, 1.0, steps=8)

    @pytest.mark.parametrize("steps", [16.0, True, "256", None])
    def test_steps_must_be_an_int(self, steps):
        with pytest.raises(InvalidInput, match=f"steps must be an int, got {steps!r}"):
            delta_transform(modulus_fixture("identity"), 1.0, steps=steps)

    def test_result_beyond_the_float_range(self):
        # s^2/(1+s) overflows for s above about 1.3e154
        with pytest.raises(InvalidInput, match=r"delta\(1e\+200\) for modulus 'rational'"):
            delta_transform(modulus_fixture("rational"), 1e200)
        assert delta_transform(modulus_fixture("identity"), 1e308) == pytest.approx(1e308)


    @settings(max_examples=40, deadline=None)
    @example("identity", 5e-324, math.nan)  # its first midpoint underflows to 0
    @given(
        st.sampled_from(["identity", "rational"]),
        st.floats(0.0, 1e6),
        st.sampled_from([math.nan, math.inf, -math.inf]),
    )
    def test_finite_t_is_finite_and_non_finite_t_is_rejected(self, key, t, bad):
        mod = modulus_fixture(key)
        assert math.isfinite(delta_transform(mod, t))
        with pytest.raises(InvalidInput):
            delta_transform(mod, bad)


class TestCompareLp:
    @pytest.mark.parametrize("p", NOT_NUMBERS, ids=lambda v: _short_repr(v)[:12])
    def test_p_is_an_int_or_a_float(self, p):
        # a string was a TypeError, and 10**400 an OverflowError
        spec = orlicz_fixture("huber")
        with _not_a_number("p must be finite and >= 1", p):
            compare_lp(spec, p, "upper", [[0.5, 0.25]])
        assert compare_lp(spec, 2, "upper", [[0.5]]) == compare_lp(spec, 2.0, "upper", [[0.5]])

    def test_power_matches_exactly(self):
        rng = random.Random(5)
        samples = [[rng.uniform(-2, 2) for _ in range(5)] for _ in range(20)]
        rep = compare_lp(orlicz_fixture("pow:2"), 2.0, "upper", samples)
        assert rep.applicable
        assert abs(rep.worst_ratio - 1.0) <= 1e-7
        rep = compare_lp(orlicz_fixture("pow:2"), 2.0, "lower", samples)
        assert abs(rep.worst_ratio - 1.0) <= 1e-7

    def test_identity_lower_side_spike(self):
        rep = compare_lp(orlicz_fixture("identity"), 2.0, "lower", [[1.0]])
        assert rep.applicable
        assert abs(rep.worst_ratio - 1.0) <= 1e-9

    def test_identity_upper_side_inapplicable(self):
        # t <= C t^2 fails toward 0
        rep = compare_lp(orlicz_fixture("identity"), 2.0, "upper", [[1.0, 0.5]])
        assert not rep.applicable

    def test_huber_upper_bound(self):
        rng = random.Random(9)
        samples = [[rng.uniform(-1, 1) for _ in range(6)] for _ in range(30)]
        rep = compare_lp(orlicz_fixture("huber"), 2.0, "upper", samples)
        assert rep.applicable
        assert math.isfinite(rep.worst_ratio)

    def test_n_norm_variant_lower_bound(self):
        # the transform of the rational modulus has a quadratic head, so the
        # N-norm dominates a multiple of l_2; the sandwich costs a factor 1/2
        rng = random.Random(21)
        samples = [[rng.uniform(-1, 1) for _ in range(8)] for _ in range(40)]
        spec = orlicz_fixture("t_minus_log1p")
        plain = compare_lp(spec, 2.0, "lower", samples)
        nn_worst = min(n_norm(v, spec) / math.hypot(*v) for v in samples)
        assert plain.applicable
        assert nn_worst > 0.0
        assert nn_worst >= 0.5 * plain.worst_ratio - 1e-9

    def test_lp_norm_does_not_underflow(self):
        # (1e-4)^100 is 0.0 in floats; the sample must still count
        rep = compare_lp(orlicz_fixture("huber"), 100.0, "upper", [[1e-4]])
        assert rep.n_samples == 1
        assert math.isfinite(rep.worst_ratio) and rep.worst_ratio > 0.0

    @pytest.mark.parametrize("p", [1000.0, 1100.0, 3000.0, 1e308])
    @pytest.mark.parametrize("samples", [[[0.5], [0.9], [0.75, 0.1]], [[1.0, 2.0], [-0.5]]])
    def test_no_sample_is_dropped_at_a_large_p(self, p, samples):
        # scaled by the power of two of max|x_n| instead of by max|x_n|, the largest
        # term lay in [0.5, 1), and its p-th power underflowed from p = 1075 on
        for side in ("upper", "lower"):
            rep = compare_lp(orlicz_fixture("huber"), p, side, samples)
            assert rep.n_samples == len(samples)
            assert math.isfinite(rep.worst_ratio) and rep.worst_ratio > 0.0

    @pytest.mark.parametrize("p", [54.0, 1100.0, 1e308])
    def test_a_ratio_beyond_the_float_range_at_the_left_edge_blows_up(self, p):
        # from p = 54 on the grid ratio at t = 1e-6 is inf; once every t^p on the grid
        # underflows, the right edge is inf too, and inf > 10 inf failed: p = 1e308 read
        # as applicable with grid constant inf
        rep = compare_lp(orlicz_fixture("huber"), p, "upper", [[0.5], [0.9], [0.75, 0.1]])
        assert rep.grid_constant == math.inf
        assert not rep.applicable and "blows up toward 0" in rep.note

    def test_a_lower_grid_constant_beyond_the_float_range_is_inapplicable(self):
        # at p = 1e308 every t^p on the grid underflows, so every grid ratio is inf;
        # the lower side read as applicable with grid constant inf
        samples = [[0.5], [0.9], [0.75, 0.1]]
        rep = compare_lp(orlicz_fixture("huber"), 1e308, "lower", samples)
        assert rep.grid_constant == math.inf
        assert not rep.applicable
        assert rep.note == "phi(t)/t^p is beyond the float range; no lower constant"
        assert rep.n_samples == len(samples) and math.isfinite(rep.worst_ratio)
        # a large p whose grid still holds a finite ratio keeps its constant
        rep = compare_lp(orlicz_fixture("huber"), 3000.0, "lower", samples)
        assert rep.applicable and math.isfinite(rep.grid_constant) and rep.note == ""

    def test_an_lp_norm_beyond_the_float_range_is_invalid_input(self):
        # ||(1e308, 1e308)||_1 = 2e308: this was an OverflowError, and computed as
        # max|x_n| times a sum it would read as inf and give the ratio 0
        with pytest.raises(InvalidInput, match="l_p norm of a sample exceeds the largest float"):
            compare_lp(orlicz_fixture("pow:2"), 1.0, "upper", [[1e308, 1e308]])

    @pytest.mark.parametrize(
        "p, samples",
        [
            (2.0, []),
            (2.0, [[0.0, 0.0], [0.0]]),
        ],
    )
    def test_no_sample_with_a_nonzero_lp_norm_is_invalid_input(self, p, samples):
        for side in ("upper", "lower"):
            with pytest.raises(InvalidInput, match="no sample has a nonzero l_p norm"):
                compare_lp(orlicz_fixture("huber"), p, side, samples)

    def test_invalid_side(self):
        with pytest.raises(InvalidInput):
            compare_lp(orlicz_fixture("identity"), 2.0, "sideways", [])

    def test_nan_from_phi_is_invalid_input(self):
        spec = OrliczSpec(lambda t: math.nan, True, True)
        with pytest.raises(InvalidInput, match="phi returned NaN"):
            compare_lp(spec, 2.0, "upper", [[1.0, 2.0]])
