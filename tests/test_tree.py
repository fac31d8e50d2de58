"""James-tree norm solvers, witnesses, and the branch embeddings."""

import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from interlace import (
    Branch,
    InvalidInput,
    ResourceLimit,
    Segment,
    TreeVec,
    enumerate_tuples,
    f_difference_segments,
    f_embed,
    f_separation,
    g_embed,
    g_separation,
    is_adjacent,
    itup,
    jt_family_value,
    jt_norm_bruteforce,
    jt_norm_exact,
    pair,
    segment_functional,
)
from interlace.tree import JT_SUPPORT_CAP

SQ2 = math.sqrt(2)


def two_branch_vecs():
    bits = st.text(alphabet="01", min_size=3, max_size=3)
    vals = st.sampled_from([-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5])

    def build(a, b, draws):
        nodes = sorted({n[:j] for n in (a, b) for j in range(4)}, key=lambda s: (len(s), s))
        return TreeVec({v: draws[i % len(draws)] for i, v in enumerate(nodes)})

    return st.builds(build, bits, bits, st.lists(vals, min_size=7, max_size=7))


def bush_vecs():
    """Three or four root branches at depth 4-6: outside both former modes
    (support depth <= 3, or support within two root branches)."""
    vals = st.sampled_from([-1.5, -1.0, -0.5, 0.5, 1.0, 1.5])
    leaves = st.sets(st.text(alphabet="01", min_size=4, max_size=6), min_size=3, max_size=4)

    @st.composite
    def build(draw):
        tips = sorted(draw(leaves))
        maximal = [a for a in tips if not any(b != a and b.startswith(a) for b in tips)]
        assume(len(maximal) >= 3)
        entries = {leaf: draw(vals) for leaf in maximal}
        closure = sorted({t[:j] for t in maximal for j in range(len(t))})
        extra = draw(st.lists(st.sampled_from(closure), max_size=12 - len(entries)))
        for node in extra:
            entries[node] = draw(vals)
        return TreeVec(entries)

    return build()


class TestSegments:
    def test_root_singleton(self):
        assert Segment("", "").nodes() == [""]

    def test_two_node_chain(self):
        assert Segment("0", "00").nodes() == ["0", "00"]

    def test_root_to_depth_three(self):
        assert Segment("", "101").nodes() == ["", "1", "10", "101"]

    def test_rejects_non_prefix(self):
        with pytest.raises(InvalidInput):
            Segment("1", "01")

    def test_rejects_bad_bits(self):
        with pytest.raises(InvalidInput):
            Segment("2", "20")

    @pytest.mark.parametrize("lo", [b"0", 0])
    def test_rejects_non_string_lower_end(self, lo):
        with pytest.raises(InvalidInput):
            Segment(lo, "00")


class TestTreeVec:
    def test_drops_zeros(self):
        assert TreeVec({"0": 0.0, "1": 2.0}).support == ("1",)

    def test_arithmetic(self):
        x, y = TreeVec({"0": 1.0}), TreeVec({"0": -1.0, "11": 0.5})
        assert (x + y).support == ("11",)
        assert (2.0 * x).value("0") == 2.0

    def test_json_round_trip(self):
        x = TreeVec({"": 1.0, "01": -0.5})
        assert TreeVec.from_json_dict(x.to_json_dict()) == x

    def test_support_cap_enforced_on_load(self):
        deep = TreeVec.from_json_dict({"0" * 9: 1.0})
        assert jt_norm_exact(deep)[0] == 1.0
        at_cap = {format(i, "012b"): 1.0 for i in range(JT_SUPPORT_CAP)}
        assert len(TreeVec.from_json_dict(at_cap).entries) == JT_SUPPORT_CAP
        with pytest.raises(ResourceLimit, match="JT_SUPPORT_CAP = 4096"):
            TreeVec.from_json_dict({format(i, "013b"): 1.0 for i in range(4097)})

    def test_rejects_bad_keys(self):
        for key in ("ab", "012", " ", "0\n", b"01", 5):
            with pytest.raises(InvalidInput):
                TreeVec({key: 1.0})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "x", None])
    def test_rejects_non_finite_and_non_numeric_entries(self, bad):
        with pytest.raises(InvalidInput):
            TreeVec({"0": bad})


class TestBranch:
    def test_prefix(self):
        assert Branch("0110").prefix(0) == ""
        assert Branch("0110").prefix(3) == "011"

    def test_too_short(self):
        with pytest.raises(InvalidInput):
            Branch("01").prefix(3)


class TestJTNorm:
    def test_unit_vector_at_root(self):
        norm, witness = jt_norm_exact(TreeVec({"": 1.0}))
        assert norm == 1.0
        assert jt_family_value(TreeVec({"": 1.0}), witness) == 1.0

    def test_incomparable_pair(self):
        norm, _ = jt_norm_exact(TreeVec({"0": 1.0, "1": 1.0}))
        assert abs(norm - SQ2) < 1e-12

    def test_single_segment_beats_split(self):
        norm, _ = jt_norm_exact(TreeVec({"0": 0.5, "00": 0.5}))
        assert abs(norm - 1.0) < 1e-12

    def test_zero_vector(self):
        norm, witness = jt_norm_exact(TreeVec({}))
        assert norm == 0.0 and witness == []

    def test_family_value_empty(self):
        assert jt_family_value(TreeVec({"0": 1.0}), []) == 0.0

    def test_family_value_rejects_overlap(self):
        x = TreeVec({"0": 1.0})
        with pytest.raises(InvalidInput):
            jt_family_value(x, [Segment("", "0"), Segment("0", "00")])

    def test_family_value_full_branch_segment_on_g_image(self):
        for k in (2, 8):
            sigma = Branch("0" * k)
            image = g_embed(sigma, k, itup(*range(1, k + 1)))
            seg = Segment(sigma.prefix(1), sigma.prefix(k))
            got = jt_family_value(image, [seg])  # segment sum is k / sqrt(2k)
            assert abs(got - math.sqrt(k / 2.0)) < 1e-12

    def test_cancellation_forces_split(self):
        # signs flip along the chain: two short segments beat one long one
        x = TreeVec({"": 1.0, "0": -1.0, "00": 1.0})
        norm, witness = jt_norm_exact(x)
        assert abs(norm - math.sqrt(3)) < 1e-12
        assert abs(jt_family_value(x, witness) - norm) < 1e-12

    def test_former_out_of_scope_inputs_match_oracle(self):
        # too deep for a depth-3 enumeration, or spread over more than two
        # root branches; each is now solved exactly
        for entries, want in (
            ({"0000": 1.0}, 1.0),
            ({"00": 1.0, "01": 1.0, "10": 1.0}, math.sqrt(3)),
            ({"0000": 1.0, "0100": 1.0, "1000": 1.0, "1100": 1.0}, 2.0),
        ):
            x = TreeVec(entries)
            norm, witness = jt_norm_exact(x)
            assert abs(norm - want) < 1e-12
            assert abs(norm - jt_norm_bruteforce(x)) < 1e-12
            assert abs(jt_family_value(x, witness) - norm) < 1e-12

    def test_spider_handles_depth_beyond_exhaustive(self):
        x = TreeVec({"0" * j: 1.0 if j % 2 == 0 else -1.0 for j in range(7)})
        norm, witness = jt_norm_exact(x)
        assert abs(jt_family_value(x, witness) - norm) < 1e-12
        assert abs(norm - math.sqrt(7)) < 1e-12  # alternating signs: 7 singletons

    def test_path_deeper_than_the_recursion_limit(self):
        depth = 1200
        x = TreeVec({"0" * j: 1.0 if j % 2 == 0 else -1.0 for j in range(depth + 1)})
        norm, witness = jt_norm_exact(x)
        assert abs(norm - math.sqrt(depth + 1)) < 1e-12 * norm
        assert len(witness) == depth + 1  # alternating signs: all singletons

    def test_cost_does_not_grow_with_string_length(self):
        # two entries below a common stem of length 10**5: a three-node virtual tree
        stem = "0" * (10**5 - 1)
        x = TreeVec({stem + "0": 1.0, stem + "1": 2.0})
        norm, witness = jt_norm_exact(x)
        assert abs(norm - math.sqrt(5)) < 1e-12
        assert witness == [Segment(stem + "0", stem + "0"), Segment(stem + "1", stem + "1")]

    def test_huge_entries_do_not_overflow(self):
        x = TreeVec({"0": 1e200, "00": 1e200})
        norm, witness = jt_norm_exact(x)
        assert norm == 2e200
        assert witness == [Segment("0", "00")]
        assert jt_family_value(x, witness) == 2e200
        with pytest.raises(InvalidInput):
            jt_family_value(TreeVec({"0": 1e308, "00": 1e308}), witness)

    def test_bruteforce_cap_is_named(self):
        x = TreeVec({"0" * j: 1.0 for j in range(13)})
        with pytest.raises(ResourceLimit, match="BRUTE_FORCE_SUPPORT_CAP"):
            jt_norm_bruteforce(x)

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(two_branch_vecs(), bush_vecs()))
    def test_solver_equivalence(self, x):
        val, wit = jt_norm_exact(x)
        assert abs(val - jt_norm_bruteforce(x)) <= 1e-12 * max(1.0, val)
        assert abs(jt_family_value(x, wit) - val) <= 1e-12 * max(1.0, val)

    @settings(max_examples=50, deadline=None)
    @given(two_branch_vecs(), two_branch_vecs(), st.sampled_from([0.25, 0.5, 2.0]))
    def test_norm_axioms(self, x, y, lam):
        nx, _ = jt_norm_exact(x)
        ny, _ = jt_norm_exact(y)
        nxy, _ = jt_norm_exact(x + y)
        assert nxy <= nx + ny + 1e-9
        nlx, _ = jt_norm_exact(lam * x)
        assert abs(nlx - lam * nx) <= 1e-12 * max(1.0, nlx)

    @settings(max_examples=40, deadline=None)
    @given(two_branch_vecs())
    def test_segment_functionals_lie_in_the_dual_ball(self, x):
        norm, _ = jt_norm_exact(x)
        for hi in ("", "0", "01", "111"):
            for j in range(len(hi) + 1):
                seg = Segment(hi[:j], hi)
                assert pair(segment_functional(seg), x) <= norm + 1e-12


class TestPair:
    def test_biorthogonal(self):
        assert pair(TreeVec({"01": 1.0}), TreeVec({"01": 1.0})) == 1.0
        assert pair(TreeVec({"01": 1.0}), TreeVec({"1": 1.0})) == 0.0

    def test_segment_functional_sums(self):
        x = TreeVec({"": 1.0, "0": 2.0, "00": -3.0, "1": 7.0})
        assert pair(segment_functional(Segment("", "00")), x) == 0.0


class TestGEmbedding:
    def test_basic_image(self):
        sigma = Branch("000")
        vec = g_embed(sigma, 2, itup(1, 2))
        assert vec == TreeVec({"0": 0.5, "00": 0.5})
        assert abs(jt_norm_exact(vec)[0] - 1.0) < 1e-12

    def test_singleton_norm(self):
        vec = g_embed(Branch("0000"), 1, itup(3))
        assert abs(jt_norm_exact(vec)[0] - 1 / SQ2) < 1e-12

    def test_adjacent_pairs_are_one_lipschitz(self):
        sigma = Branch("0" * 7)
        for k in (1, 2, 3):
            verts = enumerate_tuples(range(1, 7), k)
            for n, m in itertools.combinations(verts, 2):
                if not is_adjacent(n, m):
                    continue
                diff = g_embed(sigma, k, n) - g_embed(sigma, k, m)
                norm, _ = jt_norm_exact(diff)
                assert norm <= 1.0 + 1e-9

    def test_branch_too_short(self):
        with pytest.raises(InvalidInput):
            g_embed(Branch("0"), 1, itup(5))

    def test_arity_mismatch(self):
        with pytest.raises(InvalidInput):
            g_embed(Branch("000"), 2, itup(1, 2, 3))


class TestFEmbedding:
    def test_depth_one(self):
        vec = f_embed(Branch("0"), 1, itup(1))
        assert vec == TreeVec({"": 1.0, "0": 1.0})

    def test_depth_two_counts_prefixes(self):
        vec = f_embed(Branch("00"), 2, itup(1, 2))
        want = {"": 2 / SQ2, "0": 2 / SQ2, "00": 1 / SQ2}
        assert set(vec.entries) == set(want)
        for key, val in want.items():
            assert abs(vec.value(key) - val) < 1e-12

    def test_difference_decomposition(self):
        sigma = Branch("0" * 8)
        for k in (1, 2, 3):
            verts = enumerate_tuples(range(1, 7), k)
            for n, m in itertools.combinations(verts, 2):
                if not is_adjacent(n, m):
                    continue
                segs = f_difference_segments(sigma, k, n, m)  # identity checked inside
                assert len(segs) <= k
                nodes = [node for seg in segs for node in seg.nodes()]
                assert len(nodes) == len(set(nodes))

    def test_difference_requires_adjacency(self):
        with pytest.raises(InvalidInput):
            f_difference_segments(Branch("0" * 8), 2, itup(1, 2), itup(5, 6))

    def test_root_shift_cancels_in_differences(self):
        # the common root multiple is invisible to every certificate
        sigma = Branch("0" * 6)
        diff = f_embed(sigma, 2, itup(2, 4)) - f_embed(sigma, 2, itup(3, 5))
        assert "" not in diff.entries


class TestSeparations:
    def test_f_separation_examples(self):
        s0, s1 = Branch("0" * 9), Branch("1" * 9)
        assert abs(f_separation(s0, s1, 1, itup(1)) - 1.0) < 1e-12
        got = f_separation(s0, s1, 4, itup(1, 2, 3, 4))
        assert got >= 2.0 - 1e-12

    def test_f_separation_equal_branches(self):
        s0 = Branch("0101")
        assert f_separation(s0, Branch("0101"), 2, itup(1, 2)) == 0.0

    def test_f_separation_precondition(self):
        s0, s1 = Branch("0011"), Branch("0010")
        with pytest.raises(InvalidInput):
            f_separation(s0, s1, 1, itup(2))  # first disagreement at 4 > 2

    def test_g_separation_examples(self):
        s0, s1 = Branch("0" * 9), Branch("1" * 9)
        got = g_separation(s0, s1, 2, itup(1, 2))
        assert abs(got - 1.0) < 1e-12  # sqrt(2/2)
        got = g_separation(s0, s1, 8, itup(1, 2, 3, 4, 5, 6, 7, 8))
        assert abs(got - 2.0) < 1e-12  # sqrt(8/2)

    def test_g_separation_matches_exact_norm_lower_bound(self):
        s0, s1 = Branch("0" * 6, ), Branch("1" * 6)
        for k, n in ((1, itup(2)), (2, itup(1, 3)), (3, itup(1, 2, 5))):
            val = g_separation(s0, s1, k, n)
            diff = g_embed(s0, k, n) - g_embed(s1, k, n)
            norm, _ = jt_norm_exact(diff)
            assert norm >= val - 1e-12
            assert abs(val - math.sqrt(k / 2.0)) < 1e-12

    def test_g_separation_equal_branches(self):
        assert g_separation(Branch("00"), Branch("00"), 1, itup(2)) == 0.0


def test_random_spider_instances_match_bruteforce_families():
    """Independent third check: enumerate disjoint families over raw segments."""

    def brute(x: TreeVec) -> float:
        nodes = [""] + ["".join(p) for d in (1, 2, 3) for p in itertools.product("01", repeat=d)]
        bit = {v: 1 << i for i, v in enumerate(nodes)}
        seg_list = []
        for hi in nodes:
            for j in range(len(hi) + 1):
                chain = [hi[:i] for i in range(j, len(hi) + 1)]
                mask = sum(bit[v] for v in chain)
                seg_list.append((mask, sum(x.value(v) for v in chain)))
        best = 0.0

        def rec(start: int, used: int, acc: float) -> None:
            nonlocal best
            if acc > best:
                best = acc
            for i in range(start, len(seg_list)):
                mask, total = seg_list[i]
                if not mask & used:
                    rec(i + 1, used | mask, acc + total * total)

        rec(0, 0, 0.0)
        return math.sqrt(best)

    rng = random.Random(77)
    for _ in range(15):
        a = "".join(rng.choice("01") for _ in range(3))
        b = "".join(rng.choice("01") for _ in range(3))
        entries = {
            nd[:j]: rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0])
            for nd in (a, b)
            for j in range(4)
        }
        x = TreeVec(entries)
        got, _ = jt_norm_exact(x)
        assert abs(got - brute(x)) < 1e-12
