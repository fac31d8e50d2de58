"""James-tree norm solvers, witnesses, and the branch embeddings."""

import itertools
import math
import os
import random
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from interlace import (
    Branch,
    FinSeq,
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
    james_norm,
    jt_family_value,
    jt_norm_bruteforce,
    jt_norm_exact,
    pair,
    segment_functional,
)
from interlace import tree
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


def comb_and_spider_vecs():
    """Long unary stems (nodes down to depth 40) forking at 2-4 branch points,
    with at most 12 nonzero entries: a comb has legs leaving one spine, a
    spider has 3-5 legs below one centre."""
    vals = st.one_of(
        st.sampled_from([-1.5, -1.0, -0.5, 0.5, 1.0, 1.5]),
        st.floats(-2.0, 2.0, allow_subnormal=False).filter(lambda v: abs(v) > 1e-3),
    )

    @st.composite
    def build(draw):
        spine = draw(st.text(alphabet="01", min_size=8, max_size=40))
        if draw(st.booleans()):
            forks = draw(st.lists(st.integers(0, len(spine) - 1), min_size=2, max_size=4,
                                  unique=True))
            flip = {"0": "1", "1": "0"}
            tips = [spine] + [
                spine[:d] + flip[spine[d]] + draw(st.text(alphabet="01", max_size=39 - d))
                for d in forks
            ]
        else:
            centre = spine[: draw(st.integers(0, 20))]
            legs = st.text(alphabet="01", min_size=1, max_size=40 - len(centre))
            tips = [centre + leg for leg in draw(st.lists(legs, min_size=3, max_size=5))]
        entries = {tip: draw(vals) for tip in tips}
        closure = sorted({t[:j] for t in tips for j in range(len(t) + 1)})
        for node in draw(st.lists(st.sampled_from(closure), max_size=12 - len(entries))):
            entries[node] = draw(vals)
        supp = sorted(entries)
        branch_points = {os.path.commonprefix((a, b)) for a, b in zip(supp, supp[1:])
                         if not b.startswith(a)}
        assume(2 <= len(branch_points) <= 4)
        return TreeVec(entries)

    return build()


def _every_family(x):
    """The definition: every disjoint family of the oracle's raw segments, its
    squares added in list order, by recursion over the families."""
    closure = sorted({s[:j] for s in x.entries for j in range(len(s) + 1)})
    bit = {node: 1 << i for i, node in enumerate(closure)}
    segs = []
    for hi in x.entries:
        mask, total = 0, 0.0
        for j in range(len(hi), -1, -1):
            lo = hi[:j]
            mask |= bit[lo]
            total += x.entries.get(lo, 0.0)
            if lo in x.entries:
                segs.append((mask, total * total))
    best = 0.0

    def extend(start, used, acc):
        nonlocal best
        if acc > best:
            best = acc
        for i in range(start, len(segs)):
            mask, square = segs[i]
            if not mask & used:
                extend(i + 1, used | mask, acc + square)

    extend(0, 0, 0.0)
    return math.sqrt(best)


def _cap_shapes():
    """A path, a spider and a comb with BRUTE_FORCE_SUPPORT_CAP = 12 support nodes."""
    rng = random.Random(12)

    def entry():
        return rng.choice([-1.0, 0.5, rng.uniform(-2.0, 2.0)])

    path = {("01" * 6)[:j]: entry() for j in range(12)}
    spider = {"0" + leg * d: entry() for leg in ("00", "01", "10", "11") for d in (1, 2, 3)}
    comb = {**{"0" * j: entry() for j in range(6)}, **{"0" * j + "1": entry() for j in range(6)}}
    return {"path": path, "spider": spider, "comb": comb}


def variation_of_partial_sums(vals):
    """The path identity: on one path the James-tree norm is the 2-variation of
    the partial sums, which start at 0 and keep their last value as the tail."""
    sums = tuple(itertools.accumulate(vals))
    return james_norm(FinSeq((0.0, *sums), sums[-1]), 2.0)


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

    def test_arithmetic_keeps_the_input_rules(self):
        with pytest.raises(InvalidInput, match="^tree vector entries must be finite: inf at node '0'$"):
            TreeVec({"0": 1e308}) + TreeVec({"0": 1e308})
        with pytest.raises(InvalidInput, match="^tree vector entries must be finite: -inf at node '1'$"):
            TreeVec({"1": -1e308}) - TreeVec({"1": 1e308})
        rng = random.Random(36)
        # x and y share "1" and "01", where some differences cancel and some round
        keys = ["", "0", "1", "01", "10", "110"]
        for _ in range(50):
            x = TreeVec({key: rng.choice([1.0, -0.5, rng.uniform(-3, 3)]) for key in keys[:4]})
            y = TreeVec({key: rng.choice([1.0, 0.5, rng.uniform(-3, 3)]) for key in keys[2:]})
            assert (x - x).entries == {}
            diff, want = x - y, x + (-y)
            assert diff == want
            assert [v.hex() for v in diff.entries.values()] == [
                v.hex() for v in want.entries.values()
            ]
            assert 0.0 not in diff.entries.values()

    def test_scaling_equals_the_checked_build_bit_for_bit(self):
        rng = random.Random(39)
        keys = ["", "0", "1", "01", "10", "110", "0111"]
        for _ in range(200):
            wide = rng.uniform(-3, 3) * 10.0**rng.randint(-300, 300)
            x = TreeVec({k: rng.choice([1.0, -0.5, wide])
                         for k in rng.sample(keys, rng.randint(0, len(keys)))})
            s = rng.choice([0.0, -0.0, -1.0, 1e-300, rng.uniform(-2, 2) * 10.0**rng.randint(-9, 9)])
            try:
                want = TreeVec({k: s * v for k, v in x.entries.items()})
            except InvalidInput as exc:
                with pytest.raises(InvalidInput, match=f"^{re.escape(str(exc))}$"):
                    s * x
                continue
            got = s * x
            assert [(k, v.hex()) for k, v in got.entries.items()] == [
                (k, v.hex()) for k, v in want.entries.items()
            ]

    def test_scaling_drops_zeros_and_names_an_overflow(self):
        x = TreeVec({"0": 1.0, "1": -2.0})
        assert (0.0 * x).entries == {}
        assert (1e-300 * TreeVec({"0": 1e-300, "1": 1.0})).entries == {"1": 1e-300}
        with pytest.raises(InvalidInput, match="^tree vector entries must be finite: inf at node '0'$"):
            TreeVec({"0": 1e308}) * 10
        with pytest.raises(InvalidInput, match="^tree vector entries must be finite: -inf at node '1'$"):
            TreeVec({"0": 1.0, "1": 1e308, "00": 1e308}) * -10

    @pytest.mark.parametrize("scalar", [True, 10**400, "x", math.inf])
    def test_scalar_is_read_as_a_number(self, scalar):
        with pytest.raises(InvalidInput, match="the scalar must be a finite number, got"):
            TreeVec({"0": 1.0}) * scalar
        with pytest.raises(InvalidInput, match="the scalar must be a finite number, got"):
            scalar * TreeVec({"0": 1.0})

    def test_json_round_trip(self):
        x = TreeVec({"": 1.0, "01": -0.5})
        assert TreeVec.from_json_dict(x.to_json_dict()) == x

    def test_a_load_has_no_support_cap(self):
        deep = TreeVec.from_json_dict({"0" * 9: 1.0})
        assert jt_norm_exact(deep)[0] == 1.0
        # 4,097 disjoint leaves, one more than f_embed's image cap: each is its own
        # segment, so the norm is sqrt(4097) and the witness holds every leaf
        leaves = {format(i, "013b"): 1.0 for i in range(JT_SUPPORT_CAP + 1)}
        norm, witness = jt_norm_exact(TreeVec.from_json_dict(leaves))
        assert norm == math.sqrt(4097) == 64.00781202322104
        assert sorted(seg.lo for seg in witness) == sorted(leaves)

    def test_rejects_bad_keys(self):
        for key in ("ab", "012", " ", "0\n", b"01", 5):
            with pytest.raises(InvalidInput):
                TreeVec({key: 1.0})

    def test_entry_beyond_the_float_range_is_invalid_input(self):
        with pytest.raises(
            InvalidInput,
            match="^tree vector entries must be finite: an integer beyond the float range at node '0'$",
        ) as exc:
            TreeVec({"0": 10**400})
        assert "0000" not in str(exc.value)  # the digits are not echoed

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
            image = g_embed(sigma, itup(*range(1, k + 1)))
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

    @pytest.mark.parametrize(
        "entries, witnesses",
        [
            # at "0" the segments closing at "00" and at "01" are the same parabola
            ({"0": 1.0, "00": 1.0, "01": 1.0},
             ([Segment("0", "00"), Segment("01", "01")],
              [Segment("0", "01"), Segment("00", "00")])),
            ({"": 1.0, "00000": 1.0, "11111": 1.0},
             ([Segment("", "00000"), Segment("11111", "11111")],
              [Segment("", "11111"), Segment("00000", "00000")])),
        ],
    )
    def test_tied_closing_nodes_give_a_valid_witness(self, entries, witnesses):
        x = TreeVec(entries)
        norm, witness = jt_norm_exact(x)
        assert abs(norm - math.sqrt(5)) < 1e-12
        assert witness in witnesses
        assert abs(jt_family_value(x, witness) - norm) < 1e-12

    def test_a_best_segment_summing_to_zero_is_left_out_of_the_witness(self):
        # "", "0", "00" and "000" are branch points holding 0, and the open
        # segment "00".."000" sums to 0; rounding can make it the best choice
        # at "00", and it adds nothing to the family
        x = TreeVec({"1": 0.6, "01": 0.2, "001": 1.1, "0001": 0.3, "0000": 0.7})
        norm, witness = jt_norm_exact(x)
        assert witness == [Segment(s, s) for s in ("1", "01", "001", "0000", "0001")]
        assert all(pair(segment_functional(seg), x) != 0.0 for seg in witness)
        assert abs(norm - jt_norm_bruteforce(x)) <= 1e-12 * norm
        assert abs(jt_family_value(x, witness) - norm) <= 1e-12 * norm

    @settings(max_examples=60, deadline=None)
    @given(comb_and_spider_vecs())
    def test_combs_and_spiders_match_the_oracle(self, x):
        val, wit = jt_norm_exact(x)
        assert abs(val - jt_norm_bruteforce(x)) <= 1e-12 * max(1.0, val)
        assert abs(jt_family_value(x, wit) - val) <= 1e-12 * max(1.0, val)

    @settings(max_examples=60, deadline=None)
    @given(st.text(alphabet="01", max_size=299), st.data())
    def test_path_norm_is_the_variation_of_the_partial_sums(self, bits, data):
        entry = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))
        vals = data.draw(st.lists(entry, min_size=len(bits) + 1, max_size=len(bits) + 1))
        norm, _ = jt_norm_exact(TreeVec({bits[:j]: v for j, v in enumerate(vals)}))
        want = variation_of_partial_sums(vals)
        assert abs(norm - want) <= 1e-12 * want

    def test_seeded_4000_node_path_matches_the_variation_norm(self):
        rng = random.Random(4000)
        bits = "".join(rng.choice("01") for _ in range(3999))
        vals = [rng.uniform(-1.0, 1.0) for _ in range(4000)]
        x = TreeVec({bits[:j]: v for j, v in enumerate(vals)})
        norm, witness = jt_norm_exact(x)
        want = variation_of_partial_sums(vals)
        assert abs(norm - want) <= 1e-12 * want
        assert abs(jt_family_value(x, witness) - norm) <= 1e-12 * norm

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(two_branch_vecs(), bush_vecs(), comb_and_spider_vecs()))
    def test_bruteforce_equals_the_family_definition_bit_for_bit(self, x):
        assert jt_norm_bruteforce(x) == _every_family(x)

    @pytest.mark.parametrize("shape", ["path", "spider", "comb"])
    def test_bruteforce_at_the_cap(self, shape):
        x = TreeVec(_cap_shapes()[shape])
        assert len(x.entries) == 12
        assert jt_norm_bruteforce(x) == _every_family(x)
        assert abs(jt_norm_exact(x)[0] - jt_norm_bruteforce(x)) <= 1e-12 * jt_norm_bruteforce(x)

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
        vec = g_embed(sigma, itup(1, 2))
        assert vec == TreeVec({"0": 0.5, "00": 0.5})
        assert abs(jt_norm_exact(vec)[0] - 1.0) < 1e-12

    def test_image_equals_the_checked_build_and_checks_no_key_again(self, monkeypatch):
        # every key is a prefix of the checked branch, so none is checked again
        checks = []
        check = tree._check_bits
        monkeypatch.setattr(tree, "_check_bits", lambda s: checks.append(s) or check(s))
        sigma, n = Branch("0" * 4000), itup(*range(1, 4001))
        checks.clear()
        got = g_embed(sigma, n)
        assert len(checks) <= 1
        c = 1.0 / math.sqrt(2 * n.arity)
        want = TreeVec({sigma.prefix(j): c for j in n.entries})
        assert [(key, v.hex()) for key, v in got.entries.items()] == [
            (key, v.hex()) for key, v in want.entries.items()
        ]

    def test_singleton_norm(self):
        vec = g_embed(Branch("0000"), itup(3))
        assert abs(jt_norm_exact(vec)[0] - 1 / SQ2) < 1e-12

    def test_adjacent_pairs_are_one_lipschitz(self):
        sigma = Branch("0" * 7)
        for k in (1, 2, 3):
            verts = enumerate_tuples(range(1, 7), k)
            for n, m in itertools.combinations(verts, 2):
                if not is_adjacent(n, m):
                    continue
                diff = g_embed(sigma, n) - g_embed(sigma, m)
                norm, _ = jt_norm_exact(diff)
                assert norm <= 1.0 + 1e-9

    def test_branch_too_short(self):
        with pytest.raises(InvalidInput):
            g_embed(Branch("0"), itup(5))

    def test_scale_follows_the_arity(self):
        # k is the arity of the tuple: 1/sqrt(2k) at each prefix, k/sqrt(k) at the root of f
        c = 1 / math.sqrt(6)
        assert g_embed(Branch("000"), itup(1, 2, 3)) == TreeVec({"0": c, "00": c, "000": c})
        root = f_embed(Branch("000"), itup(1, 2, 3)).value("")
        assert abs(root - 3 / math.sqrt(3)) < 1e-12


class TestFEmbedding:
    def test_depth_one(self):
        vec = f_embed(Branch("0"), itup(1))
        assert vec == TreeVec({"": 1.0, "0": 1.0})

    def test_counts_match_a_direct_count_bit_for_bit(self):
        # coefficient of sigma|j is k^(-1/2) |{i : j <= n_i}|, root (j = 0) included
        sigma = Branch("0" * 9)
        for k in range(1, 5):
            c = 1.0 / math.sqrt(k)
            for n in enumerate_tuples(range(1, 10), k):
                want = [
                    (sigma.prefix(j), c * sum(j <= e for e in n.entries))
                    for j in range(n.top + 1)
                ]
                assert list(f_embed(sigma, n).entries.items()) == want

    def test_image_equals_the_checked_build_and_checks_no_key_again(self, monkeypatch):
        # every key is a prefix of the checked branch, so none is checked again
        checks = []
        check = tree._check_bits
        monkeypatch.setattr(tree, "_check_bits", lambda s: checks.append(s) or check(s))
        rng = random.Random(39)
        for _ in range(50):
            n = itup(*sorted(rng.sample(range(1, 60), rng.randint(1, 5))))
            sigma = Branch("".join(rng.choice("01") for _ in range(n.top + rng.randint(0, 3))))
            checks.clear()
            got = f_embed(sigma, n)
            assert len(checks) <= 1
            c = 1.0 / math.sqrt(n.arity)
            want = TreeVec({sigma.prefix(j): c * sum(j <= e for e in n.entries)
                            for j in range(n.top + 1)})
            assert [(key, v.hex()) for key, v in got.entries.items()] == [
                (key, v.hex()) for key, v in want.entries.items()
            ]

    def test_depth_two_counts_prefixes(self):
        vec = f_embed(Branch("00"), itup(1, 2))
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
                segs = f_difference_segments(sigma, n, m)  # identity checked inside
                assert len(segs) <= k
                nodes = [node for seg in segs for node in seg.nodes()]
                assert len(nodes) == len(set(nodes))

    def test_image_beyond_the_support_cap_is_a_resource_limit(self):
        sigma = Branch("0" * JT_SUPPORT_CAP)
        assert len(f_embed(sigma, itup(JT_SUPPORT_CAP - 1)).entries) == JT_SUPPORT_CAP
        with pytest.raises(ResourceLimit, match="JT_SUPPORT_CAP = 4096"):
            f_embed(sigma, itup(JT_SUPPORT_CAP))

    def test_difference_requires_adjacency(self):
        with pytest.raises(InvalidInput):
            f_difference_segments(Branch("0" * 8), itup(1, 2), itup(5, 6))

    def test_root_shift_cancels_in_differences(self):
        # the common root multiple is invisible to every certificate
        sigma = Branch("0" * 6)
        diff = f_embed(sigma, itup(2, 4)) - f_embed(sigma, itup(3, 5))
        assert "" not in diff.entries


class TestSeparations:
    def test_f_separation_examples(self):
        s0, s1 = Branch("0" * 9), Branch("1" * 9)
        assert abs(f_separation(s0, s1, itup(1)) - 1.0) < 1e-12
        got = f_separation(s0, s1, itup(1, 2, 3, 4))
        assert got >= 2.0 - 1e-12

    def test_f_separation_equal_branches(self):
        s0 = Branch("0101")
        assert f_separation(s0, Branch("0101"), itup(1, 2)) == 0.0

    def test_f_separation_precondition(self):
        s0, s1 = Branch("0011"), Branch("0010")
        with pytest.raises(InvalidInput):
            f_separation(s0, s1, itup(2))  # first disagreement at 4 > 2

    def test_g_separation_examples(self):
        s0, s1 = Branch("0" * 9), Branch("1" * 9)
        got = g_separation(s0, s1, itup(1, 2))
        assert abs(got - 1.0) < 1e-12  # sqrt(2/2)
        got = g_separation(s0, s1, itup(1, 2, 3, 4, 5, 6, 7, 8))
        assert abs(got - 2.0) < 1e-12  # sqrt(8/2)

    def test_g_separation_matches_exact_norm_lower_bound(self):
        s0, s1 = Branch("0" * 6, ), Branch("1" * 6)
        for k, n in ((1, itup(2)), (2, itup(1, 3)), (3, itup(1, 2, 5))):
            val = g_separation(s0, s1, n)
            diff = g_embed(s0, n) - g_embed(s1, n)
            norm, _ = jt_norm_exact(diff)
            assert norm >= val - 1e-12
            assert abs(val - math.sqrt(k / 2.0)) < 1e-12

    def test_g_separation_equal_branches(self):
        assert g_separation(Branch("00"), Branch("00"), itup(2)) == 0.0


def test_random_spider_instances_match_bruteforce_families():
    """Independent third check: enumerate disjoint families over raw segments.

    The segments run over the instance's own node closure, zero nodes
    included; it is closed under prefixes, so a segment through a node outside
    it may be trimmed to the closure without changing any sum or disjointness.
    """

    def brute(x: TreeVec, nodes: list[str]) -> float:
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
        assert abs(got - brute(x, sorted(entries))) < 1e-12
