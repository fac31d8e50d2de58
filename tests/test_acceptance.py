"""Acceptance gate: every quantitative criterion at its stated tolerance.

Each criterion in `acceptance.CRITERIA` is one test, named after its runner,
that prints one PASS/FAIL line (visible with `pytest -s` or on failure).
The literal log(1+t) N-norm sandwich is a documented spec defect: the fixture
is concave with slope limit 0, so the sandwich provably fails; that test is a
strict expected-failure and the suite alerts if it ever passes.
"""

import inspect
import itertools
import math
import random

import pytest

from interlace import (
    acceptance,
    dist,
    dist_oracle_bfs,
    enumerate_tuples,
    is_adjacent,
    itup,
)

# seconds per criterion id; the others run well under a second
BUDGETS = {"1": 30, "2": 30, "4": 60, "5": 60, "11": 120}

# each runner's test is test_<runner name>_<suffix>, the ids the suite has always had
SUFFIXES = {
    "criterion_01": "distance_formula_oracle",
    "criterion_02": "geodesic_soundness",
    "criterion_03": "diameter",
    "criterion_04": "c0_distortion",
    "criterion_05": "james_oracle_equivalence",
    "criterion_06": "james_norm_axioms",
    "criterion_07": "orlicz_lp_specialization",
    "criterion_08": "nnorm_sandwich",
    "criterion_09": "nnorm_lattice_monotonicity",
    "criterion_10": "delta_transform_sandwich",
    "criterion_11": "jt_solver_equivalence",
    "criterion_12": "g_embedding_certificates",
    "criterion_13": "f_embedding_certificates",
    "criterion_14": "moduli_bracket",
    "criterion_15": "non_concentration_signature",
}


def _report(res, budget=None):
    status = "PASS" if res.passed else "FAIL"
    print(f"[{status}] criterion {res.cid}: {res.name} ({res.seconds:.2f}s) - {res.detail}")
    assert res.passed, f"criterion {res.cid} failed: {res.detail}"
    if budget is not None:
        assert res.seconds < budget, f"criterion {res.cid} exceeded {budget}s budget"


def _criterion_test(criterion):
    def test():
        res = criterion()
        _report(res, budget=BUDGETS.get(res.cid))

    return test


# one test per registered criterion; a runner without a suffix fails collection
for _fn in acceptance.CRITERIA:
    if _fn is not acceptance.criterion_08_literal_log1p:
        _name = f"test_{_fn.__name__}_{SUFFIXES[_fn.__name__]}"
        globals()[_name] = _criterion_test(_fn)


@pytest.mark.xfail(
    strict=True,
    reason="log(1+t) is concave with slope limit 0; the [1/2, e] sandwich "
    "provably fails for it (documented spec defect, see the N-norm tests)",
)
def test_criterion_08_literal_log1p_sandwich():
    _report(acceptance.criterion_08_literal_log1p())


def test_criteria_registry_and_defect_bookkeeping():
    assert len(acceptance.CRITERIA) == 16  # 15 criteria + the documented defect entry
    literal = acceptance.criterion_08_literal_log1p()
    assert literal.expected_defect
    assert not literal.passed  # the defect must keep failing
    assert literal.in_order
    ok = acceptance.criterion_03()
    assert ok.in_order and not ok.expected_defect


def test_registry_order_and_names():
    # the runners' closures hold the cid and flag the decorator was given
    bound = [inspect.getclosurevars(fn).nonlocals for fn in acceptance.CRITERIA]
    cids = [str(i) for i in range(1, 9)] + ["8-literal"] + [str(i) for i in range(9, 16)]
    assert [b["cid"] for b in bound] == cids
    assert [b["expected_defect"] for b in bound] == [cid == "8-literal" for cid in cids]
    for fn in acceptance.CRITERIA:
        assert getattr(acceptance, fn.__name__) is fn
    assert acceptance.CRITERIA[8].__name__ == "criterion_08_literal_log1p"
    res = acceptance.criterion_10(0)  # the seed given positionally
    assert (res.cid, res.passed) == ("10", True)


def test_criteria_are_deterministic():
    for fn in (
        acceptance.criterion_01,
        acceptance.criterion_03,
        acceptance.criterion_10,
        acceptance.criterion_12,
        acceptance.criterion_15,
    ):
        a, b = fn(), fn()
        assert (a.cid, a.passed, a.detail) == (b.cid, b.passed, b.detail)


def test_default_seed_details():
    details = {
        acceptance.criterion_01: "2038 pairs agree exactly",
        acceptance.criterion_12: (
            "1541 adjacent pairs are 1-Lipschitz; separations equal sqrt(k/2)"
        ),
        acceptance.criterion_13: "166 adjacent differences decompose; separations >= sqrt(k)",
    }
    for fn, detail in details.items():
        assert fn().detail == detail


@pytest.mark.parametrize("k", [1, 2, 3])
def test_box_levels_equal_the_pairwise_bfs_oracle(k):
    verts = enumerate_tuples(range(1, 8), k)
    levels = acceptance._box_levels(verts)
    for (i, n), (j, m) in itertools.product(enumerate(verts), repeat=2):
        assert levels[i][j] == dist_oracle_bfs(n, m), (n, m)


def test_criterion_01_oracle_does_not_read_dist(monkeypatch):
    # dist off by one on a single adjacent pair: the box levels still say 1
    bad = (itup(2, 5).entries, itup(3, 7).entries)

    def off_by_one(n, m):
        return dist(n, m) + ((n.entries, m.entries) == bad)

    monkeypatch.setattr(acceptance, "dist", off_by_one)
    res = acceptance.criterion_01()
    assert not res.passed
    assert res.detail == "dist((2,5),(3,7))=2 but BFS gives 1"


def _adjacent_pairs(verts):
    return {(n, m) for n, m in itertools.combinations(verts, 2) if is_adjacent(n, m)}


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_sample_adjacent_draws_every_adjacent_pair_when_asked_for_all(k):
    verts = enumerate_tuples(range(1, k + 4), k)
    every = math.comb(len(verts), 2)
    sample = acceptance._sample_adjacent(random.Random(k), verts, every)
    assert len(sample) == len(set(sample))
    assert set(sample) == _adjacent_pairs(verts)


@pytest.mark.parametrize("k", range(1, 7))
def test_sample_adjacent_keeps_distinct_adjacent_pairs_in_box_order(k):
    verts = enumerate_tuples(range(1, k + 4), k)
    sample = acceptance._sample_adjacent(random.Random(402 + k), verts, 20)
    assert len(sample) == min(20, len(_adjacent_pairs(verts)))
    assert len(set(sample)) == len(sample)
    for n, m in sample:
        assert n.entries < m.entries and is_adjacent(n, m)
    again = acceptance._sample_adjacent(random.Random(402 + k), verts, 20)
    assert again == sample


def test_criterion_13_fails_when_segments_overlap(monkeypatch):
    # from arity 2 on, the decomposition returns its first segment twice
    real = acceptance.f_difference_segments

    def overlapping(sigma, n, m):
        segs = real(sigma, n, m)
        return segs if n.arity == 1 else [segs[0], segs[0]]

    monkeypatch.setattr(acceptance, "f_difference_segments", overlapping)
    res = acceptance.criterion_13()
    assert not res.passed
    assert res.detail == "segments overlap"
