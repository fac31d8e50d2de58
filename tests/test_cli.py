"""CLI behaviour: output shapes, determinism, error objects, file emission."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from interlace import (
    FinSeq,
    dist,
    itup,
    james_norm,
    orlicz_fixture,
    orlicz_norm,
    summing_distortion_check,
    summing_image,
    sup_norm,
)
from interlace.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_dist_outputs_distance_and_path(capsys):
    code, out = run_cli(capsys, "dist", "--n", "1,2", "--m", "3,4")
    doc = json.loads(out)
    assert code == 0
    assert doc["distance"] == 2
    assert len(doc["path"]) == 3
    assert doc["path"][0] == [1, 2] and doc["path"][-1] == [3, 4]
    assert doc["config"]["n"] == "1,2"


def test_dist_does_not_scale_with_the_entries(capsys):
    code, out = run_cli(capsys, "dist", "--n", "1,1000000000000", "--m", "2,1000000000001")
    doc = json.loads(out)
    assert code == 0
    assert doc["distance"] == 1
    assert doc["path"] == [[1, 1000000000000], [2, 1000000000001]]


def test_dist_reversed_pair_walks_to_the_right_endpoint(capsys):
    code, out = run_cli(capsys, "dist", "--n", "4,5,6", "--m", "1,2,3")
    doc = json.loads(out)
    path = [itup(*v) for v in doc["path"]]
    assert code == 0 and doc["distance"] == 3
    assert path[0] == itup(4, 5, 6) and path[-1] == itup(1, 2, 3)
    assert len(path) == 4
    assert all(dist(u, v) == 1 for u, v in zip(path, path[1:]))


def test_james_norm_with_oracle(capsys):
    code, out = run_cli(capsys, "james-norm", "--coeffs", "1,0,1", "--p", "2", "--brute")
    doc = json.loads(out)
    assert code == 0
    assert abs(doc["norm"] - math.sqrt(3)) < 1e-9
    assert doc["norm"] == doc["oracle"]


def test_james_norm_from_file(tmp_path, capsys):
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"coeffs": [1.0, 0.0, 1.0], "tail": 0.0}))
    code, out = run_cli(capsys, "james-norm", "--input", str(path))
    assert code == 0
    assert abs(json.loads(out)["norm"] - math.sqrt(3)) < 1e-9


@pytest.mark.parametrize(
    "doc, text",
    [
        ({"coeffs": [1, None]}, "must be numbers"),
        ({"coeffs": [1], "tail": "x"}, "must be numbers"),
        ({"coeffs": "123"}, "must be a JSON array"),
        # float() would read booleans and numeric strings
        ({"coeffs": [True, 2]}, "sequence values must be numbers: True at index 1"),
        ({"coeffs": [1, "2"]}, "sequence values must be numbers: '2' at index 2"),
        ({"coeffs": [1], "tail": "1"}, "sequence values must be numbers: '1' at the tail"),
        ({"coeffs": [1], "tail": False}, "sequence values must be numbers: False at the tail"),
        ({"coeffs": [1, 10**400]}, "must be finite"),
    ],
)
def test_james_norm_malformed_file_is_invalid_input(tmp_path, capsys, doc, text):
    path = tmp_path / "x.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "james-norm", "--input", str(path))
    error = json.loads(out)["error"]
    assert code == 2
    assert error["kind"] == "invalid-input" and text in error["message"]


def test_a_bad_value_in_a_long_sequence_file_gives_a_short_error(tmp_path, capsys):
    coeffs = [float(i % 7) for i in range(10**5)]
    coeffs[70_000] = math.nan  # json writes NaN, and json.loads reads it back
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"coeffs": coeffs, "tail": 0.0}))
    code, out = run_cli(capsys, "james-norm", "--input", str(path))
    error = json.loads(out)["error"]
    assert code == 2
    assert len(out.encode()) < 1024
    assert error["message"] == "sequence values must be finite: nan at index 70001"


def test_a_bad_entry_in_a_long_orlicz_vector_gives_a_short_error(capsys):
    x = ",".join(["1"] * 5_000 + ["nan"] + ["1"] * 5_000)
    code, out = run_cli(capsys, "orlicz", "--op", "norm", "--phi", "huber", "--x", x)
    error = json.loads(out)["error"]
    assert code == 2
    assert len(out.encode()) < 300
    assert error["message"] == "vector entries must be finite: nan at index 5001"


@pytest.mark.parametrize(
    "argv",
    [
        ("orlicz", "--op", "norm", "--phi", "huber", "--x"),
        ("orlicz", "--op", "nnorm", "--phi", "huber", "--x"),
        ("james-norm", "--coeffs"),
        ("moduli", "--family", "summing", "--k", "1", "--max-entry", "3", "--thresholds"),
    ],
    ids=["x", "nnorm-x", "coeffs", "thresholds"],
)
def test_an_unparsable_field_in_a_long_vector_is_named_by_its_index(capsys, argv):
    text = ",".join(["1"] * 5_000 + ["one" * 100] + ["1"] * 5_000)
    code, out = run_cli(capsys, *argv, text)
    assert code == 2
    assert len(out.encode()) < 300
    assert json.loads(out)["error"] == {
        "kind": "invalid-input",
        "message": "cannot parse vector: 'oneoneoneone...eoneoneoneone' at index 5001",
    }


def test_james_norm_rescales_huge_and_tiny_values(capsys):
    code, out = run_cli(capsys, "james-norm", "--coeffs", "1e200", "--p", "2")
    assert code == 0
    assert json.loads(out)["norm"] == 1e200
    code, out = run_cli(capsys, "james-norm", "--coeffs", "1e-200,0,1e-200", "--p", "3")
    assert code == 0
    assert json.loads(out)["norm"] == float(f"{1.4422495703074082e-200:.12g}")


def test_james_norm_overflow_at_huge_p_is_invalid_input(capsys):
    code, out = run_cli(capsys, "james-norm", "--coeffs", "3", "--p", "2000")
    err = json.loads(out)["error"]
    assert code == 2
    assert err["kind"] == "invalid-input"
    assert "p = 2000" in err["message"]


def test_jt_norm_unit_root(capsys):
    code, out = run_cli(capsys, "jt-norm", "--entries", '{"": 1.0}')
    doc = json.loads(out)
    assert code == 0
    assert doc["norm"] == 1.0
    assert doc["witness"] == [["", ""]]


def test_jt_norm_rejects_non_object_json(capsys):
    code, out = run_cli(capsys, "jt-norm", "--entries", "[1, 2]")
    doc = json.loads(out)
    assert code == 2
    assert doc["error"]["kind"] == "invalid-input"


def test_jt_norm_has_no_support_cap(capsys):
    # node length does not set the solver's cost: a depth-9 node is solved
    code, out = run_cli(capsys, "jt-norm", "--entries", json.dumps({"0" * 9: 1.0}))
    doc = json.loads(out)
    assert code == 0
    assert doc["norm"] == 1.0
    assert "depth_cap" not in doc["config"]
    # nor does a support past 4,096 nodes: 4,097 disjoint leaves have norm sqrt(4097)
    entries = json.dumps({format(i, "013b"): 1.0 for i in range(4097)})
    code, out = run_cli(capsys, "jt-norm", "--entries", entries)
    doc = json.loads(out)
    assert code == 0
    assert doc["norm"] == float(f"{math.sqrt(4097):.12g}") == 64.0078120232
    assert len(doc["witness"]) == 4097


def test_jt_norm_four_leaf_bush_is_solved(capsys):
    entries = json.dumps({"0000": 1.0, "0100": 1.0, "1000": 1.0, "1100": 1.0})
    code, out = run_cli(capsys, "jt-norm", "--entries", entries)
    doc = json.loads(out)
    assert code == 0
    assert doc["norm"] == 2.0
    assert doc["witness"] == [[leaf, leaf] for leaf in ("0000", "0100", "1000", "1100")]
    assert "mode" not in doc and "mode" not in doc["config"]


def test_jt_norm_rejects_non_finite_entries(capsys):
    for text in ('{"0": NaN}', '{"0": Infinity}', '{"0": -Infinity}'):
        code, out = run_cli(capsys, "jt-norm", "--entries", text)
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "invalid-input"


def test_jt_norm_rejects_booleans_and_numeric_strings(capsys):
    for text in ('{"0": "1"}', '{"0": true}'):
        code, out = run_cli(capsys, "jt-norm", "--entries", text)
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "invalid-input"


def test_jt_norm_huge_entries_do_not_overflow(capsys):
    code, out = run_cli(capsys, "jt-norm", "--entries", '{"0": 1e200, "00": 1e200}')
    doc = json.loads(out)
    assert code == 0
    assert doc["norm"] == 2e200
    assert doc["witness"] == [["0", "00"]]
    code, out = run_cli(capsys, "jt-norm", "--entries", '{"0": 1e308, "00": 1e308}')
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "invalid-input"


@pytest.mark.parametrize(
    "argv",
    [
        ["orlicz", "--op", "norm", "--phi", "huber", "--x", "nan,1"],
        ["james-norm", "--coeffs", "nan,1"],
        ["orlicz", "--op", "nnorm", "--phi", "huber", "--x", "inf,1"],
        ["orlicz", "--op", "delta", "--modulus", "identity", "--t", "inf"],
    ],
)
def test_non_finite_input_is_invalid_input(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "invalid-input"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--op", "norm", "--x", "1,2"], "--phi"),
        (["--op", "nnorm", "--x", "1,2"], "--phi"),
        (["--op", "compare-lp"], "--phi"),
        (["--op", "norm", "--phi", "huber"], "--x"),
        (["--op", "nnorm", "--phi", "huber"], "--x"),
    ],
)
def test_orlicz_missing_flag_is_invalid_input(capsys, argv, flag):
    code, out = run_cli(capsys, "orlicz", *argv)
    error = json.loads(out)["error"]
    assert code == 2
    assert error["kind"] == "invalid-input" and flag in error["message"]


@pytest.mark.parametrize(
    "argv, text",
    [
        (["--op", "norm", "--phi", "pow:2", "--x", "3,4", "--tol", "nan"], "tol"),
        (["--op", "compare-lp", "--phi", "pow:2", "--samples", "-3"], "--samples"),
        # an infinite tol used to print the upper end of the doubling bracket
        (["--op", "norm", "--phi", "huber", "--x", "1,2", "--tol", "inf"], "tol"),
    ],
)
def test_orlicz_argument_outside_its_domain_is_invalid_input(capsys, argv, text):
    code, out = run_cli(capsys, "orlicz", *argv)
    error = json.loads(out)["error"]
    assert code == 2
    assert error["kind"] == "invalid-input" and text in error["message"]


@pytest.mark.parametrize(
    "argv, text",
    [
        (["--op", "compare-lp", "--phi", "pow:2", "--samples", "0"], "--samples must be >= 1"),
        (["--op", "compare-lp", "--phi", "pow:0.5"], "'pow:0.5'"),
        (["--op", "norm", "--phi", "pow:abc", "--x", "1"], "'pow:abc'"),
        (
            ["--op", "delta", "--modulus", "rational", "--t", "1e200"],
            "delta(1e+200) for modulus 'rational'",
        ),
        # delta stays finite, but s^2/(1+s) at t itself overflows
        (
            ["--op", "delta", "--modulus", "rational", "--t", "1.342e154"],
            "modulus 'rational' at t = 1.342e+154",
        ),
        # a NaN exponent used to pass the p >= 1 check, and pow:inf printed a norm
        (["--op", "norm", "--phi", "pow:inf", "--x", "1,2"], "'pow:inf'"),
        (["--op", "validate", "--phi", "pow:nan"], "'pow:nan'"),
    ],
)
def test_orlicz_boundary_cases_are_invalid_input(capsys, argv, text):
    code, out = run_cli(capsys, "orlicz", *argv)
    error = json.loads(out)["error"]
    assert code == 2
    assert error["kind"] == "invalid-input" and text in error["message"]


def test_compare_lp_counts_every_sample_at_a_huge_p(capsys):
    # the l_p norm is max|x_n| times a sum whose largest term is 1: at p = 1e308 no
    # sample reads as 0 (this was exit 2, "no sample has a nonzero l_p norm")
    code, out = run_cli(
        capsys, "orlicz", "--op", "compare-lp", "--phi", "pow:2", "--p", "1e308", "--samples", "2"
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["n_samples"] == 2 and math.isfinite(doc["worst_ratio"])


def test_compare_lp_at_a_huge_p_has_no_upper_constant(capsys):
    # every grid ratio phi(t)/t^p is beyond the float range at p = 1e308
    code, out = run_cli(
        capsys, "orlicz", "--op", "compare-lp", "--phi", "huber", "--p", "1e308", "--samples", "2"
    )
    doc = json.loads(out)
    assert code == 0
    assert (doc["applicable"], doc["grid_constant"]) == (False, "inf")
    assert "blows up toward 0" in doc["note"]


def test_compare_lp_at_a_huge_p_has_no_lower_constant(capsys):
    # the same grid on the lower side: its smallest ratio is inf, which read as applicable
    code, out = run_cli(
        capsys, "orlicz", "--op", "compare-lp", "--phi", "huber", "--p", "1e308",
        "--side", "lower", "--samples", "2",
    )
    doc = json.loads(out)
    assert code == 0
    assert (doc["applicable"], doc["grid_constant"]) == (False, "inf")
    assert doc["note"] == "phi(t)/t^p is beyond the float range; no lower constant"


def test_orlicz_norm_near_the_largest_float(capsys):
    code, out = run_cli(
        capsys, "orlicz", "--op", "norm", "--phi", "pow:2", "--x", "1e308,1e308"
    )
    assert code == 0
    assert abs(json.loads(out)["norm"] - 1.41421356237e308) <= 1e-11 * 1.41421356237e308


def test_orlicz_norm_with_an_overflowing_phi(capsys):
    # (1/0.5)^1100 overflows in the halving bracket; the sum reads as +inf
    code, out = run_cli(capsys, "orlicz", "--op", "norm", "--phi", "pow:1100", "--x", "1")
    assert code == 0
    assert json.loads(out)["norm"] == 1.0


def test_missing_input_file_is_invalid_input(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    for argv in (["jt-norm", "--input", missing], ["james-norm", "--input", missing]):
        code, out = run_cli(capsys, *argv)
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "invalid-input"


def test_malformed_json_is_invalid_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"0": 1.0,')
    listed = tmp_path / "list.json"
    listed.write_text("[1.0, 2.0]")
    for argv in (
        ["jt-norm", "--entries", '{"0": 1.0,'],
        ["jt-norm", "--input", str(bad)],
        ["james-norm", "--input", str(bad)],
        ["james-norm", "--input", str(listed)],
    ):
        code, out = run_cli(capsys, *argv)
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "invalid-input"


def test_invalid_tuple_is_a_usage_error(capsys):
    code, out = run_cli(capsys, "dist", "--n", "2,1", "--m", "3,4")
    doc = json.loads(out)
    assert code == 2
    assert doc["error"]["kind"] == "invalid-input"


@pytest.mark.parametrize(
    "bad, message",
    [
        ("5", "entries must be strictly increasing: 5 at index 10001 follows 10000"),
        ("1e4", "cannot parse tuple: '1e4' at index 10001"),
        ("10000.5", "cannot parse tuple: '10000.5' at index 10001"),
    ],
)
def test_a_bad_entry_in_a_long_tuple_gives_a_short_error(capsys, bad, message):
    fields = [str(i) for i in range(1, 20_002)]
    fields[10_000] = bad
    code, out = run_cli(capsys, "dist", "--n", ",".join(fields), "--m", "1,2")
    assert code == 2
    assert len(out.encode()) < 300
    assert json.loads(out)["error"] == {"kind": "invalid-input", "message": message}


@pytest.mark.parametrize(
    "n, message",
    [
        ("9" * 5000 + ",1", "cannot parse tuple: the integer at index 1 is too long to parse"),
        ("1,-" + "9" * 5000, "cannot parse tuple: the integer at index 2 is too long to parse"),
        ("1,2_" + "9" * 5000, "cannot parse tuple: the integer at index 2 is too long to parse"),
        ("1,9." + "9" * 5000, "cannot parse tuple: '9.9999999999...9999999999999' at index 2"),
    ],
    ids=["digits", "negative", "underscores", "decimal-point"],
)
def test_an_integer_too_long_to_parse_is_named_by_its_index(capsys, n, message):
    # int() refuses more than sys.get_int_max_str_digits() digits; none are echoed
    code, out = run_cli(capsys, "dist", f"--n={n}", "--m", "1,2")
    assert code == 2
    assert json.loads(out)["error"] == {"kind": "invalid-input", "message": message}


def test_embed_c0_writes_table(tmp_path, capsys):
    code, out = run_cli(
        capsys, "embed-c0", "--k", "2", "--max-entry", "5", "--out", str(tmp_path)
    )
    doc = json.loads(out)
    assert code == 0
    assert 0.5 <= doc["min_ratio"] <= doc["max_ratio"] <= 1.0
    csv_path = tmp_path / "embed_c0_k2_max5.csv"
    assert csv_path.exists()
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("# config: ")
    assert lines[1] == "n,m,dist,sup_diff,ratio"
    assert len(lines) == 2 + doc["pairs"]
    # comma-carrying tuple cells must survive a round trip through a CSV parser
    import csv as csv_mod

    rows = list(csv_mod.reader(lines[1:]))
    assert all(len(row) == 5 for row in rows)
    assert rows[1][0] == "1,2"
    # every row against the metric, the image difference and the certificate
    for n_text, m_text, d_text, sup_text, ratio_text in rows[1:]:
        n, m = (itup(*map(int, text.split(","))) for text in (n_text, m_text))
        assert d_text == str(dist(n, m))
        sup = sup_norm(summing_image(n) - summing_image(m))
        assert float(sup_text) == float(f"{sup:.12g}")
        assert float(ratio_text) == float(f"{summing_distortion_check(n, m)[0]:.12g}")


def test_embed_c0_checks_the_profile_score_against_the_images(tmp_path, capsys, monkeypatch):
    import interlace.cli as cli
    from interlace.moduli import summing_map_sample

    def doubled(k, max_entry):
        sample = summing_map_sample(k, max_entry)
        score = sample.d_target
        sample.d_target = lambda n, m: 2.0 * score(n, m)
        return sample

    monkeypatch.setattr(cli, "summing_map_sample", doubled)
    code, out = run_cli(
        capsys, "embed-c0", "--k", "2", "--max-entry", "5", "--out", str(tmp_path)
    )
    error = json.loads(out)["error"]
    assert code == 1
    assert error["kind"] == "internal" and "AssertionError: profile score" in error["message"]


def test_embed_c0_reads_each_profile_once(tmp_path, capsys, monkeypatch):
    # the certificate verifies the pair table's d instead of calling dist again;
    # dist reads no profile, so its calls are counted apart
    import interlace.graphs as graphs
    import interlace.moduli as moduli
    import interlace.sequences as sequences

    profiles = dists = 0
    real_profile, real_dist = graphs.walk_profile, graphs.dist

    def counting_profile(n, m):
        nonlocal profiles
        profiles += 1
        return real_profile(n, m)

    def counting_dist(n, m):
        nonlocal dists
        dists += 1
        return real_dist(n, m)

    monkeypatch.setattr(graphs, "walk_profile", counting_profile)
    monkeypatch.setattr(moduli, "walk_profile", counting_profile)
    # the sample's source metric and the table's `is dist` test both see the counter
    monkeypatch.setattr(moduli, "dist", counting_dist)
    monkeypatch.setattr(sequences, "dist", counting_dist)
    code, out = run_cli(
        capsys, "embed-c0", "--k", "3", "--max-entry", "10", "--out", str(tmp_path)
    )
    assert code == 0 and json.loads(out)["pairs"] == math.comb(120, 2)
    assert profiles == math.comb(120, 2) == 7140
    assert dists == 0


def _embed_c0_reference_csv(k, max_entry, out):
    # the table as written cell by cell, pair by pair: d from dist, sup_diff from the
    # image difference, the ratio from the certificate, floats through _round_floats
    import csv as csv_mod
    import io
    import itertools

    from interlace.cli import _round_floats
    from interlace.graphs import enumerate_tuples

    config = {"command": "embed-c0", "k": k, "max_entry": max_entry, "out": out, "seed": 402}
    fh = io.StringIO()
    fh.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
    writer = csv_mod.writer(fh, lineterminator="\n")
    writer.writerow(["n", "m", "dist", "sup_diff", "ratio"])
    for n, m in itertools.combinations(enumerate_tuples(range(1, max_entry + 1), k), 2):
        sup = sup_norm(summing_image(n) - summing_image(m))
        writer.writerow(
            [
                ",".join(map(str, n.entries)),
                ",".join(map(str, m.entries)),
                dist(n, m),
                _round_floats(float(sup)),
                _round_floats(summing_distortion_check(n, m)[0]),
            ]
        )
    return fh.getvalue().encode()


@pytest.mark.parametrize("k, max_entry", [(1, 2), (1, 8), (2, 3), (2, 7), (3, 4), (3, 8)])
def test_embed_c0_table_equals_a_cell_by_cell_rendering(tmp_path, capsys, k, max_entry):
    code, _ = run_cli(
        capsys, "embed-c0", "--k", str(k), "--max-entry", str(max_entry), "--out", str(tmp_path)
    )
    assert code == 0
    want = _embed_c0_reference_csv(k, max_entry, str(tmp_path))
    assert (tmp_path / f"embed_c0_k{k}_max{max_entry}.csv").read_bytes() == want


def test_embed_c0_renders_each_distinct_table_row_once(tmp_path, capsys, monkeypatch):
    import interlace.cli as cli
    from interlace.moduli import summing_map_sample

    real_round = cli._round_floats
    floats = 0

    def counting_round(obj):
        nonlocal floats
        floats += isinstance(obj, float)
        return real_round(obj)

    monkeypatch.setattr(cli, "_round_floats", counting_round)
    code, out = run_cli(
        capsys, "embed-c0", "--k", "3", "--max-entry", "10", "--out", str(tmp_path)
    )
    doc = json.loads(out)
    distinct = len(set(summing_map_sample(3, 10).pair_distances()))
    assert code == 0 and doc["pairs"] == 7140 and distinct == 5
    # sup_diff and ratio once per distinct row, then min_ratio and max_ratio in the JSON
    assert floats == 2 * distinct + 2


def test_embed_c0_checks_every_pair_whose_row_is_already_rendered(tmp_path, capsys, monkeypatch):
    # the certificate runs on each of the 7,140 pairs, and a wrong image ratio on the
    # last pair is caught although its table row (d, sup_diff) was rendered long before
    import interlace.cli as cli

    real_check = cli.summing_distortion_check
    calls = []

    def checking(n, m, **kw):
        calls.append((n, m))
        ratio, upper = real_check(n, m, **kw)
        return (ratio * (1 + 2**-52) if len(calls) == 7140 else ratio), upper

    monkeypatch.setattr(cli, "summing_distortion_check", checking)
    code, out = run_cli(
        capsys, "embed-c0", "--k", "3", "--max-entry", "10", "--out", str(tmp_path)
    )
    error = json.loads(out)["error"]
    assert code == 1 and len(calls) == 7140
    assert "AssertionError: profile score" in error["message"]
    assert error["message"].endswith("at (7,9,10), (8,9,10)")


def test_the_parser_is_built_once_and_reused(tmp_path, capsys):
    # one process: embed-c0, an argparse error and an invalid input (both exit 2),
    # moduli, then embed-c0 again; the cached parser carries nothing between calls
    import interlace.cli as cli

    def embed():
        code, out = run_cli(
            capsys, "embed-c0", "--k", "2", "--max-entry", "6", "--out", str(tmp_path)
        )
        return code, out, (tmp_path / "embed_c0_k2_max6.csv").read_bytes()

    first = embed()
    built = cli._build_parser.cache_info()
    code, out = run_cli(
        capsys, "embed-c0", "--k", "three", "--max-entry", "6", "--out", str(tmp_path)
    )
    assert code == 2 and json.loads(out)["error"] == {
        "kind": "invalid-input",
        "message": "argument --k: invalid int value: 'three'",
    }
    code, out = run_cli(capsys, "dist", "--n", "1,x", "--m", "1,2")
    assert code == 2 and json.loads(out)["error"]["kind"] == "invalid-input"
    code, out = run_cli(capsys, "moduli", "--family", "g", "--k", "2", "--out", str(tmp_path))
    assert code == 0 and json.loads(out)["config"]["max_entry"] == 6
    assert embed() == first and first[0] == 0
    assert cli._build_parser.cache_info().misses == built.misses


def test_importing_the_cli_builds_no_parser():
    # the parser is built on the first main(), not at import, which the setup time counts
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import interlace.cli as c; i = c._build_parser.cache_info(); print(i.currsize, i.misses)",
        ],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (0, "0 0\n"), proc.stderr


@pytest.mark.parametrize(
    "argv, echoed",
    [
        (["--op", "norm", "--phi", "pow:2", "--x", "3,4"], {"phi", "x", "tol"}),
        (["--op", "nnorm", "--phi", "huber", "--x", "1,2"], {"phi", "x"}),
        (["--op", "delta", "--modulus", "rational"], {"modulus", "t", "steps"}),
        (["--op", "validate", "--phi", "sqrt"], {"phi", "modulus"}),
        (["--op", "compare-lp", "--phi", "pow:2"], {"phi", "p", "side", "samples", "seed"}),
    ],
    ids=lambda v: v[1] if isinstance(v, list) else None,
)
def test_orlicz_echoes_only_the_options_its_op_reads(capsys, argv, echoed):
    code, out = run_cli(capsys, "orlicz", *argv)
    assert code == 0
    assert set(json.loads(out)["config"]) == {"command", "op"} | echoed


def test_orlicz_norm_and_delta(capsys):
    code, out = run_cli(capsys, "orlicz", "--op", "norm", "--phi", "pow:2", "--x", "3,4")
    assert code == 0
    assert abs(json.loads(out)["norm"] - 5.0) < 1e-8
    code, out = run_cli(
        capsys, "orlicz", "--op", "delta", "--modulus", "rational", "--t", "1.0"
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["modulus_at_half_t"] <= doc["delta"] <= doc["modulus_at_t"]


def test_orlicz_validate(capsys):
    code, out = run_cli(capsys, "orlicz", "--op", "validate", "--phi", "sqrt")
    doc = json.loads(out)
    assert code == 0
    assert doc["ok"] is False
    assert any("convexity" in v for v in doc["violations"])


def test_orlicz_grid_overflow_and_underflow_keep_their_verdicts(capsys):
    # phi(1e3) = 1e600 overflows; t^p underflows to 0 at the left end of the grid
    code, out = run_cli(capsys, "orlicz", "--op", "validate", "--phi", "pow:200")
    doc = json.loads(out)
    assert code == 0
    assert doc["ok"] is True and doc["violations"] == []
    code, out = run_cli(capsys, "orlicz", "--op", "compare-lp", "--phi", "huber", "--p", "60")
    doc = json.loads(out)
    assert code == 0
    assert doc["applicable"] is False and doc["grid_constant"] == "inf"
    code, out = run_cli(
        capsys, "orlicz", "--op", "compare-lp", "--phi", "pow:3", "--p", "100", "--side", "lower"
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["applicable"] is True and doc["grid_constant"] == 13.7702951369


@pytest.mark.parametrize("p", ["0", "nan", "-1", "inf"])
def test_compare_lp_rejects_p_outside_its_domain(capsys, p):
    code, out = run_cli(capsys, "orlicz", "--op", "compare-lp", "--phi", "huber", "--p", p)
    error = json.loads(out)["error"]
    assert code == 2
    assert error["kind"] == "invalid-input" and "p must be finite and >= 1" in error["message"]


def test_the_library_runs_without_numpy():
    script = (
        "import contextlib, io, sys\n"
        "import interlace, interlace.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for op in ('validate', 'compare-lp'):\n"
        "        assert interlace.cli.main(['orlicz', '--op', op, '--phi', 'huber']) == 0\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_orlicz_nnorm_rejects_undeclared_fixture(capsys):
    code, out = run_cli(capsys, "orlicz", "--op", "nnorm", "--phi", "log1p", "--x", "1,2")
    doc = json.loads(out)
    assert code == 2
    assert doc["error"]["kind"] == "invalid-input"


def test_compare_lp_deterministic(capsys):
    args = (
        "orlicz", "--op", "compare-lp", "--phi", "pow:2", "--p", "2",
        "--side", "upper", "--samples", "25", "--seed", "7",
    )
    code1, out1 = run_cli(capsys, *args)
    code2, out2 = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert abs(json.loads(out1)["worst_ratio"] - 1.0) < 1e-7


def test_jt_embed_g_with_certificates(capsys):
    code, out = run_cli(
        capsys,
        "jt-embed", "--map", "g", "--sigma", "00000", "--tau", "11111",
        "--n", "1,2", "--m", "2,3",
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["pair_distance"] == 1
    assert doc["difference_norm"] <= 1.0 + 1e-9
    assert abs(doc["separation"] - 1.0) < 1e-9
    assert doc["vector"] == {"0": 0.5, "00": 0.5}


def test_jt_embed_f_decomposition(capsys):
    code, out = run_cli(
        capsys,
        "jt-embed", "--map", "f", "--sigma", "000000", "--n", "1,3", "--m", "2,4",
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["difference_segments"] == [["00", "00"], ["0000", "0000"]]


def test_jt_norm_entry_beyond_the_float_range_is_invalid_input(capsys):
    digits = "1" + "0" * 400
    code, out = run_cli(capsys, "jt-norm", "--entries", '{"0": %s}' % digits)
    err = json.loads(out)["error"]
    assert code == 2
    assert err["kind"] == "invalid-input"
    assert "'0'" in err["message"] and "0000" not in err["message"]


def test_jt_embed_f_beyond_the_support_cap_is_a_resource_limit(capsys):
    # the f image of top = 4096 has 4097 nodes, one more than JT_SUPPORT_CAP
    code, out = run_cli(
        capsys, "jt-embed", "--map", "f", "--sigma", "0" * 4096, "--n", "4096"
    )
    err = json.loads(out)["error"]
    assert code == 3
    assert err["kind"] == "resource"
    assert "JT_SUPPORT_CAP = 4096" in err["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["jt-embed", "--sigma", "000", "--n", "1,2", "--k", "2"],
        ["dist", "--n", "1,2", "--m", "3,4", "--seed", "1"],
    ],
)
def test_commands_reject_flags_they_do_not_read(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 2
    assert json.loads(out)["error"] == {
        "kind": "invalid-input",
        "message": f"unrecognized arguments: {' '.join(argv[-2:])}",
    }


@pytest.mark.parametrize(
    "argv, option",
    [
        (["moduli", "--k", "1" + "x" * 3000], "--k"),
        (["james-norm", "--coeffs", "1", "--p", "two"], "--p"),
        (["moduli", "--family", "nope"], "--family"),
        (["dist", "--n", "1,2"], "--m"),
        (["dist", "--n", "1,2", "--m", "3,4", "--max-entry", "6"], "--max-entry"),
    ],
    ids=["bad-int", "bad-float", "bad-choice", "missing-required", "unrecognized"],
)
def test_an_argparse_failure_prints_the_json_error_object(capsys, argv, option):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    assert captured.out.count("\n") == 1 and len(captured.out.encode()) < 300
    error = json.loads(captured.out)["error"]
    assert error["kind"] == "invalid-input" and option in error["message"]


def _printed(value):
    return float(f"{value:.12g}")


@pytest.mark.parametrize(
    "argv, want",
    [
        (["james-norm", "--coeffs", "-1,2"], {"norm": _printed(james_norm(FinSeq((-1, 2))))}),
        (
            ["orlicz", "--op", "norm", "--phi", "identity", "--x", "-3,1"],
            {"norm": _printed(orlicz_norm((-3, 1), orlicz_fixture("identity")))},
        ),
        # the value reaches the moduli layer, which names it
        (
            ["moduli", "--thresholds", "-1,2"],
            {"error": {"kind": "invalid-input",
                       "message": "thresholds must be non-negative numbers, got -1.0"}},
        ),
    ],
    ids=["coeffs", "x", "thresholds"],
)
def test_a_comma_list_that_starts_with_a_negative_value_is_a_value(capsys, argv, want):
    code, out = run_cli(capsys, *argv)
    doc = json.loads(out)
    assert {key: doc[key] for key in want} == want
    assert code == (2 if "error" in want else 0)
    # a missing value is still an argparse failure
    code, out = run_cli(capsys, *argv[:-1])
    assert code == 2
    assert json.loads(out)["error"]["message"] == f"argument {argv[-2]}: expected one argument"


@pytest.mark.parametrize("kind", ["g", "f"])
def test_jt_embed_arity_mismatch_is_invalid_input(capsys, kind):
    code, out = run_cli(
        capsys, "jt-embed", "--map", kind, "--sigma", "000", "--n", "1,2", "--m", "1,2,3"
    )
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "invalid-input"


def test_moduli_table_and_probe(tmp_path, capsys):
    code, out = run_cli(
        capsys,
        "moduli", "--family", "summing", "--k", "2", "--max-entry", "5",
        "--out", str(tmp_path),
    )
    doc = json.loads(out)
    assert code == 0
    for row in doc["rows"]:
        assert row["rho_hat"] >= row["t"] / 2 - 1e-12
        assert row["omega_hat"] <= row["t"] + 1e-12
    assert (tmp_path / "moduli_summing_k2_max5.csv").exists()

    code, out = run_cli(
        capsys,
        "moduli", "--probe", "--family", "summing", "--k", "2", "--max-entry", "6",
        "--c", "1.0", "--probe-mode", "exhaustive",
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["concentrated"] is False


def test_moduli_probe_requires_c(capsys):
    code, out = run_cli(capsys, "moduli", "--probe", "--k", "2", "--max-entry", "6")
    assert code == 2


def test_greedy_probe_rejects_a_subset_size(capsys):
    code, out = run_cli(
        capsys,
        "moduli", "--probe", "--k", "2", "--max-entry", "6", "--c", "1", "--subset-size", "3",
    )
    assert code == 2
    error = json.loads(out)["error"]
    assert error["kind"] == "invalid-input"
    assert "--subset-size" in error["message"]


def test_a_canonical_probe_answers_from_k_and_the_universe_size(capsys):
    # no tuple is built: the probe listed all C(200, 3) = 1,313,400 tuples here
    code, out = run_cli(
        capsys,
        "moduli", "--probe", "--family", "summing", "--k", "3", "--max-entry", "200", "--c", "1",
    )
    assert code == 0
    doc = json.loads(out)
    assert (doc["subset"], doc["diameter"], doc["omega_1"], doc["concentrated"]) == (
        list(range(1, 201)), 3.0, 1.0, False
    )


def test_the_probe_takes_its_arguments_by_keyword(capsys, monkeypatch):
    # the benchmark's tracer reads d_target, universe and k of a probe call by name
    import interlace.cli as cli

    probe, calls = cli.concentration_probe, []

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        return probe(*args, **kwargs)

    monkeypatch.setattr(cli, "concentration_probe", recorded)
    code, _ = run_cli(
        capsys, "moduli", "--probe", "--family", "g", "--k", "2", "--max-entry", "6", "--c", "1"
    )
    assert code == 0
    ((args, kwargs),) = calls
    assert args == ()
    assert (kwargs["d_target"], kwargs["universe"], kwargs["k"]) == (
        cli._FAMILIES["g"], range(1, 7), 2
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["--family", "summing", "--k", "2", "--max-entry", "5", "--thresholds", "nan,1"],
        ["--equicoarse", "--family", "summing", "--ks", "1,x"],
        ["--probe", "--family", "summing", "--k", "2", "--max-entry", "6", "--c", "nan"],
        ["--probe", "--family", "summing", "--k", "2", "--max-entry", "6", "--c", "-1"],
    ],
    ids=["nan-threshold", "bad-ks", "nan-c", "negative-c"],
)
def test_moduli_inputs_outside_the_domain_are_invalid_input(tmp_path, capsys, argv):
    code, out = run_cli(capsys, "moduli", *argv, "--out", str(tmp_path))
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "invalid-input"


@pytest.mark.parametrize(
    "ks, message",
    [
        ("1," + "x" * 5000, "cannot parse --ks: 'xxxxxxxxxxxx...xxxxxxxxxxxxx' at index 2"),
        ("1," + "9" * 5000, "cannot parse --ks: the integer at index 2 is too long to parse"),
    ],
    ids=["bad-field", "too-long"],
)
def test_a_bad_ks_field_is_named_by_its_index(tmp_path, capsys, ks, message):
    # --ks is read by the rule --n is read by: none of the 5,000 characters are echoed
    code, out = run_cli(capsys, "moduli", "--equicoarse", f"--ks={ks}", "--out", str(tmp_path))
    assert code == 2
    assert len(out.encode()) < 300
    assert json.loads(out)["error"] == {"kind": "invalid-input", "message": message}


def test_equicoarse_table(tmp_path, capsys):
    code, out = run_cli(
        capsys,
        "moduli", "--equicoarse", "--family", "summing", "--ks", "1,2,3",
        "--out", str(tmp_path),
    )
    doc = json.loads(out)
    assert code == 0
    ratios = [row["ratio"] for row in doc["rows"]]
    assert all(r >= k / 2 for r, k in zip(ratios, (1, 2, 3)))
    assert (tmp_path / "equicoarse_summing.csv").exists()


def test_equicoarse_rows_at_large_arities_build_no_box(tmp_path, capsys):
    # C(2000, 1000) tuples would never finish; each row scores 2k height patterns.
    # For g, rho_hat(k) = sqrt(3k/4) for k >= 2, from the balanced k/2 up, k down,
    # k/2 up: its k = 1000 row runs two 2-variation DPs on up to 2,001 heights
    expected = {
        "summing": [(k, float(-(-k // 2)), 1.0, float(-(-k // 2))) for k in (1, 10, 100, 1000)],
        "g": [
            (1, 1.0, 1.0, 1.0),
            (10, 2.73861278753, 1.0, 2.73861278753),
            (100, 8.66025403784, 1.0, 8.66025403784),
            (1000, 27.3861278753, 1.0, 27.3861278753),
        ],
    }
    for family, want in expected.items():
        code, out = run_cli(
            capsys,
            "moduli", "--equicoarse", "--family", family, "--ks", "1,10,100,1000",
            "--out", str(tmp_path),
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [(r["k"], r["rho_hat_k"], r["omega_hat_1"], r["ratio"]) for r in rows] == want


def test_equicoarse_rejects_an_arity_below_one(tmp_path, capsys):
    code, out = run_cli(
        capsys, "moduli", "--equicoarse", "--ks", "1,0", "--out", str(tmp_path)
    )
    assert code == 2
    assert json.loads(out)["error"] == {"kind": "invalid-input", "message": "arity must be >= 1"}


@pytest.mark.parametrize("ks", ["1,1000001", "99999999999"])
def test_equicoarse_arity_above_the_cap_is_a_resource_limit(tmp_path, capsys, ks):
    # 99999999999 was exit 1 with a MemoryError; no row or CSV is written
    k = int(ks.split(",")[-1])
    code, out = run_cli(
        capsys, "moduli", "--equicoarse", "--family", "g", "--ks", ks, "--out", str(tmp_path)
    )
    assert code == 3
    assert json.loads(out)["error"] == {
        "kind": "resource",
        "message": f"arity {k} exceeds the box cap: about {4 * k} pattern heights to score, "
        "BOX_HEIGHTS_CAP = 4000000",
    }
    assert not (tmp_path / "equicoarse_g.csv").exists()


def test_equicoarse_names_a_long_arity_short(tmp_path, capsys):
    # a 4,000-digit arity: the message echoed all of it, 4,174 bytes
    ks = "1," + "9" * 4000
    code, out = run_cli(capsys, "moduli", "--equicoarse", "--ks", ks, "--out", str(tmp_path))
    assert code == 3
    message = json.loads(out)["error"]["message"]
    assert len(message) < 200
    assert message.startswith("arity 9999") and "..." in message
    assert message.endswith("pattern heights to score, BOX_HEIGHTS_CAP = 4000000")


@pytest.mark.parametrize("max_entry", [10**9, 2**63 + 5, 10**40])
def test_a_moduli_table_reads_k_and_max_entry_alone(tmp_path, capsys, max_entry):
    # the box over range(1, M + 1) keeps its range: M = 10^9 read 102 MB as a list,
    # and len() of a range past sys.maxsize raises
    code, out = run_cli(
        capsys, "moduli", "--family", "summing", "--k", "3", "--max-entry", str(max_entry),
        "--out", str(tmp_path),
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [(r["t"], r["rho_hat"], r["omega_hat"]) for r in rows] == [
        (t, (t + 1) // 2, t) for t in (1, 2, 3)
    ]
    assert (tmp_path / f"moduli_summing_k3_max{max_entry}.csv").exists()


def test_a_max_entry_too_long_for_a_file_name_is_invalid_input(tmp_path, capsys):
    # the box answers from (k, |U|); the CSV's name cannot hold 300 digits
    code, out = run_cli(
        capsys, "moduli", "--k", "3", "--max-entry", str(10**300), "--out", str(tmp_path)
    )
    assert code == 2
    error = json.loads(out)["error"]
    assert error["kind"] == "invalid-input" and error["message"].startswith("cannot write ")
    assert len(error["message"]) < 200


@pytest.mark.parametrize(
    "k, max_entry, thresholds",
    [("1001", "2002", None), ("3000", "6000", None), ("3", "8", ",".join(["1"] * 333334))],
    ids=["J=1001", "J=3000", "333334-thresholds"],
)
def test_a_moduli_table_above_the_box_cap_is_a_resource_limit(
    tmp_path, capsys, k, max_entry, thresholds
):
    # each threshold scores up to 4J + 2 heights: the default table stops at J = 1000
    argv = ["moduli", "--family", "g", "--k", k, "--max-entry", max_entry]
    argv += ["--thresholds", thresholds] if thresholds else []
    code, out = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert code == 3
    error = json.loads(out)["error"]
    assert error["kind"] == "resource"
    assert re.fullmatch(
        r"a box table of \d+ thresholds at J = \d+ exceeds the box cap: "
        r"about \d+ pattern heights to score, BOX_HEIGHTS_CAP = 4000000",
        error["message"],
    ), error["message"]
    assert not list(tmp_path.iterdir())


def test_exhaustive_probe_cap_builds_no_box(capsys):
    # the cap fires before the C(40, 20) tuples of the universe would be built
    code, out = run_cli(
        capsys,
        "moduli", "--probe", "--k", "20", "--max-entry", "40", "--c", "1",
        "--probe-mode", "exhaustive",
    )
    assert code == 3
    assert json.loads(out)["error"] == {
        "kind": "resource",
        "message": "universe of size 40 exceeds the exhaustive probe cap EXHAUSTIVE_PROBE_CAP = 12",
    }


def test_outputs_are_bit_identical_across_runs(tmp_path, capsys):
    args = ("embed-c0", "--k", "2", "--max-entry", "4", "--out", str(tmp_path))
    _, out1 = run_cli(capsys, *args)
    first = (tmp_path / "embed_c0_k2_max4.csv").read_bytes()
    _, out2 = run_cli(capsys, *args)
    second = (tmp_path / "embed_c0_k2_max4.csv").read_bytes()
    assert out1 == out2
    assert first == second


def test_out_dir_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("INTERLACE_OUT", str(tmp_path / "reports"))
    code, out = run_cli(capsys, "embed-c0", "--k", "2", "--max-entry", "4")
    assert code == 0
    assert (tmp_path / "reports" / "embed_c0_k2_max4.csv").exists()


def test_suite_reports_are_bit_identical_and_in_order(tmp_path, capsys):
    code, out1 = run_cli(capsys, "suite", "--out", str(tmp_path))
    assert code == 0
    doc = json.loads(out1)
    assert doc["ok"] is True
    statuses = {c["id"]: c["passed"] for c in doc["criteria"]}
    assert statuses["8-literal"] is False  # the documented defect stays red
    assert all(v for k, v in statuses.items() if k != "8-literal")
    first_csv = (tmp_path / "acceptance.csv").read_bytes()
    first_json = (tmp_path / "acceptance.json").read_bytes()
    code, out2 = run_cli(capsys, "suite", "--out", str(tmp_path))
    assert code == 0
    assert out1 == out2
    assert (tmp_path / "acceptance.csv").read_bytes() == first_csv
    assert (tmp_path / "acceptance.json").read_bytes() == first_json


def test_suite_notes_the_defect_once_and_checks_under_python_O(tmp_path, capsys):
    # python -O strips assert statements; the criteria must still check
    def reports():
        return [(tmp_path / name).read_bytes() for name in ("acceptance.json", "acceptance.csv")]

    code = main(["suite", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    files = reports()
    line = next(x for x in captured.err.splitlines() if "criterion 8-literal" in x)
    assert re.fullmatch(
        r"\[FAIL\] criterion 8-literal: N-norm sandwich with literal log\(1\+t\) "
        r"\(documented defect: must fail\) \(\d+\.\d\ds\)",
        line,
    ), line
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "interlace.cli", "suite", "--out", str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert (proc.returncode, proc.stdout) == (code, captured.out), proc.stderr
    assert reports() == files
