"""CLI behaviour: output shapes, determinism, error objects, file emission."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from interlace import dist, itup, summing_distortion_check, summing_image, sup_norm
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


def test_jt_norm_support_cap(capsys):
    # node length does not set the solver's cost: a depth-9 node is solved
    code, out = run_cli(capsys, "jt-norm", "--entries", json.dumps({"0" * 9: 1.0}))
    doc = json.loads(out)
    assert code == 0
    assert doc["norm"] == 1.0
    assert "depth_cap" not in doc["config"]
    entries = json.dumps({format(i, "013b"): 1.0 for i in range(4097)})
    code, out = run_cli(capsys, "jt-norm", "--entries", entries)
    doc = json.loads(out)
    assert code == 3
    assert doc["error"]["kind"] == "resource"
    assert "JT_SUPPORT_CAP = 4096" in doc["error"]["message"]


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


@pytest.mark.parametrize(
    "argv",
    [
        ["jt-embed", "--sigma", "000", "--n", "1,2", "--k", "2"],
        ["dist", "--n", "1,2", "--m", "3,4", "--seed", "1"],
    ],
)
def test_commands_reject_flags_they_do_not_read(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


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
