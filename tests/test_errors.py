"""The one rule that reads every number: each vector reader, fed the same bad values.

A bool, a numeric string, bytes or None is not a number; NaN, an infinity and
an int beyond the float range are not finite.  Every reader names the first
bad value, and where it is, in the form of `errors._numbers`.
"""

import json
import math

import pytest

from interlace import (
    FinSeq,
    InvalidInput,
    Segment,
    TreeVec,
    compare_lp,
    n_norm,
    orlicz_fixture,
    orlicz_norm,
)
from interlace.cli import main

HUBER = orlicz_fixture("huber")

# each bad value, and how the message names it
BAD = [
    ("1", "numbers: '1'"),
    (True, "numbers: True"),
    (False, "numbers: False"),
    (b"1", "numbers: b'1'"),
    (None, "numbers: None"),
    (10**400, "finite: an integer beyond the float range"),
    (math.nan, "finite: nan"),
    (math.inf, "finite: inf"),
    (-math.inf, "finite: -inf"),
]
# JSON has no bytes
JSON_BAD = [(v, text) for v, text in BAD if not isinstance(v, bytes)]

# each library reader: a call on a vector whose second value is bad, and the
# message up to the value and after it
READERS = {
    "FinSeq coefficients": (
        lambda v: FinSeq((1.0, v)), "sequence values must be ", " at index 2"
    ),
    "FinSeq tail": (lambda v: FinSeq((1.0,), v), "sequence values must be ", " at the tail"),
    "orlicz_norm": (
        lambda v: orlicz_norm([1.0, v], HUBER), "vector entries must be ", " at index 2"
    ),
    "n_norm": (lambda v: n_norm([1.0, v], HUBER), "vector entries must be ", " at index 2"),
    "compare_lp": (
        lambda v: compare_lp(HUBER, 2.0, "upper", [[1.0, v]]),
        "vector entries must be ",
        " at index 2 of sample 1",
    ),
    "TreeVec": (
        lambda v: TreeVec({"0": 1.0, "01": v}), "tree vector entries must be ", " at node '01'"
    ),
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("value, text", BAD, ids=[repr(v)[:12] for v, _ in BAD])
def test_every_reader_names_the_first_bad_value(reader, value, text):
    call, head, where = READERS[reader]
    with pytest.raises(InvalidInput) as info:
        call(value)
    assert str(info.value) == head + text + where


def test_compare_lp_names_the_sample_of_a_bad_entry():
    with pytest.raises(InvalidInput) as info:
        compare_lp(HUBER, 2.0, "upper", [[1.0], [1.0, math.nan]])
    assert str(info.value) == "vector entries must be finite: nan at index 2 of sample 2"


@pytest.mark.parametrize("value, text", JSON_BAD, ids=[repr(v)[:12] for v, _ in JSON_BAD])
def test_james_norm_input_file(tmp_path, capsys, value, text):
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"coeffs": [1, value], "tail": 0}))
    code, doc = run_cli(capsys, "james-norm", "--input", str(path))
    assert code == 2 and doc["error"]["kind"] == "invalid-input"
    assert doc["error"]["message"] == f"sequence values must be {text} at index 2"


@pytest.mark.parametrize("value, text", JSON_BAD, ids=[repr(v)[:12] for v, _ in JSON_BAD])
def test_jt_norm_entries(capsys, value, text):
    code, doc = run_cli(capsys, "jt-norm", "--entries", json.dumps({"0": 1, "01": value}))
    assert code == 2 and doc["error"]["kind"] == "invalid-input"
    assert doc["error"]["message"] == f"tree vector entries must be {text} at node '01'"


def test_plain_numbers_read_as_floats():
    # ints and float subclasses are numbers; a generator is read once
    class Half(float):
        pass

    assert FinSeq((1, Half(0.5)), 2).coeffs == (1.0, 0.5)
    assert all(type(v) is float for v in FinSeq((1, Half(0.5)), 2).coeffs)
    assert orlicz_norm((v for v in (3, 4.0)), HUBER) == orlicz_norm([3.0, 4.0], HUBER)
    assert TreeVec({"0": 2, "1": 0}).entries == {"0": 2.0}
    # a sum of finite values that overflows is still read as finite values
    assert FinSeq((1e308, 1e308)).coeffs == (1e308, 1e308)


LONG = 10**5


@pytest.mark.parametrize(
    "make",
    [
        lambda: TreeVec({"2" * LONG: 1.0}),
        lambda: TreeVec({"0" * LONG: "x" * LONG}),
        lambda: Segment("0" * LONG, "1" * LONG),
        lambda: Segment("0", "2" * LONG),
    ],
    ids=["bad key", "bad value at a long key", "not a prefix", "bad bits"],
)
def test_a_long_node_is_not_echoed(make):
    with pytest.raises(InvalidInput) as info:
        make()
    assert len(str(info.value)) < 300


def test_a_long_bad_key_on_the_cli_is_not_echoed(capsys):
    code, doc = run_cli(capsys, "jt-norm", "--entries", json.dumps({"2" * LONG: 1}))
    assert code == 2 and doc["error"]["kind"] == "invalid-input"
    assert doc["error"]["message"].startswith("tree nodes are 0/1 strings, got '2222")
    assert len(doc["error"]["message"]) < 300


@pytest.mark.parametrize(
    "data", [b'{"coeffs": [' + b"9" * 5000 + b"]}", b'{"coeffs": [1], "tail": "\xff"}']
)
def test_a_file_json_cannot_read_is_invalid_input(tmp_path, capsys, data):
    # an int past the int/str digit limit, and a byte that is not UTF-8
    path = tmp_path / "x.json"
    path.write_bytes(data)
    code, doc = run_cli(capsys, "james-norm", "--input", str(path))
    assert code == 2 and doc["error"]["kind"] == "invalid-input"
    assert doc["error"]["message"].startswith("malformed JSON: ")
    assert len(doc["error"]["message"]) < 300
