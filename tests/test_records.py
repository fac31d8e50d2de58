"""The value classes: construction, equality, hash, repr, frozen fields, copy and pickle.

Each class is a plain class with its own `__init__`; these checks pin what the
classes promise, so they read the same on any implementation of them.
"""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import interlace.cli  # noqa: F401  (loads every library module)
from interlace import (
    Branch,
    EquicoarseRow,
    FinSeq,
    MapSample,
    ModuliReport,
    ModulusSpec,
    OrliczSpec,
    ProbeResult,
    Segment,
    TreeVec,
    ValidationReport,
    dist,
    itup,
)
from interlace.acceptance import CriterionResult
from interlace.graphs import InterlacedTuple
from interlace.orlicz import LpComparisonReport

POINTS = [itup(1, 2), itup(1, 3)]

# class, field names, positional arguments, the fields they give (after the
# constructor's checks), the number of required arguments and the fields given
# by those alone (None: no field has a default), and the exact repr
CASES = [
    (
        InterlacedTuple, ("entries",), ((1, 3, 4),), ((1, 3, 4),), None, "(1,3,4)",
    ),
    (
        FinSeq, ("coeffs", "tail"), ([1, 2.5, 0], 0), ((1.0, 2.5), 0.0), (0, ((), 0.0)),
        "FinSeq([1,2.5], tail=0)",
    ),
    (
        Segment, ("lo", "hi"), ("0", "011"), ("0", "011"), None,
        "Segment(lo='0', hi='011')",
    ),
    (
        TreeVec, ("entries",), ({"0": 1, "01": 0.0},), ({"0": 1.0},), None,
        "TreeVec(entries={'0': 1.0})",
    ),
    (Branch, ("bits",), ("0110",), ("0110",), None, "Branch(bits='0110')"),
    (
        MapSample, ("points", "d_source", "d_target"),
        (POINTS, dist, dist), (POINTS, dist, dist), None,
        f"MapSample(points=[(1,2), (1,3)], d_source={dist!r}, d_target={dist!r})",
    ),
    (
        ModuliReport, ("thresholds", "rho_hat", "omega_hat"),
        ((1.0, 2.0), (0.5, 1.0), (1.0, 2.0)), ((1.0, 2.0), (0.5, 1.0), (1.0, 2.0)), None,
        "ModuliReport(thresholds=(1.0, 2.0), rho_hat=(0.5, 1.0), omega_hat=(1.0, 2.0))",
    ),
    (
        EquicoarseRow, ("k", "rho_at_k", "omega_at_1", "ratio"),
        (2, 1.0, 1.0, 1.0), (2, 1.0, 1.0, 1.0), None,
        "EquicoarseRow(k=2, rho_at_k=1.0, omega_at_1=1.0, ratio=1.0)",
    ),
    (
        ProbeResult, ("subset", "diameter", "concentrated", "omega_1"),
        ((1, 2), 1.0, True, 1.0), ((1, 2), 1.0, True, 1.0), None,
        "ProbeResult(subset=(1, 2), diameter=1.0, concentrated=True, omega_1=1.0)",
    ),
    (
        OrliczSpec, ("fn", "is_one_lipschitz", "slope_limit_one", "name"),
        (abs, True, True, "abs"), (abs, True, True, "abs"), (1, (abs, False, False, "")),
        "OrliczSpec(fn=<built-in function abs>, is_one_lipschitz=True,"
        " slope_limit_one=True, name='abs')",
    ),
    (
        ModulusSpec, ("fn", "name"), (abs, "abs"), (abs, "abs"), (1, (abs, "")),
        "ModulusSpec(fn=<built-in function abs>, name='abs')",
    ),
    (
        ValidationReport, ("violations",), (("bad",),), (("bad",),), (0, ((),)),
        "ValidationReport(violations=('bad',))",
    ),
    (
        LpComparisonReport,
        ("side", "applicable", "grid_constant", "worst_ratio", "n_samples", "note"),
        ("lower", True, 1.0, 0.5, 3, "x"), ("lower", True, 1.0, 0.5, 3, "x"),
        (5, ("lower", True, 1.0, 0.5, 3, "")),
        "LpComparisonReport(side='lower', applicable=True, grid_constant=1.0,"
        " worst_ratio=0.5, n_samples=3, note='x')",
    ),
    (
        CriterionResult, ("cid", "name", "passed", "detail", "seconds", "expected_defect"),
        ("1", "c", True, "ok", 0.5, True), ("1", "c", True, "ok", 0.5, True),
        (5, ("1", "c", True, "ok", 0.5, False)),
        "CriterionResult(cid='1', name='c', passed=True, detail='ok', seconds=0.5,"
        " expected_defect=True)",
    ),
]
IDS = [case[0].__name__ for case in CASES]


def fields_of(x, names):
    return tuple(getattr(x, f) for f in names)


@pytest.mark.parametrize("cls, names, args, fields, defaults, text", CASES, ids=IDS)
def test_value_classes_behave_as_records(cls, names, args, fields, defaults, text):
    x = cls(*args)
    assert fields_of(x, names) == fields
    assert cls(**dict(zip(names, args))) == x
    if defaults is not None:
        n_required, default_fields = defaults
        assert fields_of(cls(*args[:n_required]), names) == default_fields
    assert cls(*fields) == x and not (cls(*fields) != x)
    assert x.__eq__(fields) is NotImplemented and x != fields
    assert repr(x) == text
    for y in (copy.copy(x), pickle.loads(pickle.dumps(x))):
        assert y == x and y is not x and type(y) is cls
    if cls is MapSample:
        # mutable, so it has no hash
        assert MapSample.__hash__ is None
        with pytest.raises(TypeError):
            hash(x)
        x.points = POINTS[::-1]
        assert x.points == POINTS[::-1] and x != cls(*args)
        return
    if cls is TreeVec:
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(x)
    else:
        assert hash(x) == hash(fields)
        assert hash(copy.copy(x)) == hash(x)
    for f in names:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{f}'$"):
            setattr(x, f, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{f}'$"):
            delattr(x, f)
    assert fields_of(x, names) == fields


def test_interlaced_tuples_order_by_their_entries():
    a, b = itup(1, 3), itup(1, 4)
    assert (a < b, a <= b, a > b, a >= b) == (True, True, False, False)
    assert (b < a, b <= a, b > a, b >= a) == (False, False, True, True)
    assert (a < itup(1, 3), a <= itup(1, 3), a >= itup(1, 3)) == (False, True, True)
    assert sorted([itup(2, 3), b, itup(1), a]) == [itup(1), a, b, itup(2, 3)]
    for op in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__"):
        assert getattr(a, op)((1, 3)) is NotImplemented
    with pytest.raises(TypeError):
        a < (1, 4)


def test_no_library_class_is_a_generated_record():
    for name, module in list(sys.modules.items()):
        if name == "interlace" or name.startswith("interlace."):
            for obj in vars(module).values():
                if isinstance(obj, type):
                    assert not hasattr(obj, "__dataclass_fields__"), (name, obj)
    assert "interlace.acceptance" in sys.modules


def test_a_cold_cli_import_loads_neither_dataclasses_nor_inspect():
    # python -S leaves out site, so only the library's own imports are counted
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import interlace.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr
