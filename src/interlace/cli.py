"""Command-line front end: computations, certificate tables, and the full suite.

Single results are printed as JSON on stdout with the parsed configuration
echoed under "config"; table-producing commands additionally write CSV files
(first line: a `# config: ...` comment) into the output directory, which
defaults to $INTERLACE_OUT or the working directory.  Floats are rounded to 12
significant digits before serialization and all randomness is seed-driven, so
outputs are bit-identical across runs with the same flags.

Exit codes: 0 success, 2 invalid input (including argparse failures and
unreadable or malformed JSON input), 3 resource cap, 4 suite found failing
checks, 1 unexpected error.  Failures print a JSON object
{"error": {"kind": ..., "message": ...}}.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import os
import random
import re
import reprlib
import sys
from pathlib import Path
from typing import Any, Iterable, NoReturn, Sequence

from . import acceptance
from .errors import InvalidInput, ResourceLimit, _short_repr
from .graphs import InterlacedTuple, dist, geodesic_path
from .moduli import (
    MapSample,
    _branch_score,
    _constant_score,
    _identity_score,
    _summing_score,
    _tuple_sample,
    compute_moduli,
    concentration_probe,
    equicoarse_report,
    summing_map_sample,
)
from .orlicz import (
    MODULUS_FIXTURE_KEYS,
    ORLICZ_FIXTURE_KEYS,
    compare_lp,
    delta_transform,
    modulus_fixture,
    n_norm,
    orlicz_fixture,
    orlicz_norm,
    validate_modulus,
    validate_orlicz,
)
from .sequences import (
    FinSeq,
    james_norm,
    james_norm_bruteforce,
    summing_distortion_check,
    summing_image,
)
from .tree import (
    Branch,
    TreeVec,
    f_difference_segments,
    f_embed,
    f_separation,
    g_embed,
    g_separation,
    jt_norm_exact,
)

__all__ = ["main"]


# ----------------------------------------------------------------- utilities

# what int() reads as a decimal integer; it refuses one only for having more
# digits than sys.get_int_max_str_digits(), a process-wide limit left alone here
_INT_TEXT = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")


def _parse_ints(text: str, what: str) -> list[int]:
    values = []
    for i, field in enumerate(text.split(","), 1):
        try:
            values.append(int(field))
        except ValueError:
            # name the first bad field only: a long --n or --ks is not echoed back
            if _INT_TEXT.fullmatch(field):
                raise InvalidInput(
                    f"cannot parse {what}: the integer at index {i} is too long to parse"
                ) from None
            raise InvalidInput(f"cannot parse {what}: {reprlib.repr(field)} at index {i}") from None
    return values


def _parse_tuple(text: str) -> InterlacedTuple:
    return InterlacedTuple(tuple(_parse_ints(text, "tuple")))


def _parse_floats(text: str) -> list[float]:
    values = []
    for i, field in enumerate(text.split(","), 1):
        try:
            values.append(float(field))
        except ValueError:
            # name the first bad field only: a long --x is not echoed back
            raise InvalidInput(f"cannot parse vector: {reprlib.repr(field)} at index {i}") from None
    return values


def _round_floats(obj: Any) -> Any:
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


# the options each `orlicz --op` reads; the echo of an op leaves out the others
_ORLICZ_OP_OPTIONS = {
    "norm": {"phi", "x", "tol"},
    "nnorm": {"phi", "x"},
    "delta": {"modulus", "t", "steps"},
    "validate": {"phi", "modulus"},
    "compare-lp": {"phi", "p", "side", "samples", "seed"},
}


def _config_echo(args: argparse.Namespace) -> dict[str, Any]:
    skip = {"handler", "func"}
    if args.command == "orlicz":
        skip |= set.union(*_ORLICZ_OP_OPTIONS.values()) - _ORLICZ_OP_OPTIONS[args.op]
    return {
        k: (v if not isinstance(v, Path) else str(v))
        for k, v in sorted(vars(args).items())
        if k not in skip
    }


def _out_dir(args: argparse.Namespace) -> Path:
    root = args.out or os.environ.get("INTERLACE_OUT") or "."
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _render_row(row: Sequence[Any]) -> tuple:
    """A table row as written: floats to 12 significant digits, bools as true/false."""
    return tuple(
        _round_floats(cell) if isinstance(cell, float)
        else ("true" if cell else "false") if isinstance(cell, bool)
        else cell
        for cell in row
    )


def _write_csv(
    path: Path, header: Sequence[str], rows: Iterable[Sequence[Any]], config: dict
) -> None:
    """Write rows already rendered (`_render_row`) under a `# config:` line and a header.

    A path that cannot be opened, such as a name made too long by a long
    `--max-entry`, is InvalidInput.
    """
    try:
        fh = path.open("w", encoding="utf-8", newline="")
    except OSError as exc:
        raise InvalidInput(f"cannot write {reprlib.repr(str(path))}: {exc.strerror}") from None
    with fh:
        fh.write("# config: " + json.dumps(_round_floats(config), sort_keys=True) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_table(
    args: argparse.Namespace, name: str, header: Sequence[str], rows: Iterable[Sequence[Any]]
) -> dict:
    """Write the rows as the CSV `name` in the output directory; return them as JSON.

    The JSON document holds each row keyed by the CSV header, and the CSV's path.
    """
    rows = list(rows)
    out = _out_dir(args) / name
    _write_csv(out, header, map(_render_row, rows), _config_echo(args))
    return {"rows": [dict(zip(header, row)) for row in rows], "csv": str(out)}


def _load_json(path: str | None, text: str | None = None) -> Any:
    """Parse JSON from a file (when `path` is given) or from inline text."""
    try:
        if path:
            text = Path(path).read_text(encoding="utf-8")
        return json.loads(text)
    except OSError as exc:
        raise InvalidInput(f"cannot read {path!r}: {exc.strerror}") from None
    except ValueError as exc:  # bad JSON, a byte that is not UTF-8, an int past the digit limit
        raise InvalidInput(f"malformed JSON: {exc}") from None


def _load_finseq(args: argparse.Namespace) -> FinSeq:
    if args.input:
        obj = _load_json(args.input)
        if not isinstance(obj, dict):
            raise InvalidInput("sequence files are JSON objects with \"coeffs\" and \"tail\"")
        coeffs = obj.get("coeffs", [])
        if not isinstance(coeffs, list):
            raise InvalidInput(f"\"coeffs\" must be a JSON array, got {_short_repr(coeffs)}")
        return FinSeq(coeffs, obj.get("tail", 0.0))
    if args.coeffs is None:
        raise InvalidInput("provide --coeffs or --input")
    return FinSeq(_parse_floats(args.coeffs), args.tail)


# ----------------------------------------------------------------- handlers

def _cmd_dist(args: argparse.Namespace) -> dict:
    n, m = _parse_tuple(args.n), _parse_tuple(args.m)
    path = geodesic_path(n, m)
    return {
        "distance": dist(n, m),
        "path": [list(v.entries) for v in path],
    }


def _cmd_embed_c0(args: argparse.Namespace) -> dict:
    # the sample scores d and sup_diff from the walk profile, read once per pair;
    # the ratio comes from the c0 images, built once per tuple as the CSV texts
    # are, and the certificate verifies the table's d, so each row checks one
    # against the other.  Both checks run on every pair; once a pair's ratio is
    # sup_diff / d, its cells are a function of its table row (d, sup_diff), of
    # which a box has few (5 at k = 3 over 1..10, for 7,140 pairs), so each
    # distinct row is rendered once and min/max ratio are read over those rows.
    # The sample's tuple box is read four times, so its tuples are listed once
    sample = summing_map_sample(args.k, args.max_entry)
    points = list(sample.points)
    sample = MapSample(points, sample.d_source, sample.d_target)
    pairs = zip(
        itertools.combinations(sample.points, 2),
        itertools.combinations([summing_image(t) for t in sample.points], 2),
        itertools.combinations([",".join(map(str, t.entries)) for t in sample.points], 2),
        sample.pair_distances(),
    )
    cells: dict[tuple[float, float], tuple] = {}
    rows = []
    for (n, m), images, texts, row in pairs:
        d, sup_diff = row
        ratio, _ = summing_distortion_check(n, m, images=images, d=d)
        if sup_diff / d != ratio:
            raise AssertionError(
                f"profile score {sup_diff!r} / {d!r} != image ratio {ratio!r} at {n}, {m}"
            )
        rendered = cells.get(row)
        if rendered is None:
            rendered = cells[row] = _render_row((int(d), sup_diff, ratio))
        rows.append((*texts, *rendered))
    out = _out_dir(args) / f"embed_c0_k{args.k}_max{args.max_entry}.csv"
    _write_csv(out, ["n", "m", "dist", "sup_diff", "ratio"], rows, _config_echo(args))
    ratios = [sup_diff / d for d, sup_diff in cells]
    return {
        "pairs": len(rows),
        "min_ratio": min(ratios),
        "max_ratio": max(ratios),
        "csv": str(out),
    }


def _cmd_james_norm(args: argparse.Namespace) -> dict:
    x = _load_finseq(args)
    doc: dict[str, Any] = {"norm": james_norm(x, args.p)}
    if args.brute:
        doc["oracle"] = james_norm_bruteforce(x, args.p)
    return doc


def _cmd_orlicz(args: argparse.Namespace) -> dict:
    def required(flag: str) -> str:
        value = getattr(args, flag)
        if value is None:
            raise InvalidInput(f"--op {args.op} needs --{flag}")
        return value

    if args.op == "norm":
        spec = orlicz_fixture(required("phi"))
        return {"norm": orlicz_norm(_parse_floats(required("x")), spec, args.tol)}
    if args.op == "nnorm":
        spec = orlicz_fixture(required("phi"))
        return {"n_norm": n_norm(_parse_floats(required("x")), spec)}
    if args.op == "delta":
        mod = modulus_fixture(required("modulus"))
        doc = {
            "delta": delta_transform(mod, args.t, args.steps),
            "modulus_at_t": mod.fn(args.t),
            "modulus_at_half_t": mod.fn(args.t / 2.0),
        }
        if not all(map(math.isfinite, doc.values())):
            raise InvalidInput(f"modulus {mod.name!r} at t = {args.t!r} is beyond the float range")
        return doc
    if args.op == "validate":
        if args.phi:
            report = validate_orlicz(orlicz_fixture(args.phi))
        elif args.modulus:
            report = validate_modulus(modulus_fixture(args.modulus))
        else:
            raise InvalidInput("validate needs --phi or --modulus")
        return {"ok": report.ok, "violations": list(report.violations)[:20]}
    if args.op == "compare-lp":
        spec = orlicz_fixture(required("phi"))
        if args.samples < 1:
            raise InvalidInput(f"--samples must be >= 1, got {args.samples}")
        rng = random.Random(args.seed)
        samples = [
            [rng.uniform(-2, 2) for _ in range(rng.randint(1, 12))]
            for _ in range(args.samples)
        ]
        rep = compare_lp(spec, args.p, args.side, samples)
        return {
            "side": rep.side,
            "applicable": rep.applicable,
            "grid_constant": rep.grid_constant,
            "worst_ratio": rep.worst_ratio,
            "n_samples": rep.n_samples,
            "note": rep.note,
        }
    raise InvalidInput(f"unknown orlicz op {args.op!r}")


def _cmd_jt_norm(args: argparse.Namespace) -> dict:
    if not (args.input or args.entries):
        raise InvalidInput("provide --input or --entries")
    x = TreeVec.from_json_dict(_load_json(args.input, args.entries))
    norm, witness = jt_norm_exact(x)
    return {"norm": norm, "witness": [[seg.lo, seg.hi] for seg in witness]}


def _cmd_jt_embed(args: argparse.Namespace) -> dict:
    sigma = Branch(args.sigma)
    n = _parse_tuple(args.n)
    doc: dict[str, Any] = {"map": args.map}
    if args.map == "g":
        vec = g_embed(sigma, n)
        doc["vector"] = vec.to_json_dict()
        doc["norm"] = jt_norm_exact(vec)[0]
        if args.m:
            m = _parse_tuple(args.m)
            diff = vec - g_embed(sigma, m)
            doc["pair_distance"] = dist(n, m)
            doc["difference_norm"] = jt_norm_exact(diff)[0]
        if args.tau:
            doc["separation"] = g_separation(sigma, Branch(args.tau), n)
    else:
        vec = f_embed(sigma, n)
        doc["vector"] = vec.to_json_dict()
        if args.m:
            m = _parse_tuple(args.m)
            segs = f_difference_segments(sigma, n, m)
            doc["pair_distance"] = dist(n, m)
            doc["difference_segments"] = [[s.lo, s.hi] for s in segs]
        if args.tau:
            doc["separation"] = f_separation(sigma, Branch(args.tau), n)
    return doc


# each family's pair score, a function of the arity and the profile heights; the
# moduli table, the equicoarse rows and the probe score the family's tuple box
# from (k, |U|) and build no tuple
_FAMILIES = {
    "summing": _summing_score,
    "g": _branch_score,
    "identity": _identity_score,
    "constant": _constant_score,
}


def _cmd_moduli(args: argparse.Namespace) -> dict:
    score = _FAMILIES[args.family]
    if args.equicoarse:
        ks = _parse_ints(args.ks, "--ks")
        # the full arity-k box over 2k elements per row; every box is made, and so
        # every arity checked, before a row is scored
        rows = equicoarse_report([(k, _tuple_sample(k, 2 * k, score)) for k in ks])
        return _write_table(
            args,
            f"equicoarse_{args.family}.csv",
            ["k", "rho_hat_k", "omega_hat_1", "ratio"],
            [(r.k, r.rho_at_k, r.omega_at_1, r.ratio) for r in rows],
        )
    if args.probe:
        if args.c is None:
            raise InvalidInput("the probe needs --c (no canonical default exists)")
        result = concentration_probe(
            d_target=score,
            universe=range(1, args.max_entry + 1),
            k=args.k,
            c=args.c,
            mode=args.probe_mode,
            subset_size=args.subset_size,
        )
        return {
            "subset": list(result.subset),
            "diameter": result.diameter,
            "concentrated": result.concentrated,
            "omega_1": result.omega_1,
        }
    sample = _tuple_sample(args.k, args.max_entry, score)
    thresholds = _parse_floats(args.thresholds) if args.thresholds else None
    report = compute_moduli(sample, thresholds)
    return _write_table(
        args,
        f"moduli_{args.family}_k{args.k}_max{args.max_entry}.csv",
        ["t", "rho_hat", "omega_hat"],
        report.rows(),
    )


def _cmd_suite(args: argparse.Namespace) -> dict:
    results = acceptance.run_all(args.seed)
    out_dir = _out_dir(args)
    rows = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        # timings go to stderr only, so the emitted files stay bit-identical; the
        # name of a documented defect already says that it must fail
        print(f"[{status}] criterion {res.cid}: {res.name} ({res.seconds:.2f}s)", file=sys.stderr)
        rows.append(_render_row((res.cid, status, res.expected_defect, res.name)))
    config = _config_echo(args)
    _write_csv(
        out_dir / "acceptance.csv",
        ["criterion", "status", "expected_defect", "name"],
        rows,
        config,
    )
    doc = {
        "ok": all(res.in_order for res in results),
        "criteria": [
            {
                "id": res.cid,
                "name": res.name,
                "passed": res.passed,
                "expected_defect": res.expected_defect,
                "detail": res.detail,
            }
            for res in results
        ],
        "csv": str(out_dir / "acceptance.csv"),
    }
    (out_dir / "acceptance.json").write_text(
        json.dumps(_round_floats({"config": config, **doc}), sort_keys=True, indent=2)
        + "\n",
        encoding="utf-8",
    )
    return doc


# ----------------------------------------------------------------- parser

# a token that starts as a negative number is a value, as in `--x -3,1` or
# `--tail -1e5`, not an unknown option; argparse's own pattern reads only a lone
# -3 or -0.5 so. No option here starts with a digit
_NEGATIVE_VALUE = re.compile(r"-\.?\d")


class _Parser(argparse.ArgumentParser):
    # an argparse failure is invalid input, printed as main's JSON error object; a
    # message past 200 characters keeps its two ends, as reprlib elides a string.
    # The subparsers are built from this class too, argparse's parser_class default
    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_VALUE

    def error(self, message: str) -> NoReturn:
        raise InvalidInput(message if len(message) <= 200 else f"{message[:98]}...{message[-99:]}")


# built on the first call, not at import, and kept for the process: parse_args
# leaves the parser unchanged, so every later main() reuses it
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="interlace",
        description="Interlaced-graph metrics, variation norms, and embedding certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        # the commands that write files; embed-c0 and moduli read no seed but
        # keep --seed, because their config echo, and so their recorded
        # benchmark outputs, contain it
        p.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED)
        p.add_argument("--out", type=str, default=None, help="output directory")

    p = sub.add_parser("dist", help="graph distance and an explicit geodesic")
    p.add_argument("--n", required=True, help="comma-separated tuple, e.g. 1,2")
    p.add_argument("--m", required=True)
    p.set_defaults(handler=_cmd_dist)

    p = sub.add_parser("embed-c0", help="distortion table of the summing embedding")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max-entry", type=int, required=True)
    common(p)
    p.set_defaults(handler=_cmd_embed_c0)

    p = sub.add_parser("james-norm", help="exact p-variation norm of a sequence")
    p.add_argument("--coeffs", help="comma-separated values at indices 1..L")
    p.add_argument("--tail", type=float, default=0.0)
    p.add_argument("--input", help="JSON file {\"coeffs\": [...], \"tail\": 0.0}")
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--brute", action="store_true", help="cross-check with the oracle")
    p.set_defaults(handler=_cmd_james_norm)

    p = sub.add_parser("orlicz", help="Orlicz norms, N-norms, delta transform")
    p.add_argument(
        "--op",
        required=True,
        choices=["norm", "nnorm", "delta", "validate", "compare-lp"],
    )
    p.add_argument("--phi", help=f"fixture key, one of {ORLICZ_FIXTURE_KEYS}")
    p.add_argument("--modulus", help=f"fixture key, one of {MODULUS_FIXTURE_KEYS}")
    p.add_argument("--x", help="comma-separated vector")
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=256)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--side", choices=["upper", "lower"], default="upper")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED)
    p.set_defaults(handler=_cmd_orlicz)

    p = sub.add_parser("jt-norm", help="exact James-tree norm with witness")
    p.add_argument("--input", help="JSON file mapping bit-strings to numbers")
    p.add_argument("--entries", help="inline JSON, e.g. '{\"0\": 0.5, \"00\": 0.5}'")
    p.set_defaults(handler=_cmd_jt_norm)

    p = sub.add_parser("jt-embed", help="branch embeddings and their certificates")
    p.add_argument("--map", choices=["g", "f"], default="g")
    p.add_argument("--sigma", required=True, help="0/1 branch prefix")
    p.add_argument("--tau", help="second branch for separation certificates")
    p.add_argument("--n", required=True)
    p.add_argument("--m", help="second tuple for difference certificates")
    p.set_defaults(handler=_cmd_jt_embed)

    p = sub.add_parser("moduli", help="compression/expansion reports and probes")
    p.add_argument("--family", choices=sorted(_FAMILIES), default="summing")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--max-entry", type=int, default=6)
    p.add_argument("--thresholds", help="comma-separated override")
    p.add_argument("--equicoarse", action="store_true")
    p.add_argument("--ks", default="1,2,3,4", help="arities for --equicoarse")
    p.add_argument("--probe", action="store_true")
    p.add_argument("--c", type=float, default=None, help="concentration constant")
    p.add_argument("--probe-mode", choices=["greedy", "exhaustive"], default="greedy")
    p.add_argument(
        "--subset-size", type=int, default=None, help="exhaustive probe subset size (default 2k)"
    )
    common(p)
    p.set_defaults(handler=_cmd_moduli)

    p = sub.add_parser("suite", help="run every certificate and write reports")
    common(p)
    p.set_defaults(handler=_cmd_suite)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        doc = args.handler(args)
    except InvalidInput as exc:
        print(json.dumps({"error": {"kind": "invalid-input", "message": str(exc)}}))
        return 2
    except ResourceLimit as exc:
        print(json.dumps({"error": {"kind": "resource", "message": str(exc)}}))
        return 3
    except Exception as exc:  # pragma: no cover - defensive
        print(json.dumps({"error": {"kind": "internal", "message": f"{type(exc).__name__}: {exc}"}}))
        return 1
    payload = {"config": _config_echo(args), **doc}
    print(json.dumps(_round_floats(payload), sort_keys=True))
    if args.command == "suite" and not doc["ok"]:
        return 4
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
