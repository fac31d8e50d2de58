"""Spans around the public functions of `interlace`, recorded from outside it.

`Tracer.install()` wraps each function in LAYERS in the module that defines
it and rebinds the wrapper under every name an `interlace` module holds for
it: `from .graphs import dist` in moduli, sequences, acceptance and cli binds
a separate name, so wrapping `interlace.graphs.dist` alone would miss most
calls.  The acceptance criteria are also wrapped inside `acceptance.CRITERIA`,
which `run_all` iterates.

Spans (name, start, end, parent, job) go to typed arrays in memory and are
written out once, after the pass.  A few argument-derived records (tuple
pairs, images, moduli samples) are kept alongside; the count and ratio
metrics are computed from them after the pass, so no set-building happens
inside a span.
"""

from __future__ import annotations

import functools
import itertools
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

# module -> function specs; a spec is a module-level name or
# (metric name, class name, method name)
LAYERS: dict[str, list[Any]] = {
    "graphs": ["dist", "dist_oracle_bfs", "geodesic_path", "walk_profile",
               "is_adjacent", "enumerate_tuples"],
    "sequences": ["summing_image", "sup_norm", "summing_distortion_check",
                  "james_norm", "james_norm_bruteforce",
                  ("finseq_add", "FinSeq", "__add__")],
    "orlicz": ["orlicz_norm", "n_norm", "delta_transform"],
    "tree": ["jt_norm_exact", "g_embed", "f_embed", "f_difference_segments",
             ("treevec_add", "TreeVec", "__add__")],
    "moduli": [("pair_distances", "MapSample", "pair_distances"),
               "compute_moduli", "concentration_probe", "equicoarse_report"],
    "cli": ["main"],
}
LIBRARY_MODULES = ("graphs", "sequences", "orlicz", "tree", "moduli", "acceptance")
CRITERION_IDS = tuple(f"{i:02d}" for i in range(1, 16)) + ("08_literal_log1p",)
TARGET_METRICS = ("sequences.sup_norm", "tree.jt_norm_exact")


def function_names() -> list[str]:
    """Span names of the wrapped functions, as `module.function`."""
    return [f"{mod}.{spec if isinstance(spec, str) else spec[0]}"
            for mod, specs in LAYERS.items() for spec in specs]


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, trace_overhead included."""
    names = [f"{fn}.{kind}" for fn in function_names() for kind in ("calls", "self_s")]
    names += ["graphs.walk_profile.cells", "graphs.dist.distinct_ratio",
              "sequences.summing_image.distinct_ratio",
              "moduli.target_evals_per_pair", "cli.csv_bytes"]
    names += [f"acceptance.criterion_{c}.total_s" for c in CRITERION_IDS]
    names += [f"{mod}.{kind}" for mod in LIBRARY_MODULES for kind in ("self_s", "errors")]
    return names + ["trace_overhead"]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.current_job = -1
        self._stack = [-1]
        self.errors: Counter[str] = Counter()
        self.walk_cells = 0
        self.dist_args: list[tuple] = []
        self.image_args: list[tuple] = []
        self.moduli_args: list[tuple[str, tuple, dict]] = []
        self._restore: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ wrapping

    def _wrap(self, name: str, fn: Callable, on_call: Callable | None) -> Callable:
        nid = len(self.names)
        self.names.append(name)
        module = name.split(".", 1)[0]
        start, end, name_id, parent, job = (
            self.start, self.end, self.name_id, self.parent, self.job)
        stack, errors = self._stack, self.errors

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            job.append(self.current_job)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[module] += 1
                raise
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return wrapper

    def _hooks(self) -> dict[str, Callable]:
        def walk(args, kwargs):
            n, m = args
            self.walk_cells += max(n.entries[-1], m.entries[-1]) + 1

        def moduli(name):
            return lambda args, kwargs: self.moduli_args.append((name, args, kwargs))

        return {
            "graphs.walk_profile": walk,
            "graphs.dist": lambda a, kw: self.dist_args.append((a[0].entries, a[1].entries)),
            "sequences.summing_image": lambda a, kw: self.image_args.append(a[0].entries),
            "moduli.pair_distances": moduli("pair_distances"),
            "moduli.compute_moduli": moduli("compute_moduli"),
            "moduli.concentration_probe": moduli("concentration_probe"),
            "moduli.equicoarse_report": moduli("equicoarse_report"),
        }

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        import interlace  # noqa: F401  (loads every submodule)
        import interlace.acceptance
        import interlace.cli

        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "interlace" or key.startswith("interlace.")]
        hooks = self._hooks()
        for mod_name, specs in LAYERS.items():
            home = sys.modules[f"interlace.{mod_name}"]
            for spec in specs:
                if isinstance(spec, str):
                    metric, owner, attr = spec, home, spec
                else:
                    metric, cls, attr = spec
                    owner = getattr(home, cls)
                name = f"{mod_name}.{metric}"
                original = getattr(owner, attr)
                wrapped = self._wrap(name, original, hooks.get(name))
                if owner is home:
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._set(mod, key, wrapped)
                else:
                    self._set(owner, attr, wrapped)
        acceptance = sys.modules["interlace.acceptance"]
        criteria = []
        for fn in acceptance.CRITERIA:
            wrapped = self._wrap(f"acceptance.{fn.__name__}", fn, None)
            for key, value in list(vars(acceptance).items()):
                if value is fn:
                    self._set(acceptance, key, wrapped)
            criteria.append(wrapped)
        self._set(acceptance, "CRITERIA", tuple(criteria))
        return self

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # ------------------------------------------------------------ results

    def write_spans(self, path: Path) -> None:
        """All spans as arrays, loadable with numpy.load: one entry per span
        in `name_id` (into `names`), `start`, `end`, `parent` (-1 for none)
        and `job` (index into the pass's job list)."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), name_id=np.array(self.name_id),
                 start=np.array(self.start), end=np.array(self.end),
                 parent=np.array(self.parent), job=np.array(self.job))

    def _distinct_pairs(self) -> int:
        """Distinct unordered source-point pairs over every moduli call.

        A pair is keyed by the target metric that maps it as well, so the
        same tuples under two maps count twice.  The dict holds the metric
        callables, which keeps their identities unique for the whole pass.
        """
        metric_ids: dict[Any, int] = {}
        pairs: set[tuple] = set()

        def add(points, d_target) -> None:
            mid = metric_ids.setdefault(d_target, len(metric_ids))
            for a, b in itertools.combinations(points, 2):
                pairs.add((mid, a, b) if a <= b else (mid, b, a))

        from interlace.graphs import enumerate_tuples

        for name, args, kwargs in self.moduli_args:
            if name in ("pair_distances", "compute_moduli"):
                sample = args[0] if args else kwargs["sample"]
                add(sample.points, sample.d_target)
            elif name == "equicoarse_report":
                for _, sample in (args[0] if args else kwargs["samples_by_k"]):
                    add(sample.points, sample.d_target)
            else:  # concentration_probe(f, d_target, universe, k, ...)
                bound = dict(zip(("f", "d_target", "universe", "k"), args), **kwargs)
                add(enumerate_tuples(bound["universe"], bound["k"]), bound["d_target"])
        return len(pairs)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the pass, except trace_overhead and csv_bytes."""
        import numpy as np

        name_id = np.array(self.name_id, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        self_s = np.bincount(name_id, weights=dur - child, minlength=k)
        total_s = np.bincount(name_id, weights=dur, minlength=k)
        by_name = {name: i for i, name in enumerate(self.names)}

        # target-metric spans with a moduli span among their ancestors
        moduli_name = np.array([n.startswith("moduli.") for n in self.names])
        moduli_span = np.append(moduli_name[name_id], False)  # index -1 reads False
        under = np.zeros(len(dur), dtype=bool)
        ancestor = parent.copy()
        while (ancestor >= 0).any():
            under |= moduli_span[ancestor]
            ancestor = np.where(ancestor >= 0, parent[ancestor], -1)
        targets = np.isin(name_id, [by_name[n] for n in TARGET_METRICS])
        target_evals = int((under & targets).sum())

        out: dict[str, float] = {}
        for fn in function_names():
            out[f"{fn}.calls"] = int(calls[by_name[fn]])
            out[f"{fn}.self_s"] = float(self_s[by_name[fn]])
        out["graphs.walk_profile.cells"] = self.walk_cells
        out["graphs.dist.distinct_ratio"] = _ratio(len(set(self.dist_args)), len(self.dist_args))
        out["sequences.summing_image.distinct_ratio"] = _ratio(
            len(set(self.image_args)), len(self.image_args))
        out["moduli.target_evals_per_pair"] = _ratio(target_evals, self._distinct_pairs())
        for cid in CRITERION_IDS:
            out[f"acceptance.criterion_{cid}.total_s"] = float(
                total_s[by_name[f"acceptance.criterion_{cid}"]])
        for mod in LIBRARY_MODULES:
            out[f"{mod}.self_s"] = float(sum(
                self_s[i] for i, n in enumerate(self.names) if n.startswith(mod + ".")))
            out[f"{mod}.errors"] = self.errors[mod]
        return out


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0
