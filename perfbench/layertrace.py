"""Layer tracing of bellpaths from outside the package.

`install` replaces every binding of each traced function with a wrapper that
records a span (name, start, end, parent) in a `SpanLog`.  A binding is any
place the function object is reachable from: a module attribute (by-name
imports such as `from .bell import partial_bell` included), a class
attribute (`Polynomial.__rmul__` is the same function as `__mul__`) or a
value in a module-level dict (such as the verify suite table).  `uninstall`
puts every original back.  Generator functions get a wrapper that times
each resume as its own span and counts the items yielded.

Spans stay in memory until the pass ends; `summarize` then derives calls,
self time (span duration minus the time its child spans cover) and total
time (outermost spans of a name only, so recursion is not counted twice).
"""

from __future__ import annotations

import fnmatch
import functools
import inspect
import json
import os
import sys
import time
from array import array
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass(frozen=True)
class Target:
    module: str  # module under the bellpaths package
    attr: str  # "function" or "Class.method"
    name: str  # span name, "<layer>.<function>"


TARGETS = (
    Target("bell", "partial_bell", "bell.partial_bell"),
    Target("bell", "potential", "bell.potential"),
    Target("bell", "partial_bell_by_partitions", "bell.partial_bell_by_partitions"),
    Target("bell", "power_derivative", "bell.power_derivative"),
    Target("polyring", "Polynomial.__mul__", "polyring.Polynomial.mul"),
    Target("polyring", "Polynomial.__add__", "polyring.Polynomial.add"),
    Target("polyring", "Polynomial.to_text", "polyring.Polynomial.to_text"),
    Target("polyring", "Series.__mul__", "polyring.Series.mul"),
    Target("polyring", "Series.reciprocal", "polyring.Series.reciprocal"),
    Target("polyring", "Series.pow", "polyring.Series.pow"),
    Target("lagrange", "reversion", "lagrange.reversion"),
    Target("lagrange", "lagrange_coefficient", "lagrange.lagrange_coefficient"),
    Target("lagrange", "motzkin_series", "lagrange.motzkin_series"),
    Target("lagrange", "composition_series", "lagrange.composition_series"),
    Target(
        "lagrange", "composition_series_fixed_parts", "lagrange.composition_series_fixed_parts"
    ),
    Target("lagrange", "bipartite_matrix_series", "lagrange.bipartite_matrix_series"),
    Target("lagrange", "matrix_composition_series", "lagrange.matrix_composition_series"),
    Target("motzkin", "weighted_sum_closed", "motzkin.weighted_sum_closed"),
    Target("motzkin", "enumerate_paths", "motzkin.enumerate_paths"),
    Target("motzkin", "path_weight", "motzkin.path_weight"),
    Target("motzkin", "weighted_sum_bruteforce", "motzkin.weighted_sum_bruteforce"),
    Target("compositions", "weighted_sum_closed", "compositions.weighted_sum_closed"),
    Target("compositions", "enumerate_compositions", "compositions.enumerate_compositions"),
    Target("matrixcomp", "weighted_sum_closed", "matrixcomp.weighted_sum_closed"),
    Target("matrixcomp", "enumerate_bipartite", "matrixcomp.enumerate_bipartite"),
    Target("matrixcomp", "enumerate_plane_trees", "matrixcomp.enumerate_plane_trees"),
    Target("core", "binomial", "core.binomial"),
    Target("verify", "run", "verify.run"),
    Target("verify", "suite_core", "verify.suite_core"),
    Target("verify", "suite_bell", "verify.suite_bell"),
    Target("verify", "suite_motzkin", "verify.suite_motzkin"),
    Target("verify", "suite_compositions", "verify.suite_compositions"),
    Target("verify", "suite_matrixcomp", "verify.suite_matrixcomp"),
    Target("cli", "main", "cli.main"),
)

_WRAPPED = "__perfbench_wraps__"


def load_metric_map() -> dict:
    with open(os.path.join(HERE, "metric_map.json")) as handle:
        return json.load(handle)


def metric_unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_share", "_ratio")):
        return "ratio"
    return "count"


class SpanLog:
    """Spans of one traced pass, in creation order, in flat arrays.

    A span's parent is the span open when it started (-1 at top level).
    Creation order is pre-order, since a span only starts while its parent
    is open.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = [-1]
        self.counts: dict[str, int] = {}
        # products, term pairs and constant-by-constant products of
        # Polynomial x Polynomial; cell pairs of Series x Series
        self.poly_mul = [0, 0, 0]
        self.series_mul = [0]

    def name_id_for(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __len__(self):
        return len(self.start)

    def write(self, path: str) -> None:
        """Spans as raw arrays (name id int32, start/end float64, parent int32)
        in `path`, with the name table and counts in `path`.json."""
        with open(path, "wb") as handle:
            for column in (self.name_id, self.start, self.end, self.parent):
                column.tofile(handle)
        meta = {
            "spans": len(self),
            "columns": [["name_id", "i"], ["start", "d"], ["end", "d"], ["parent", "i"]],
            "names": self.names,
            "counts": self.counts,
        }
        with open(path + ".json", "w") as handle:
            json.dump(meta, handle, indent=1, sort_keys=True)


def _call_wrapper(fn, nid: int, log: SpanLog, hook=None):
    names, starts, ends, parents, stack = (
        log.name_id, log.start, log.end, log.parent, log.stack
    )
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if hook is not None:
            hook(args)
        index = len(starts)
        names.append(nid)
        parents.append(stack[-1])
        ends.append(0.0)
        stack.append(index)
        starts.append(clock())
        try:
            return fn(*args, **kwargs)
        finally:
            ends[index] = clock()
            stack.pop()

    return wrapper


def _generator_wrapper(fn, nid: int, log: SpanLog, items_key: str):
    names, starts, ends, parents, stack = (
        log.name_id, log.start, log.end, log.parent, log.stack
    )
    clock = time.perf_counter
    counts = log.counts
    counts.setdefault(items_key, 0)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        try:
            while True:
                index = len(starts)
                names.append(nid)
                parents.append(stack[-1])
                ends.append(0.0)
                stack.append(index)
                starts.append(clock())
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    ends[index] = clock()
                    stack.pop()
                counts[items_key] += 1
                yield item
        finally:
            gen.close()

    return wrapper


def _poly_mul_hook(log: SpanLog, polynomial_class):
    tally = log.poly_mul

    def hook(args):
        a, b = args
        if isinstance(b, polynomial_class):
            ta, tb = a.terms, b.terms
            tally[0] += 1
            tally[1] += len(ta) * len(tb)
            if a.is_constant() and b.is_constant():
                tally[2] += 1

    return hook


def _series_mul_hook(log: SpanLog, series_class):
    tally = log.series_mul

    def hook(args):
        a, b = args
        if isinstance(b, series_class):
            tally[0] += len(a.cells) * len(b.cells)

    return hook


def _package_modules():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "bellpaths" or name.startswith("bellpaths."))
    ]


def bindings_of(obj) -> list[tuple]:
    """Every (container, key, is_attr) in the bellpaths package whose value is obj."""
    found = []
    for module in _package_modules():
        for key, value in list(vars(module).items()):
            if value is obj:
                found.append((module, key, True))
            elif isinstance(value, dict):
                for item_key, item in value.items():
                    if item is obj:
                        found.append((value, item_key, False))
            elif inspect.isclass(value) and value.__module__ == module.__name__:
                for cls_key, cls_value in vars(value).items():
                    if cls_value is obj:
                        found.append((value, cls_key, True))
    return found


def _resolve(target: Target):
    module = sys.modules[f"bellpaths.{target.module}"]
    obj = module
    for part in target.attr.split("."):
        obj = vars(obj)[part]
    return obj


def install(log: SpanLog) -> list[tuple]:
    """Wrap every binding of every target; return what `uninstall` needs."""
    import bellpaths.cli  # noqa: F401  (loads every traced module)
    from bellpaths.polyring import Polynomial, Series

    hooks = {
        "polyring.Polynomial.mul": _poly_mul_hook(log, Polynomial),
        "polyring.Series.mul": _series_mul_hook(log, Series),
    }
    replaced = []
    try:
        for target in TARGETS:
            original = _resolve(target)
            if getattr(original, _WRAPPED, None) is not None:
                raise RuntimeError(f"{target.name} is already traced")
            nid = log.name_id_for(target.name)
            if inspect.isgeneratorfunction(original):
                wrapper = _generator_wrapper(original, nid, log, target.name + ".items")
            else:
                wrapper = _call_wrapper(original, nid, log, hooks.get(target.name))
            setattr(wrapper, _WRAPPED, original)
            for container, key, is_attr in bindings_of(original):
                if is_attr:
                    setattr(container, key, wrapper)
                else:
                    container[key] = wrapper
                replaced.append((container, key, is_attr, original))
    except BaseException:
        uninstall(replaced)
        raise
    return replaced


def uninstall(replaced: list[tuple]) -> None:
    for container, key, is_attr, original in reversed(replaced):
        if is_attr:
            setattr(container, key, original)
        else:
            container[key] = original


def self_times(start, end, parent) -> list[float]:
    """Per span: its duration minus the time its child spans cover.  Spans of
    one thread nest, so the children of a span never overlap and their
    durations add up to the time they cover."""
    n = len(start)
    covered = array("d", bytes(8 * n))
    for i in range(n):
        p = parent[i]
        if p >= 0:
            covered[p] += end[i] - start[i]
    return [end[i] - start[i] - covered[i] for i in range(n)]


def summarize(log: SpanLog) -> dict[str, float]:
    """Aggregates over every span name: `.calls`, `.self_s`, `.total_s`,
    plus the counters the wrappers keep.  For a generator, `.calls` counts
    resumes and `.items` the values yielded."""
    names = log.names
    k = len(names)
    calls = [0] * k
    self_s = [0.0] * k
    total_s = [0.0] * k
    active = [0] * k
    path = [-1]
    start, end, parent, name_id = log.start, log.end, log.parent, log.name_id
    selfs = self_times(start, end, parent)
    for i in range(len(start)):
        nid = name_id[i]
        p = parent[i]
        while path[-1] != p:
            active[name_id[path.pop()]] -= 1
        if not active[nid]:
            total_s[nid] += end[i] - start[i]
        active[nid] += 1
        path.append(i)
        calls[nid] += 1
        self_s[nid] += selfs[i]
    out: dict[str, float] = {}
    for nid, name in enumerate(names):
        out[f"{name}.calls"] = calls[nid]
        out[f"{name}.self_s"] = self_s[nid]
        out[f"{name}.total_s"] = total_s[nid]
    out.update(log.counts)
    products, pairs, constant = log.poly_mul
    out["polyring.Polynomial.mul.term_pairs"] = pairs
    out["polyring.Polynomial.mul.const_share"] = constant / products if products else 0.0
    out["polyring.Series.mul.cell_pairs"] = log.series_mul[0]
    out["lagrange.self_s"] = sum(
        self_s[nid] for nid, name in enumerate(names) if name.startswith("lagrange.")
    )
    return out


def bypass_violations(workload: str, aggregates: dict, metric_map: dict) -> list[str]:
    """Aggregates the metric map predicts to be exactly zero on this workload
    but that are not."""
    rule = metric_map["bypass_zero"]
    if workload not in rule["on"]:
        return []
    return [
        f"{key}={value}"
        for key, value in sorted(aggregates.items())
        if any(fnmatch.fnmatchcase(key, pattern) for pattern in rule["patterns"]) and value
    ]
