"""Spans and counters recorded from outside the library.

`Tracer.install` replaces module-level functions by wrappers, by name, in
every tangleslopes module that holds them, so calls between modules go
through the wrappers and no library file changes. Spans (name, start,
end, parent span, solve id) are kept in memory and written out when the
run ends. A layer's time is the self time of its spans: each span's
duration minus the durations of its direct children.

Hot helpers are counted, never timed. A stage function that no longer
exists under its name is reported missing rather than failing the run.
Calls made while the tracer is paused (the benchmark's own checks) are
neither recorded nor counted.
"""

import importlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from math import prod
from time import perf_counter

SPAN = "span"
COUNT = "count"

# (module, function, mode); spans may record a size taken from the result
TARGETS = (
    ("tangleslopes.tangles", "parse", SPAN),
    ("tangleslopes.tangles", "render", COUNT),
    ("tangleslopes.edgepaths", "enumerate_paths", SPAN),
    ("tangleslopes.transforms", "common_scaling", COUNT),
    ("tangleslopes.transforms", "rotate_reflect", COUNT),
    ("tangleslopes.transforms", "glue_sum", COUNT),
    ("tangleslopes.slopes", "build_system", SPAN),
    ("tangleslopes.slopes", "seifert_tau", SPAN),
    ("tangleslopes.slopes", "seifert_system", SPAN),
    ("tangleslopes.solver", "solve", SPAN),
    ("tangleslopes.solver", "solve_sn", SPAN),
    ("tangleslopes.solver", "solve_montesinos", SPAN),
    ("tangleslopes.solver", "kn_system", SPAN),
    ("tangleslopes.solver", "_leaf_table", SPAN),
    ("tangleslopes.solver", "_merge_sum", SPAN),
    ("tangleslopes.solver", "_merge_product", SPAN),
    ("tangleslopes.solver", "_materialize", SPAN),
    ("tangleslopes.solver", "_leaf_segments", SPAN),
    ("tangleslopes.solver", "_type_i_candidates", SPAN),
    ("tangleslopes.solver", "_segment_path", SPAN),
    ("tangleslopes.solver", "_type_ii_options", SPAN),
    ("tangleslopes.cli", "report_document", SPAN),
    ("tangleslopes.cli", "format_json", SPAN),
)

# solve_montesinos runs the type-I solve, staging each candidate inline,
# then the u=0 loop; its self time is split at its first _type_ii_options
# call, into solve_montesinos@type_i and solve_montesinos@u0
PHASE_SPLIT = ("solve_montesinos", "_type_ii_options")

# layer time = summed self time of these spans
LAYER_TIMES = {
    "solver.leaf_table.s": ("_leaf_table",),
    "solver.merge_sum.s": ("_merge_sum",),
    "solver.merge_product.s": ("_merge_product",),
    "solver.materialize.s": ("_materialize",),
    "solver.type_i.s": (
        "_type_i_candidates", "_leaf_segments", "_segment_path", "solve_montesinos@type_i"),
    "solver.u0.s": ("solve_montesinos@u0", "_type_ii_options"),
    "edgepaths.enumerate_paths.s": ("enumerate_paths",),
    "slopes.build_system.s": ("build_system",),
    "slopes.seifert.s": ("seifert_tau", "seifert_system"),
    "cli.report_document.s": ("report_document",),
    "cli.json_dumps.s": ("format_json",),
    "tangles.parse.s": ("parse",),
}


def _size(name, result):
    if name == "format_json":
        return len(result.encode())
    if name in ("_leaf_table", "_merge_sum", "_merge_product", "_materialize",
                "enumerate_paths", "_leaf_segments", "_type_ii_options"):
        return len(result)
    return None


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []  # [name index, start, end, parent index, solve id, size]
        self.stack = []
        self.counts = Counter()
        self.missing = []
        self.solve_id = None
        self.counting = True
        self.recording = True

    # -- recording -------------------------------------------------------

    def _enter(self, name_index):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name_index, perf_counter(), None, parent, self.solve_id, None])
        self.stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _exit(self, record, size=None):
        record[2] = perf_counter()
        record[5] = size
        self.stack.pop()

    @contextmanager
    def paused(self):
        """Leave the calls made inside unrecorded and uncounted."""
        self.recording = False
        try:
            yield
        finally:
            self.recording = True

    def _name_index(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    # -- wrappers --------------------------------------------------------

    def _span_wrapper(self, name, fn):
        index = self._name_index(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # one span per resumption; yields are counted
            def wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                if not tracer.recording:
                    yield from gen
                    return
                while True:
                    record = tracer._enter(index)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(record)
                    if tracer.counting:
                        tracer.counts[name + ".yields"] += 1
                    yield item

            return wrapper

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            record = tracer._enter(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(record)
                raise
            tracer._exit(record, _size(name, result))
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts
        tracer = self

        def wrapper(*args, **kwargs):
            if not (tracer.counting and tracer.recording):
                return fn(*args, **kwargs)
            counts[name] += 1
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                counts["%s.raised.%s" % (name, type(exc).__name__)] += 1
                raise
            if result is None:
                counts[name + ".none"] += 1
            elif getattr(result, "feasible", True) is False:
                counts[name + ".infeasible"] += 1
            return result

        return wrapper

    def install(self):
        """Wrap every target in each loaded tangleslopes module that has it."""
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "tangleslopes" or n.startswith("tangleslopes."))
        ]
        for module_name, name, mode in TARGETS:
            original = getattr(importlib.import_module(module_name), name, None)
            if original is None:
                self.missing.append("%s.%s" % (module_name, name))
                continue
            if mode == SPAN:
                wrapper = self._span_wrapper(name, original)
            else:
                wrapper = self._count_wrapper(name, original)
            for module in modules:
                if getattr(module, name, None) is original:
                    setattr(module, name, wrapper)

    # -- results ---------------------------------------------------------

    def self_times(self, weights):
        """Summed self time per span name, each solve's spans times its weight.

        Solves missing from `weights` are left out. The self time of
        PHASE_SPLIT's parent is split at the first call of its child.
        """
        parent_name, child_name = PHASE_SPLIT
        child = defaultdict(float)
        split = {}  # parent span -> start of its first child_name span
        for name_index, start, end, parent, solve_id, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
                if self.names[name_index] == child_name:
                    split[parent] = min(split.get(parent, start), start)
        child_before = defaultdict(float)  # child time before the split
        for name_index, start, end, parent, solve_id, _ in self.spans:
            if parent in split and end <= split[parent]:
                child_before[parent] += end - start
        totals = defaultdict(float)
        for i, (name_index, start, end, parent, solve_id, _) in enumerate(self.spans):
            if solve_id not in weights:
                continue
            name = self.names[name_index]
            own = (end - start - child[i]) * weights[solve_id]
            if name == parent_name:
                first = (split.get(i, end) - start - child_before[i]) * weights[solve_id]
                totals[name + "@type_i"] += first
                totals[name + "@u0"] += own - first
            else:
                totals[name] += own
        return totals

    def layer_metrics(self, weights, counted_ids, skipped_ids):
        """Per-layer metrics: times weighted by `weights` (see self_times),
        counts over the solves in counted_ids.

        skipped_ids are the solves whose u=0 enumeration did not run; their
        option products are not counted as u=0 combinations. Returns the
        metrics as {name: (value, unit)} and the names reported missing.
        """
        times = self.self_times(weights)
        sizes = defaultdict(lambda: defaultdict(list))  # name -> solve -> [(size, parent)]
        for name_index, _, _, parent, solve_id, size in self.spans:
            if solve_id in counted_ids:
                parent_name = self.names[self.spans[parent][0]] if parent >= 0 else None
                sizes[self.names[name_index]][solve_id].append((size, parent_name))

        def total(name):
            return sum(s for per in sizes[name].values() for s, _ in per if s is not None)

        def calls(name):
            return sum(len(per) for per in sizes[name].values())

        type_i_combos = sum(
            prod(s for s, p in per if p == "_type_i_candidates")
            for per in sizes["_leaf_segments"].values()
        )
        u0_combos = sum(
            prod(s for s, _ in per)
            for solve_id, per in sizes["_type_ii_options"].items()
            if solve_id not in skipped_ids
        )
        solved = self.counts["_type_i_candidates.yields"]
        c = self.counts
        infeasible = c["rotate_reflect.infeasible"] + c["rotate_reflect.raised.Infeasible"]
        counted = {
            # metric: (value, unit, functions it reads)
            "solver.leaf_table.states": (total("_leaf_table"), "count", ("_leaf_table",)),
            "solver.merge_sum.states_out": (total("_merge_sum"), "count", ("_merge_sum",)),
            "solver.merge_product.states_out": (
                total("_merge_product"), "count", ("_merge_product",)),
            "solver.materialize.systems": (total("_materialize"), "count", ("_materialize",)),
            "solver.type_i.combos": (
                type_i_combos, "count", ("_type_i_candidates", "_leaf_segments")),
            "solver.type_i.solved": (solved, "count", ("_type_i_candidates",)),
            "solver.type_i.solve_ratio": (
                solved / type_i_combos if type_i_combos else 0.0, "ratio",
                ("_type_i_candidates", "_leaf_segments")),
            "solver.u0.combos": (u0_combos, "count", ("_type_ii_options",)),
            "solver.u0.skipped": (len(skipped_ids), "count", ()),
            "transforms.common_scaling.calls": (c["common_scaling"], "count", ("common_scaling",)),
            "transforms.common_scaling.rejected": (
                c["common_scaling.none"], "count", ("common_scaling",)),
            "transforms.rotate_reflect.calls": (c["rotate_reflect"], "count", ("rotate_reflect",)),
            "transforms.rotate_reflect.infeasible": (infeasible, "count", ("rotate_reflect",)),
            "transforms.glue_sum.calls": (c["glue_sum"], "count", ("glue_sum",)),
            "edgepaths.enumerate_paths.paths": (
                total("enumerate_paths"), "count", ("enumerate_paths",)),
            "slopes.build_system.calls": (calls("build_system"), "count", ("build_system",)),
            "cli.json_bytes": (total("format_json"), "bytes", ("format_json",)),
            "tangles.render.calls": (c["render"], "count", ("render",)),
        }
        absent = {m.rsplit(".", 1)[1] for m in self.missing}
        metrics, missing = {}, []
        for metric, (value, unit, reads) in counted.items():
            if absent.intersection(reads):
                missing.append(metric)
            else:
                metrics[metric] = (value, unit)
        for metric, names in LAYER_TIMES.items():
            split = any("@" in n for n in names) and absent.intersection(PHASE_SPLIT)
            if split or absent.issuperset(n.split("@")[0] for n in names):
                missing.append(metric)
            else:
                metrics[metric] = (sum(times.get(n, 0.0) for n in names), "s")
        return metrics, sorted(missing)

    def write(self, path):
        """Write names and spans as JSON, one span per line."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"names": self.names, "missing": self.missing}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
