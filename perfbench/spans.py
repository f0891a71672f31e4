"""Spans around calls into dnnreuse, recorded from outside the package.

Tracer.installed() replaces every public function of the dnnreuse
modules with a timing wrapper, in each module that binds the name
(`topo_order` is bound in dnnreuse.graph, dnnreuse.netprofile,
dnnreuse.cli and the package itself), and puts the originals back on
exit. The `yaml` module seen by dnnreuse.graph is swapped for a copy
whose `safe_load` is wrapped, so the loader call inside parse_model gets
its own span. Spans stay in memory until dump().
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import time
import types
from array import array
from collections import Counter

MODULES = ("graph", "layercost", "netprofile", "metrics", "measure", "stats", "roofline")
# results whose size is tallied: span name -> tally name
TALLIES = {"graph.parse_model": "graph.layers", "measure.load_measurements": "measure.rows"}


class Tracer:
    """Spans as parallel arrays: name id, parent index, start, end."""

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.tallies: Counter = Counter()

    def _id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def reset(self):
        for column in (self.name, self.parent, self.start, self.end):
            del column[:]
        self.tallies.clear()

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int):
        self.end[i] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, fn, name: str):
        nid = self._id(name)
        tally = TALLIES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if tally:
                self.tallies[tally] += len(getattr(result, "layers", result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap the public functions of every dnnreuse module, then restore them."""
        import yaml

        wrappers = {}
        for short in MODULES:
            module = importlib.import_module(f"dnnreuse.{short}")
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    wrappers[id(obj)] = self.wrap(obj, f"{short}.{attr}")
        graph = importlib.import_module("dnnreuse.graph")
        traced_yaml = types.ModuleType("yaml")
        traced_yaml.__dict__.update(vars(yaml))
        traced_yaml.safe_load = self.wrap(yaml.safe_load, "graph.yaml.safe_load")

        saved = []
        for module in [importlib.import_module("dnnreuse"), importlib.import_module("dnnreuse.cli")] + [
            importlib.import_module(f"dnnreuse.{short}") for short in MODULES
        ]:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    saved.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])
        saved.append((graph, "yaml", yaml))
        graph.yaml = traced_yaml
        try:
            yield self
        finally:
            for module, attr, obj in saved:
                setattr(module, attr, obj)

    def self_times(self) -> tuple[Counter, Counter]:
        """(calls, self seconds) per span name.

        A span's self time is its duration minus the durations of the
        spans it directly encloses.
        """
        durations = [e - s for s, e in zip(self.start, self.end)]
        own = list(durations)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= durations[i]
        calls, seconds = Counter(), Counter()
        for i, nid in enumerate(self.name):
            calls[self.names[nid]] += 1
            seconds[self.names[nid]] += own[i]
        return calls, seconds

    def dump(self, path):
        """Write every span as `index name parent start end` lines, gzipped."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("index\tname\tparent\tstart_s\tend_s\n")
            for i, (nid, p, s, e) in enumerate(zip(self.name, self.parent, self.start, self.end)):
                out.write(f"{i}\t{self.names[nid]}\t{p}\t{s:.9f}\t{e:.9f}\n")


def layer_metrics(calls: Counter, seconds: Counter, tallies: Counter) -> dict:
    """Per-layer figures from one traced pass. Every `_s` is self time."""

    def prefixed(prefix):
        return sum(v for k, v in seconds.items() if k.startswith(prefix))

    parses = calls["graph.parse_model"]
    return {
        "graph.parse_s": seconds["graph.parse_model"],
        "graph.yaml_load_s": seconds["graph.yaml.safe_load"],
        "graph.topo_calls": calls["graph.topo_order"] / parses if parses else 0.0,
        "graph.topo_s": seconds["graph.topo_order"],
        "graph.shapes_s": seconds["graph.infer_shapes"],
        "graph.layers": tallies["graph.layers"],
        "layercost.calls": calls["layercost.layer_cost"],
        "layercost.s": prefixed("layercost."),
        "netprofile.aggregate_s": seconds["netprofile.aggregate"],
        "netprofile.peak_s": seconds["netprofile.peak_concurrent_activations"],
        "netprofile.layerwise_s": seconds["netprofile.layerwise_ai_stats"],
        "metrics.wi_calls": calls["metrics.weighted_intensity"],
        "metrics.s": prefixed("metrics."),
        "measure.load_s": seconds["measure.load_measurements"],
        "measure.rows": tallies["measure.rows"],
        "stats.sweep_s": seconds["stats.alpha_sweep"],
        "stats.pearson_calls": calls["stats.pearson"],
        "stats.pearson_s": seconds["stats.pearson"],
        "stats.spearman_s": seconds["stats.spearman"],
        "roofline.s": prefixed("roofline."),
        "cli.self_s": seconds["cli"],
    }
