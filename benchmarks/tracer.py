"""Traced `sargkit` CLI process and the analysis of its spans.

Run as a script, this is the bootstrap of a traced command:

    python3 benchmarks/tracer.py SPANS.npz verify --protocol four-state

It imports `sargkit.cli` (span `cli.import`, with a child span
`<layer>.import` for each layer's module body), replaces the public
functions listed in SPANS and COUNTED by wrappers set as module
attributes, runs `sargkit.cli.main` on the remaining arguments and, at
exit, writes every span (name, start, end, parent) and every call count to
SPANS.npz.  Modules call one another through module attributes
(`qmath.min_eigenvalue(...)`) and a module's own functions through its
globals, which are the same dictionary, so every call reaches a wrapper.

Time spent in a function that is not wrapped counts towards the span that
called it.  Private stage functions stay unwrapped: they become spans when
the program records spans itself.
"""

from __future__ import annotations

import importlib
import sys
import time

# Functions recorded as spans, by layer (module).
SPANS = {
    "qmath": ("min_eigenvalue", "eigh_checked", "constants"),
    "attack_forms": ("all_forms",),
    "bounds": ("psd_margin", "identity_check_single", "correlation_psd_check",
               "frontier", "frontier_table", "zero_rate_check"),
    "keyrate": ("threshold_single", "threshold_two", "sixstate_thresholds",
                "ephase_bound_two", "ephase_bound_frontier",
                "decoy_rate_terms"),
    "simulate": ("run_monte_carlo", "exact_channel_stats", "compare"),
    "reports": ("start_manifest", "finish_manifest", "render_csv",
                "render_json"),
}

# Functions only counted: they run thousands of times inside one span, where
# a span each would cost more than the work it times.
COUNTED = {"attack_forms": ("conditional_pair_state",)}

LAYERS = ("qmath", "attack_forms", "bounds", "keyrate", "simulate", "reports")


class Recorder:
    """Spans kept in memory as parallel lists; written out once, at exit."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.stack = [-1]
        self.calls: dict[str, int] = {}
        self.misses: dict[str, int] = {}

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def span(self, name: str, fn):
        nid = self._name_id(name)
        clock = time.perf_counter
        cache_info = getattr(fn, "cache_info", None)
        self.misses.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            i = len(self.start)
            self.name_of.append(nid)
            self.parent.append(self.stack[-1])
            self.end.append(0.0)
            self.stack.append(i)
            before = cache_info().misses if cache_info else 0
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                self.stack.pop()
                if cache_info:
                    self.misses[name] += cache_info().misses - before

        return wrapper

    def counter(self, name: str, fn):
        self.calls[name] = 0

        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, package: str = "sargkit") -> None:
        for layer, names in SPANS.items():
            module = importlib.import_module("%s.%s" % (package, layer))
            for fname in names:
                setattr(module, fname,
                        self.span("%s.%s" % (layer, fname),
                                  getattr(module, fname)))
        for layer, names in COUNTED.items():
            module = importlib.import_module("%s.%s" % (package, layer))
            for fname in names:
                setattr(module, fname,
                        self.counter("%s.%s" % (layer, fname),
                                     getattr(module, fname)))

    def save(self, path: str) -> None:
        import numpy as np

        np.savez(path,
                 names=np.array(self.names, dtype=str),
                 name_of=np.array(self.name_of, dtype=np.int32),
                 start=np.array(self.start, dtype=np.float64),
                 end=np.array(self.end, dtype=np.float64),
                 parent=np.array(self.parent, dtype=np.int32),
                 counted=np.array(list(self.calls), dtype=str),
                 counted_calls=np.array(list(self.calls.values()),
                                        dtype=np.int64),
                 cached=np.array(list(self.misses), dtype=str),
                 cached_misses=np.array(list(self.misses.values()),
                                        dtype=np.int64))


def _import_cli(rec: Recorder):
    """Import sargkit.cli, timing each layer's own module body as a span.

    numpy and yaml come first so that their import time stays with cli.
    """
    import numpy  # noqa: F401
    import yaml  # noqa: F401

    for layer in LAYERS:
        rec.span(layer + ".import", importlib.import_module)("sargkit." + layer)
    return importlib.import_module("sargkit.cli")


def _bootstrap(spans_path: str, argv: list[str]) -> int:
    rec = Recorder()
    cli = rec.span("cli.import", _import_cli)(rec)
    rec.install()
    try:
        return cli.main(argv)
    finally:
        rec.save(spans_path)


# ---------------------------------------------------------------------------
# Analysis (used by run.py)
# ---------------------------------------------------------------------------

class ProcessTrace:
    """Per-name totals of one traced process.

    ``self_s`` of a span is its duration minus the durations of its direct
    children; spans nest strictly because the program is single-threaded.
    """

    def __init__(self, path: str):
        import numpy as np

        with np.load(path) as z:
            names = [str(n) for n in z["names"]]
            name_of, parent = z["name_of"], z["parent"]
            dur = z["end"] - z["start"]
            self.calls = {str(k): int(v)
                          for k, v in zip(z["counted"], z["counted_calls"])}
            self.misses = {str(k): int(v)
                           for k, v in zip(z["cached"], z["cached_misses"])}
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = dur - child
        n = len(names)
        self.count = dict(zip(names, np.bincount(name_of, minlength=n).tolist()))
        self.total_s = dict(zip(names, np.bincount(name_of, weights=dur,
                                                   minlength=n).tolist()))
        self.self_s = dict(zip(names, np.bincount(name_of, weights=own,
                                                  minlength=n).tolist()))
        self.spans = len(dur)
        # Eigen-solves made directly by each frontier point.
        self.frontier_eigh = 0
        if "bounds.frontier" in names and "qmath.min_eigenvalue" in names:
            fr = names.index("bounds.frontier")
            eig = names.index("qmath.min_eigenvalue")
            under = parent[(name_of == eig) & has_parent]
            self.frontier_eigh = int(np.count_nonzero(name_of[under] == fr))


if __name__ == "__main__":
    sys.exit(_bootstrap(sys.argv[1], sys.argv[2:]))
