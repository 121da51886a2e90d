"""Span recording for the traced run, and the per-layer metrics it yields.

A span is [name, start, end, parent, op, ok]: start and end come from
time.perf_counter, parent is the index of the span that caused it (None for
an entry-point call), op numbers the entry-point call the span belongs to,
and ok is False when the call raised. Spans stay in memory and are written
out when the run ends.

The replayed calls of one operation are children of its entry-point span,
although they run after it rather than inside it. So a span's self time is
its duration minus the summed durations of its children.
"""

from __future__ import annotations

import json
import statistics
import time

clock = time.perf_counter

#: timed functions: span name, the per-call figure reported for it, unit
TIMED = (
    ("design.build_hat_structure", "ms_p50", "ms"),
    ("design.complete_randomization", "us_p50", "us"),
    ("design.enumerate_assignments", "us_per_item", "us"),
    ("dgp.gen_base_tables", "ms", "ms"),
    ("dgp.build_cell", "self_ms_p50", "ms"),
    ("estimators.observe", "us_p50", "us"),
    ("estimators.tau_unadj", "us_p50", "us"),
    ("estimators.adj_db", "us_p50", "us"),
    ("estimators.lin", "us_p50", "us"),
    ("inference.oracle_variances", "ms_p50", "ms"),
    ("inference.neyman_variance_unadj", "us_p50", "us"),
    ("inference.estimate_variance", "us_p50", "us"),
    ("inference.hc3_variance", "us_p50", "us"),
    ("harness.run_cell", "s_p50", "s"),
    ("harness.results_write", "ms", "ms"),
    ("harness.enumeration_check", "ms_p50", "ms"),
    ("cli.simulate", "self_ms", "ms"),
    ("cli.analyze", "self_ms_p50", "ms"),
)

#: counters recorded at layer boundaries (results, not speed)
COUNTS = ("inference.cb_clamped.count", "inference.cb_hd_prime.count",
          "inference.hc3_na.count")

_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric the traced run reports."""
    out = []
    for name, figure, unit in TIMED:
        out += [(f"{name}.calls", "count", "higher"), (f"{name}.s_total", "s", "lower"),
                (f"{name}.{figure}", unit, "lower")]
    out += [("estimators.lin.ok_ratio", "ratio", "higher"),
            ("harness.run_cell.self_share", "ratio", "lower")]
    out += [(name, "count", "lower") for name in COUNTS]
    out += [("setup.import_s", "s", "lower"), ("trace.overhead_share", "ratio", "lower")]
    return out


class NullTracer:
    """Makes the calls a Tracer makes and records nothing."""

    op = None

    def call(self, name, parent, fn, *args):
        return fn(*args)

    def add(self, name, parent, start, end, ok=True):
        pass

    def open(self, name, parent=None):
        return None

    def close(self, sid, ok=True):
        pass

    def count(self, name, k=1):
        pass


NULL = NullTracer()


class Tracer(NullTracer):
    """Records spans and counters in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.op = None
        self.untraced_s = 0.0
        self.traced_s = 0.0
        self._traced_first = False

    def add(self, name, parent, start, end, ok=True):
        self.spans.append([name, start, end, parent, self.op, ok])
        return len(self.spans) - 1

    def call(self, name, parent, fn, *args):
        start = clock()
        ok = False
        try:
            out = fn(*args)
            ok = True
            return out
        finally:
            self.add(name, parent, start, clock(), ok)

    def open(self, name, parent=None):
        return self.add(name, parent, clock(), None)

    def close(self, sid, ok=True):
        self.spans[sid][2] = clock()
        self.spans[sid][5] = ok

    def count(self, name, k=1):
        self.counts[name] += int(k)

    def replay(self, fn, *args):
        """Run fn(tracer, *args) untraced and traced, alternating which goes
        first, and keep the traced result. The two wall times give the
        tracing overhead."""
        self._traced_first = not self._traced_first
        for tracer in ((self, NULL) if self._traced_first else (NULL, self)):
            start = clock()
            result = fn(tracer, *args)
            if tracer is self:
                self.traced_s += clock() - start
                out = result
            else:
                self.untraced_s += clock() - start
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, span in enumerate(self.spans):
                fh.write(json.dumps([sid] + span) + "\n")

    def metrics(self, import_s: float) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit).

        A layer that did not run on the workload reports 0 calls and 0 for
        each of its figures.
        """
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, op, ok in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        durations: dict[str, list[float]] = {}
        selfs: dict[str, list[float]] = {}
        for sid, (name, start, end, parent, op, ok) in enumerate(self.spans):
            durations.setdefault(name, []).append(end - start)
            selfs.setdefault(name, []).append(end - start - child_s[sid])
        out = {}
        for name, figure, unit in TIMED:
            d = durations.get(name, [])
            total = sum(d)
            if not d:
                value = 0.0
            elif figure.startswith("self_"):
                value = statistics.median(selfs[name])
            elif figure.endswith("_per_item"):
                value = total / len(d)
            else:
                value = statistics.median(d)
            out[f"{name}.calls"] = (len(d), "count")
            out[f"{name}.s_total"] = (total, "s")
            out[f"{name}.{figure}"] = (value * _SCALE[unit], unit)
        lin = [span[5] for span in self.spans if span[0] == "estimators.lin"]
        out["estimators.lin.ok_ratio"] = (sum(lin) / len(lin) if lin else 0.0, "ratio")
        run_cell = sum(durations.get("harness.run_cell", []))
        covered = sum(child_s[sid] for sid, span in enumerate(self.spans)
                      if span[0] == "harness.run_cell")
        out["harness.run_cell.self_share"] = (
            (run_cell - covered) / run_cell if run_cell else 0.0, "ratio")
        for name in COUNTS:
            out[name] = (self.counts[name], "count")
        out["setup.import_s"] = (import_s, "s")
        out["trace.overhead_share"] = (
            (self.traced_s - self.untraced_s) / self.untraced_s if self.untraced_s else 0.0,
            "ratio")
        return out
