"""Per-layer tracing from outside the package.

`Tracer.install` replaces public functions of the `npnas` modules with
timing wrappers.  Each wrapper is installed in the module that calls the
function (the decider imports `has_clash`, `statuses` and the rest by name),
so no code under `src/` changes.  A function a later change removes or
renames is recorded in `missing` and its metrics read 0.
"""
from __future__ import annotations

import importlib
import json
import os
from collections import Counter
from time import perf_counter_ns

# (layer, module whose global is replaced, function name)
LAYERS = (
    ("cli.parse", "cli", "parse_problem"),
    ("cli.parse", "cli", "parse_eu"),
    ("eubridge.translate", "eubridge", "translate_eu"),
    ("decider.decide", "decider", "decide"),
    ("schematic.check", "decider", "check_problem"),
    ("foreduce.fo_sat", "decider", "fo_sat"),
    ("schematic.memo_clear", "decider", "clear_identity_memos"),
    ("rewrite.has_clash", "decider", "has_clash"),
    ("rewrite.statuses", "decider", "statuses"),
    ("rewrite.expand", "decider", "expand"),
    ("decider.witness", "decider", "extract_witness"),
    ("schematic.recheck", "decider", "satisfies_all"),
)

# The unit of every per-layer metric, from BENCHMARK.json, the one list of
# them; `Tracer.metrics` returns a value under each name.
with open(os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCHMARK.json"), encoding="utf-8") as _fh:
    UNITS = {m["name"]: m["unit"] for m in json.load(_fh)["per_layer"]}


def _observe(counts: Counter, layer: str, parent: str | None,
             args: tuple, result) -> None:
    """Counts taken at a layer boundary from the call's arguments and
    result."""
    if layer == "cli.parse":
        counts["input_chars"] += len(args[0])
    elif layer == "eubridge.translate":
        counts["constraints_out"] += len(result.constraints)
    elif layer == "foreduce.fo_sat":
        counts["refuted"] += not result
    elif layer == "rewrite.has_clash":
        counts["dead_ends"] += bool(result)
    elif layer == "rewrite.statuses":
        # Outside extract_witness, each call classifies one search state
        # that was not a memo hit.
        counts["search_statuses"] += parent == "decider.decide"
    elif layer == "rewrite.expand":
        counts["branches"] += len(result)
    elif layer == "decider.decide":
        counts["normal_forms"] += result.normal_forms


class Tracer:
    def __init__(self):
        self.missing: list[str] = []
        self.reset()

    def reset(self) -> None:
        self.ns: Counter = Counter()        # time inside each layer
        self.child_ns: Counter = Counter()  # ... spent in wrapped callees
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._child_time = [0]              # one accumulator per open span
        self._open = [None]                 # layer of each open span

    def install(self) -> None:
        for layer, module_name, attr in LAYERS:
            module = importlib.import_module(f"npnas.{module_name}")
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(layer, fn))

    def _wrap(self, layer: str, fn):
        def wrapped(*args, **kwargs):
            child_time, open_ = self._child_time, self._open
            parent = open_[-1]
            child_time.append(0)
            open_.append(layer)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                self.child_ns[layer] += child_time.pop()
                open_.pop()
                child_time[-1] += dt
                self.ns[layer] += dt
                self.calls[layer] += 1
            _observe(self.counts, layer, parent, args, result)
            return result

        return wrapped

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Totals since the last reset, under the names of UNITS."""
        ns, calls, counts = self.ns, self.calls, self.counts

        def ms(layer):
            return ns[layer] / 1e6

        memo_hits = 0
        if not {"decider.has_clash", "decider.statuses"} & set(self.missing):
            memo_hits = (calls["rewrite.has_clash"] - counts["dead_ends"]
                         - counts["search_statuses"])
        return {
            "cli.parse_ms": ms("cli.parse"),
            "cli.input_kb": counts["input_chars"] / 1024,
            "eubridge.translate_ms": ms("eubridge.translate"),
            "eubridge.constraints_out": counts["constraints_out"],
            "schematic.check_ms": ms("schematic.check"),
            "foreduce.fo_sat_ms": ms("foreduce.fo_sat"),
            "foreduce.refuted": counts["refuted"],
            "schematic.memo_clear_ms": ms("schematic.memo_clear"),
            "rewrite.has_clash_ms": ms("rewrite.has_clash"),
            "rewrite.has_clash_calls": calls["rewrite.has_clash"],
            "rewrite.dead_ends": counts["dead_ends"],
            "rewrite.statuses_ms": ms("rewrite.statuses"),
            "rewrite.statuses_calls": calls["rewrite.statuses"],
            "rewrite.expand_ms": ms("rewrite.expand"),
            "rewrite.expand_calls": calls["rewrite.expand"],
            "rewrite.branches": counts["branches"],
            "decider.decide_ms": ms("decider.decide"),
            "decider.self_ms": (ns["decider.decide"]
                                - self.child_ns["decider.decide"]) / 1e6,
            "decider.memo_hits": memo_hits,
            "decider.normal_forms": counts["normal_forms"],
            "decider.witness_ms": ms("decider.witness"),
            "schematic.recheck_ms": ms("schematic.recheck"),
            "trace.wall_s": wall_s,
        }
