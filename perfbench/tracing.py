"""Span tracing of the package's layers, installed from outside.

Each traced function is replaced by a wrapper that records a span (name,
cell, start, end, parent). The package imports names directly, so the
wrapper is installed in every ``isac_beamkit`` module whose globals hold the
original function; methods are replaced on their class. A stack of open
spans gives each layer's self time: its duration minus the time of the
spans it caused. Spans share their cell number, and each names the span
that caused it. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# span name -> (module, attribute path, counter of the result or None)
TARGETS = (
    ("quadrature.a1", "isac_beamkit.pcrb", "PcrbEngine.a1", None),
    ("quadrature.btilde", "isac_beamkit.pcrb", "PcrbEngine.b_tilde", None),
    ("pcrb.engine", "isac_beamkit.pcrb", "PcrbEngine.__init__", None),
    ("cvxkit.qcqp", "isac_beamkit.cvxkit", "solve_convex_qcqp",
     lambda rep: {"newton_steps": rep.iterations}),
    ("isac_opt.fpp_sca", "isac_beamkit.isac_opt", "fpp_sca_vrf",
     lambda out: {"sca_iters": len(out[1].slack_trace)}),
    ("ofdm_opt.fpp_sca", "isac_beamkit.ofdm_opt", "fpp_sca_vrf_ofdm",
     lambda out: {"sca_iters": len(out[1].slack_trace)}),
    ("cvxkit.digital", "isac_beamkit.cvxkit", "rate_constrained_trace_max_multi",
     lambda res: {"dual_solves": int(res.branch == "dual")}),
    ("isac_opt.wmmse", "isac_beamkit.isac_opt", "wmmse_update", None),
    ("isac_opt.init", "isac_beamkit.isac_opt", "init_random_phase", None),
    ("cvxkit.eig", "isac_beamkit.cvxkit", "top_generalized_eig", None),
    ("sensing_opt.phase_align", "isac_beamkit.sensing_opt", "coordinate_update_receive", None),
    ("sensing_opt.phase_align", "isac_beamkit.sensing_opt", "coordinate_update_transmit", None),
    ("bench.run_scheme", "isac_beamkit.bench", "run_scheme",
     lambda rep: {"outer_iters": rep.iterations}),
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.cell = -1
        self._stack: list = []          # [start, child time, span id] of open spans
        self._next_id = 0
        self._patches: list = []        # (owner, attribute, original)
        self.reset()

    def reset(self):
        """Forget the aggregates (spans are kept for the trace file)."""
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()

    def _wrap(self, name, fn, counter):
        stack = self._stack

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][2] if stack else -1
            frame = [time.perf_counter(), 0.0, span_id]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                self.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[0]
                if stack:
                    stack[-1][1] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                self.spans.append((span_id, name, self.cell, frame[0], end, parent))
            if counter is not None:
                for key, value in counter(out).items():
                    self.counts[f"{name}.{key}"] += value
            return out

        return traced

    def install(self) -> list[str]:
        """Wrap every target; returns the targets that no longer exist."""
        missing = []
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "isac_beamkit"]
        for name, module, path, counter in TARGETS:
            owner = sys.modules.get(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                missing.append(f"{module}.{path}")
                continue
            wrapper = self._wrap(name, original, counter)
            if outer:
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        return missing

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path, **header):
        """Write the spans, times relative to the first span's start."""
        t0 = min((s[3] for s in self.spans), default=0.0)
        doc = dict(header)
        doc["fields"] = ["id", "name", "cell", "start_s", "end_s", "parent"]
        doc["spans"] = [
            [span_id, name, cell, round(start - t0, 9), round(end - t0, 9), parent]
            for span_id, name, cell, start, end, parent in sorted(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")))
