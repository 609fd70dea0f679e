"""Per-layer tracing from outside the package.

Tracer.install() replaces every public function of scatterchain's cli,
cells, chain, analysis and core modules with a timing wrapper, in every
module namespace (and module-level dict, such as cli's runner table) that
holds a reference to it, because cli and analysis import by name.  It also
wraps the ChainState.transmissions property and counts ScatteringMatrix
construction.  uninstall() puts the originals back.

Self time is kept with a stack of child-time accumulators: a span's self
time is its duration minus the durations of the wrapped calls made inside
it.  Every span (function id, depth, start, end) is kept in memory in
compact arrays until the caller writes them out at the end of the run; a
span's parent is the nearest enclosing span one level up (see spans()).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

LAYER_MODULES = ("cli", "cells", "chain", "analysis", "core")

# Function -> metric group whose self time it adds to.  A public function
# missing here is still traced, under "<module>.other".
GROUPS = {
    "cli.main": "cli.render",
    "cli.build_parser": "cli.render",
    "cli.parse_cell_spec": "cli.render",
    "cli.load_config_file": "cli.render",
    "cli.run_cell": "cli.rows",
    "cli.run_chain": "cli.rows",
    "cli.run_bands": "cli.rows",
    "cli.run_hartman": "cli.rows",
    "cli.run_delay": "cli.rows",
    "cli.run_packet": "cli.rows",
    "cells.cell_smatrix": "cells.smatrix",
    "chain.compose": "chain.compose",
    "chain.displace": "chain.compose",
    "chain.chain_amplitudes": "chain.recurrence",
    "chain.chain_amplitudes_addleft": "chain.recurrence",
    "chain.ChainState.transmissions": "chain.transmissions",
    "chain.transmission_profile": "chain.profile",
    "chain.chebyshev_transmission": "chain.chebyshev",
    "chain.chebyshev_U": "chain.chebyshev",
    "chain.bloch_parameter": "chain.chebyshev",
    "analysis.chain_phase_curves": "analysis.phase_curves",
    "analysis.time_delays": "analysis.delays",
    "analysis.hartman_scan": "analysis.hartman",
    "analysis.traversal_time": "analysis.hartman",
    "analysis.band_classify": "analysis.band_classify",
    "analysis.wavepacket_average": "analysis.packet_avg",
    "core.unwrap": "core.unwrap",
    "core.unitarity_defect": "core.defect",
    "core.principal_phase": "core.phases",
    "core.principal_phases": "core.phases",
    "core.wrap_to_principal": "core.phases",
    "core.branch_distance": "core.phases",
    "core.phase_relation_residual": "core.phases",
}

# Spans under these functions spend recurrence steps on delay/Hartman rows.
_ANALYSIS_ENTRIES = ("analysis.chain_phase_curves", "analysis.hartman_scan")


class Tracer:
    """Wraps the package's public functions and accumulates per-function data."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.self_s: list[float] = []
        self.calls: list[int] = []
        self.counts: dict[str, int] = {}
        self._child: list[float] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._analysis_depth = 0
        self._reset()

    def _reset(self) -> None:
        """Fresh accumulators and span arrays for one traced campaign."""
        self.self_s = [0.0] * len(self.names)
        self.calls = [0] * len(self.names)
        self.counts = dict.fromkeys(
            ("recurrence_steps", "analysis_steps", "transmissions_elems",
             "profile_entries", "smatrix_built", "rows_out", "analysis_rows",
             "bytes_out"), 0)
        self._child[:] = [0.0]
        self.span_fn = array("H")
        self.span_depth = array("H")
        self.span_start = array("d")
        self.span_end = array("d")

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Swap the wrappers in with fresh accumulators; wrappers are built once."""
        if not self._patches:
            self._patches = self._build_patches()
        self._reset()
        for owner, key, _, replacement in self._patches:
            _assign(owner, key, replacement)

    def uninstall(self) -> None:
        for owner, key, original, _ in reversed(self._patches):
            _assign(owner, key, original)

    def _build_patches(self) -> list[tuple[object, str, object, object]]:
        modules = {m: importlib.import_module(f"scatterchain.{m}") for m in LAYER_MODULES}
        wrapped = {}
        for mod_name, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self._wrap(obj, f"{mod_name}.{name}")
        namespaces = [vars(m) for m in modules.values()]
        namespaces.append(vars(importlib.import_module("scatterchain")))
        for ns in list(namespaces):
            namespaces.extend(v for k, v in ns.items()
                              if isinstance(v, dict) and k.startswith("_")
                              and not k.startswith("__"))
        patches = [(ns, key, value, wrapped[value])
                   for ns in namespaces for key, value in ns.items()
                   if inspect.isfunction(value) and value in wrapped]

        chain_state = modules["chain"].ChainState
        prop = vars(chain_state).get("transmissions")
        if isinstance(prop, property):
            getter = self._wrap(prop.fget, "chain.ChainState.transmissions")
            patches.append((chain_state, "transmissions", prop,
                            property(getter, doc=prop.__doc__)))

        smatrix = modules["core"].ScatteringMatrix
        post_init = vars(smatrix)["__post_init__"]
        tracer = self

        def counted_post_init(s):
            tracer.counts["smatrix_built"] += 1
            post_init(s)

        patches.append((smatrix, "__post_init__", post_init, counted_post_init))
        return patches

    def _wrap(self, fn, qualname: str):
        fid = len(self.names)
        self.names.append(qualname)
        counter = _COUNTERS.get(qualname)
        counts_analysis = qualname in _ANALYSIS_ENTRIES
        clock = time.perf_counter
        child = self._child
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth = len(child)
            child.append(0.0)
            if counts_analysis:
                tracer._analysis_depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                duration = t1 - t0
                tracer.self_s[fid] += duration - child.pop()
                child[-1] += duration
                tracer.calls[fid] += 1
                if counts_analysis:
                    tracer._analysis_depth -= 1
                tracer.span_fn.append(fid)
                tracer.span_depth.append(depth)
                tracer.span_start.append(t0)
                tracer.span_end.append(t1)
            if counter is not None:
                counter(tracer, args, result)
            return result

        return wrapper

    # -- reporting ------------------------------------------------------

    def group_self_s(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, value in zip(self.names, self.self_s):
            group = GROUPS.get(name, name.split(".", 1)[0] + ".other")
            out[group] = out.get(group, 0.0) + value
        return out

    def calls_of(self, *qualnames: str) -> int:
        return sum(c for n, c in zip(self.names, self.calls) if n in qualnames)

    def root_span_s(self) -> float:
        """Summed duration of the outermost spans: time inside any named span."""
        return sum(e - s for d, s, e in zip(self.span_depth, self.span_start, self.span_end)
                   if d == 1)

    def spans(self) -> dict:
        """Span columns with parent indices (spans are stored in post-order)."""
        n = len(self.span_fn)
        parent = [-1] * n
        last_at_depth: dict[int, int] = {}
        for i in range(n - 1, -1, -1):
            depth = self.span_depth[i]
            parent[i] = last_at_depth.get(depth - 1, -1)
            last_at_depth[depth] = i
        return {"fn": self.span_fn, "depth": self.span_depth, "parent": parent,
                "start": self.span_start, "end": self.span_end}


def _assign(owner, key: str, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


def _count_recurrence(tracer, args, result):
    tracer.counts["recurrence_steps"] += args[0].N
    if tracer._analysis_depth:
        tracer.counts["analysis_steps"] += args[0].N


def _count_transmissions(tracer, args, result):
    tracer.counts["transmissions_elems"] += len(result)


def _count_profile(tracer, args, result):
    tracer.counts["profile_entries"] += result.size


def _count_rows(tracer, args, result):
    rows = len(result[1])
    tracer.counts["rows_out"] += rows
    if args[0].command in ("delay", "hartman"):
        tracer.counts["analysis_rows"] += rows


_COUNTERS = {
    "chain.chain_amplitudes": _count_recurrence,
    "chain.chain_amplitudes_addleft": _count_recurrence,
    "chain.ChainState.transmissions": _count_transmissions,
    "chain.transmission_profile": _count_profile,
    **{f"cli.run_{c}": _count_rows
       for c in ("cell", "chain", "bands", "hartman", "delay", "packet")},
}
