"""Outside-in tracing: spans around the program's public layer functions.

A :class:`Tracer` replaces each traced function -- a class method or a
module-level name -- with a wrapper that records a span (name, start, end,
parent span, operation id) and calls the original.  Wrappers are installed
only around set-up and traced operations and removed after them, so
untraced operations run the program's own functions untouched.  Spans stay in
memory; :meth:`Tracer.write_chrome_trace` writes them out at the end as a
Chrome trace-event file.

A span's *self time* is its duration minus the durations of its direct
children.  Spans are recorded on the main thread only and nest strictly,
so the self times of every span under an operation's root span add up to
the root's duration exactly; the root's own self time is the residual no
layer covers.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
from pathlib import Path
from time import perf_counter_ns

#: (module, attribute path, span name).  A dotted attribute path names a
#: method on a class; a plain name is a module global, patched in the module
#: that *calls* it (``from x import f`` binds a second name).
TRACE_POINTS = (
    ("repro.datasets", "build_catalog", "datasets.build"),
    ("repro.experiments.evaluation", "run_full_evaluation", "experiments.sweep"),
    ("repro.experiments.delta", "run_full_evaluation", "experiments.sweep"),
    ("repro.experiments.delta", "DeltaEvaluator.evaluate", "experiments.delta"),
    ("repro.experiments.evaluation", "render_chart", "helm.render"),
    ("repro.helm.template", "TemplateEngine.render_fragments", "helm.template_emit"),
    ("repro.helm.renderer", "assemble_documents", "helm.assemble"),
    ("repro.helm.renderer", "objects_from_dicts", "k8s.intern"),
    ("repro.cluster.session", "AnalysisSession.observe", "cluster.observe"),
    ("repro.core.analyzer", "MisconfigurationAnalyzer.analyze_rendered", "core.rules"),
    ("repro.experiments.evaluation", "global_collision_findings", "core.m4"),
    ("repro.store", "ResultStore.read", "store.read"),
    ("repro.store", "ResultStore.write", "store.write"),
    ("repro.store", "SweepJournal.record", "store.journal"),
    ("repro.cluster.network", "ClusterNetwork.reachability_matrix", "cluster.matrix_build"),
    ("repro.cluster.network", "ReachabilityMatrix.endpoint_universe", "cluster.universe_build"),
    ("repro.cluster.network", "ReachabilityMatrix.endpoints_from", "cluster.surface"),
)

#: Span name of the benchmark's own root span around one timed operation.
ROOT = "bench.op"
#: Operation id of spans recorded outside any operation (set-up).
SETUP_OP = -1

#: Counter hooks on the instances a traced method is called on, by span
#: name.  The first call on an instance inside an operation snapshots its
#: counters and the operation's end reads them again.
INSTANCE_HOOKS = {
    "cluster.observe": "observe_memo",
    "store.read": "store",
    "store.write": "store",
}
HOOK_READERS = {
    "observe_memo": lambda session: session.memo_stats(),
    "store": lambda store: store.stats(),
}


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self) -> None:
        #: [name, start_ns, end_ns, parent index or -1, operation id]
        self.spans: list[list] = []
        self.op_id = SETUP_OP
        self._stack: list[int] = []
        self._main = threading.main_thread().ident
        self._patches: list[tuple[object, str, object, object]] = []
        #: hook -> {id(instance): (instance, counters before)}
        self._instances: dict[str, dict[int, tuple[object, dict]]] = {}
        for module_name, path, name in TRACE_POINTS:
            owner = importlib.import_module(module_name)
            *classes, attr = path.split(".")
            for class_name in classes:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original, self._wrapper(name, original)))

    def _wrapper(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        hook = INSTANCE_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != self._main:
                return fn(*args, **kwargs)
            if hook is not None:
                self._note_instance(hook, args[0])
            index = len(spans)
            spans.append([name, perf_counter_ns(), 0, stack[-1] if stack else -1, self.op_id])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = perf_counter_ns()

        return traced

    def _note_instance(self, label: str, instance) -> None:
        seen = self._instances.setdefault(label, {})
        if id(instance) not in seen:
            seen[id(instance)] = (instance, HOOK_READERS[label](instance))

    def install(self) -> None:
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in self._patches:
            setattr(owner, attr, original)

    def begin_op(self, op_id: int) -> None:
        """Start an operation: install the wrappers and open its root span."""
        self.op_id = op_id
        self._instances = {}
        self.install()
        self.spans.append([ROOT, 0, 0, -1, op_id])
        self._stack.append(len(self.spans) - 1)
        self.spans[-1][1] = perf_counter_ns()

    def end_op(self) -> tuple[int, dict[str, dict[str, int]]]:
        """Close the root span and uninstall; return (wall ns, hook deltas)."""
        end = perf_counter_ns()
        root = self.spans[self._stack.pop()]
        root[2] = end
        self.uninstall()
        self.op_id = SETUP_OP
        deltas: dict[str, dict[str, int]] = {}
        for label, seen in self._instances.items():
            total = deltas.setdefault(label, {})
            for instance, before in seen.values():
                after = HOOK_READERS[label](instance)
                for key, value in after.items():
                    total[key] = total.get(key, 0) + value - before.get(key, 0)
        return end - root[1], deltas

    def self_times(self, ops: set[int]) -> tuple[dict[str, int], dict[str, int]]:
        """Total self time (ns) and call count per span name over ``ops``."""
        child = [0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_ns: dict[str, int] = {}
        calls: dict[str, int] = {}
        for index, (name, start, end, _parent, op) in enumerate(self.spans):
            if op in ops:
                self_ns[name] = self_ns.get(name, 0) + end - start - child[index]
                calls[name] = calls.get(name, 0) + 1
        return self_ns, calls

    def durations(self, name: str, op: int) -> list[int]:
        """Durations (ns) of every ``name`` span recorded under ``op``."""
        return [end - start for n, start, end, _p, o in self.spans if n == name and o == op]

    def write_chrome_trace(self, path: Path, metadata: dict) -> None:
        """Write the spans as a Chrome trace-event file (``chrome://tracing``)."""
        origin = min((span[1] for span in self.spans), default=0)
        events = [
            {
                "name": name,
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (start - origin) / 1000,
                "dur": (end - start) / 1000,
                "args": {"span": index, "parent": parent, "op": op},
            }
            for index, (name, start, end, parent, op) in enumerate(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"traceEvents": events, "otherData": metadata}),
            encoding="utf-8",
        )

