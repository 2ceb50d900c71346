"""The workloads: set-up, one closed-loop operation, output checks.

Every workload is one client that sends its next request only after the
previous one returned.  A workload splits each operation into three
steps, and only ``execute`` is timed:

* ``prepare(i)`` builds the inputs of operation ``i`` (cache clearing, a
  rebuilt chart set, the seeded edit, a policy edit, the query source);
* ``execute(inputs)`` hands them to the program's public entry point;
* ``check(i, inputs, output)`` verifies the output against a reference
  that does not come from the analyzer under test and returns the number
  of failures.

``finish()`` runs the end-of-run checks.  All randomness comes from the
workload seed, so one seed gives one operation stream.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import random
import shutil
from pathlib import Path

from repro import datasets
from repro.cluster import BehaviorRegistry, ContainerBehavior
from repro.experiments import delta as delta_module
from repro.experiments import evaluation as evaluation_module
from repro.helm import clear_skeleton_parse_memo, clear_template_cache, shared_render_cache
from repro.helm.chart import ChartTemplate
from repro.k8s import clear_intern_table
from repro.store import ResultStore

import fleet as fleet_module

#: What the catalogue plants (the Table 2 totals): 634 findings in 259
#: affected apps out of 290 charts.
CATALOG_CHARTS = 290
CATALOG_FINDINGS = 634
CATALOG_AFFECTED = 259

#: watch-churn: the edit kinds of one block of 20 rounds (40% none, 35%
#: values, 10% template, 10% behaviour, 5% chart removed or re-added).
#: Each block is a seeded shuffle, so every run of a given length gets the
#: same mix and the tail percentiles do not move with the luck of the draw.
WATCH_BLOCK = ("none",) * 8 + ("values",) * 7 + ("template",) * 2 + ("behavior",) * 2 + (
    "membership",
)

#: blast-radius: pods in the fleet, and one policy edit every this many queries.
FLEET_PODS = 10_000
EDIT_EVERY = 5
#: blast-radius: destinations and services spot-checked per checked query.
CHECK_PODS = 150
CHECK_SERVICES = 40


def clear_caches() -> None:
    """Drop every in-process render cache, as a fresh process starts with."""
    clear_template_cache()
    shared_render_cache().clear()
    clear_skeleton_parse_memo()
    clear_intern_table()


def uid(app) -> str:
    return f"{app.dataset}/{app.name}"


def canonical(result) -> str:
    """A result's reports and failures as deterministic JSON."""
    return json.dumps(
        {
            "reports": [entry.report.to_dict() for entry in result.analyzed],
            "failed": [failure.unique_id for failure in result.failed],
        },
        sort_keys=True,
        default=str,
    )


def planted_mismatches(applications, result) -> int:
    """Charts whose verdict differs from the counts planted in the catalogue.

    Each chart's per-class finding counts must equal its
    ``InjectionPlan.expected_counts()``; a quarantined or missing chart is a
    mismatch too.  The totals follow from the plans, never from the run.
    """
    reports = {uid(entry.application): entry.report for entry in result.analyzed}
    mismatches = 0
    for app in applications:
        report = reports.get(uid(app))
        if report is None:
            mismatches += 1
            continue
        got = {cls.value: count for cls, count in report.count_by_class().items() if count}
        want = {name: count for name, count in app.plan.expected_counts().items() if count}
        mismatches += got != want
    return mismatches + (len(result.analyzed) != len(applications))


def rebuilt(app, values_extra=None, template_comment=None, behavior_extra=None):
    """A fresh copy of ``app``, as a rescan of its chart directory gives.

    Every object is new, the behaviour registry too, so every fingerprint
    is computed again.  The optional edits leave the planted findings
    alone: an unused values key, a template comment, and a behaviour
    registered for an image the chart does not run.
    """
    values = copy.deepcopy(app.chart.values)
    if values_extra is not None:
        values["benchEdit"] = values_extra
    templates = [ChartTemplate(t.name, t.source) for t in app.chart.templates]
    if template_comment is not None:
        first = templates[0]
        templates[0] = ChartTemplate(first.name, first.source + template_comment)
    behaviors = BehaviorRegistry()
    for image in app.behaviors.images():
        behaviors.register(image, app.behaviors.lookup(image))
    if behavior_extra is not None:
        behaviors.register(behavior_extra, ContainerBehavior())
    return dataclasses.replace(
        app,
        chart=dataclasses.replace(app.chart, values=values, templates=templates),
        behaviors=behaviors,
    )


class Workload:
    """Defaults shared by the workloads; see the module docstring."""

    #: Traced operations whose counters are reported (the same operations in
    #: every run of one seed, so counts repeat exactly).
    counter_ops = 2
    #: Set-ups per run; ``setup_s`` is their median.
    setup_repeats = 3

    def finish(self) -> tuple[int, int]:
        """End-of-run checks: (checks made, checks failed)."""
        return 0, 0

    def counters(self, inputs, output) -> dict[str, float]:
        """Workload counters of one operation, read from its output."""
        return {}

    def close(self) -> None:
        """Release what set-up left on disk."""


class AuditSweep(Workload):
    """``audit-cold`` / ``audit-pool``: the whole catalogue, cold caches.

    The sweep uses the CLI ``sweep`` defaults (fault isolation on, no
    store); ``workers`` selects the serial path or the self-healing pool.
    Every sweep gets freshly rebuilt charts, as a new ``insidejob sweep``
    process builds them, so no fingerprint memo survives from the last one.
    """

    def __init__(self, workers: int | None) -> None:
        self.workers = workers

    def setup(self, seed: int) -> None:
        self.applications = datasets.build_catalog()

    def prepare(self, i: int):
        applications = [rebuilt(app) for app in self.applications]
        clear_caches()
        return applications

    def execute(self, applications):
        return evaluation_module.run_full_evaluation(
            applications=applications, workers=self.workers
        )

    def check(self, i: int, applications, result) -> int:
        summary = result.summary
        return int(
            planted_mismatches(applications, result) > 0
            or bool(result.failed)
            or len(applications) != CATALOG_CHARTS
            or summary.total_misconfigurations != CATALOG_FINDINGS
            or summary.affected_applications != CATALOG_AFFECTED
        )


class _ChartSetRounds(Workload):
    """Shared state of the two delta workloads: the current chart set.

    The edit state is kept per chart so a rebuilt chart set always carries
    every edit made so far, as a directory a user keeps editing does.
    """

    def _setup_catalog(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.pristine = datasets.build_catalog()
        self.values_edit: dict[int, str] = {}
        self.template_edit: dict[int, str] = {}
        self.behavior_edit: dict[int, str] = {}
        self.removed: int | None = None
        self.last: tuple | None = None
        self.values_edits = 0

    def _values_edit(self, i: int) -> None:
        """Edit 1, 2, 3, 4, 1, ... seeded random charts: an unused values key."""
        count = 1 + self.values_edits % 4
        self.values_edits += 1
        for index in self.rng.sample(range(len(self.pristine)), count):
            self.values_edit[index] = f"round-{i}"

    def _chart_set(self):
        return [
            rebuilt(
                app,
                self.values_edit.get(index),
                self.template_edit.get(index),
                self.behavior_edit.get(index),
            )
            for index, app in enumerate(self.pristine)
            if index != self.removed
        ]

    def _check_round(self, applications, result) -> int:
        expected_findings = sum(app.plan.total() for app in applications)
        expected_affected = sum(app.plan.total() > 0 for app in applications)
        summary = result.summary
        return int(
            planted_mismatches(applications, result) > 0
            or bool(result.failed)
            or summary.total_misconfigurations != expected_findings
            or summary.affected_applications != expected_affected
        )

    def _check_last_round(self) -> tuple[int, int]:
        """The last round must equal a from-scratch sweep, byte for byte."""
        if self.last is None:
            return 0, 0
        applications, result = self.last
        clear_caches()
        scratch = evaluation_module.run_full_evaluation(applications=applications)
        return 1, int(canonical(scratch) != canonical(result))

    def counters(self, inputs, result) -> dict[str, float]:
        stats = result.delta_stats or {}
        charts = stats.get("charts", 0)
        return {"delta_reused": stats.get("reused", 0), "delta_charts": charts}


class WatchChurn(_ChartSetRounds):
    """``watch-churn``: in-memory delta rounds over a rescanned chart set.

    Edit mix (``WATCH_BLOCK``): 40% none, 35% values on 1-4 charts, 10%
    template, 10% behaviour on one chart, 5% removing or re-adding one
    chart that is not in the M4* collision group.
    """

    counter_ops = 40

    def setup(self, seed: int) -> None:
        self._setup_catalog(seed)
        self.evaluator = delta_module.DeltaEvaluator()
        self.evaluator.evaluate(self._chart_set())

    def prepare(self, i: int):
        if i % len(WATCH_BLOCK) == 0:
            self.block = self.rng.sample(WATCH_BLOCK, len(WATCH_BLOCK))
        kind = self.block[i % len(WATCH_BLOCK)]
        if kind == "values":
            self._values_edit(i)
        elif kind == "template":
            index = self.rng.randrange(len(self.pristine))
            self.template_edit[index] = (
                f"\n{{{{/* edit {i} */}}}}\n" if i % 2 else f"\n# edit {i}\n"
            )
        elif kind == "behavior":
            self.behavior_edit[self.rng.randrange(len(self.pristine))] = f"bench/unused:{i}"
        elif kind == "none":
            pass
        elif self.removed is not None:
            self.removed = None
        else:
            candidates = [
                index
                for index, app in enumerate(self.pristine)
                if not app.plan.global_collision
            ]
            self.removed = self.rng.choice(candidates)
        return self._chart_set()

    def execute(self, applications):
        return self.evaluator.evaluate(applications)

    def check(self, i: int, applications, result) -> int:
        self.last = (applications, result)
        return self._check_round(applications, result)

    def finish(self) -> tuple[int, int]:
        return self._check_last_round()


class CIRecheck(_ChartSetRounds):
    """``ci-recheck``: ``sweep --since`` against a durable store.

    Set-up populates the store with a full durable sweep (``sweep
    --store``).  Every round is a new CI job: a fresh evaluator, in-process
    caches cleared, and a values edit on 1-4 charts.
    """

    counter_ops = 6

    def __init__(self, store_dir: Path) -> None:
        self.store_dir = store_dir

    def setup(self, seed: int) -> None:
        self._setup_catalog(seed)
        shutil.rmtree(self.store_dir, ignore_errors=True)
        evaluation_module.run_full_evaluation(
            applications=self.pristine, store=ResultStore(self.store_dir)
        )

    def prepare(self, i: int):
        self.values_edit.clear()
        self._values_edit(i)
        applications = self._chart_set()
        clear_caches()
        return applications, delta_module.DeltaEvaluator(store=ResultStore(self.store_dir))

    def execute(self, inputs):
        applications, evaluator = inputs
        return evaluator.evaluate(applications, resume=True)

    def check(self, i: int, inputs, result) -> int:
        applications, evaluator = inputs
        self.last = (applications, result)
        stats = evaluator.store.stats()
        return int(
            self._check_round(applications, result) > 0
            or stats["write_failures"] > 0
            or stats["corruptions"] > 0
        )

    def finish(self) -> tuple[int, int]:
        return self._check_last_round()

    def close(self) -> None:
        shutil.rmtree(self.store_dir, ignore_errors=True)


class BlastRadius(Workload):
    """``blast-radius``: lateral-movement surface queries on a 10k-pod fleet.

    Each query asks for the reachable surface of a seeded random source
    pod through a fresh matrix over the current epoch's compiled index,
    as the cluster facade serves it.  Every ``EDIT_EVERY``-th query follows
    a policy add or remove, so it pays the index compile and the endpoint
    universe rebuild; the others reuse both.
    """

    counter_ops = 20

    def setup(self, seed: int) -> None:
        self.fleet = fleet_module.build_fleet(FLEET_PODS, seed)
        self.network = self.fleet.compiled_network()
        self.naive = self.fleet.naive_network()
        self.rng = random.Random(seed + 1)

    def prepare(self, i: int):
        if i % EDIT_EVERY == 0:
            self.fleet.edit_policies()
        return self.rng.choice(self.fleet.pods)

    def execute(self, source):
        fleet = self.fleet
        matrix = self.network.reachability_matrix(
            fleet.current_index(), fleet.pods, fleet.bindings,
            universe_cache=fleet.universe_cache,
        )
        return matrix.endpoints_from(source)

    def check(self, i: int, source, surface) -> int:
        """Spot-check sampled queries against the naive per-attempt engine.

        Each checked query compares a seeded sample of destination sockets
        and service ports: an endpoint is in the surface exactly when the
        uncompiled engine lets the connection through.
        """
        if not (i < 2 or i % 40 == 21):
            return 0
        rng = random.Random(i)
        fleet = self.fleet
        policies = list(fleet.policies)
        got = {(e.kind, e.namespace, e.name, e.port, e.protocol) for e in surface}
        failures = 0
        for destination in rng.sample(fleet.pods, CHECK_PODS):
            for socket in destination.sockets:
                if destination is source or not socket.reachable_from_network:
                    expected = False
                else:
                    expected = self.naive.connect_pod_to_pod(
                        policies, source, destination, socket.port, socket.protocol
                    ).success
                key = ("pod", destination.namespace, destination.name, socket.port, socket.protocol)
                failures += expected != (key in got)
        for binding in rng.sample(fleet.bindings, CHECK_SERVICES):
            for port in binding.service.ports:
                expected = self.naive.connect_pod_to_service(
                    policies, source, binding, port.port, port.protocol
                ).success
                key = ("service", binding.service.namespace, binding.service.name,
                       port.port, port.protocol)
                failures += expected != (key in got)
        return int(failures > 0)


def make(name: str, work_dir: Path) -> Workload:
    """A fresh workload object for ``name``; it may keep files in ``work_dir``."""
    if name == "audit-cold":
        return AuditSweep(workers=None)
    if name == "audit-pool":
        return AuditSweep(workers=2)
    if name == "watch-churn":
        return WatchChurn()
    if name == "ci-recheck":
        return CIRecheck(work_dir / "store")
    if name == "blast-radius":
        return BlastRadius()
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("audit-cold", "audit-pool", "watch-churn", "ci-recheck", "blast-radius")
