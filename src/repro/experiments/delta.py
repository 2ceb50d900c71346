"""Incremental delta-evaluation: re-verify only what changed (watch mode).

The paper's premise is *continuous* defense: clusters drift one chart or
values file at a time, yet a from-scratch sweep re-evaluates all 290
catalogue charts on every run.  :class:`DeltaEvaluator` closes that gap:
each round reuses what still holds from the prior state and sends every
other chart to the sweep executor.  The round's ``delta_stats`` record
what it *did*, one class per chart:

=========  ============================================================
class      meaning
=========  ============================================================
unchanged  reused: the prior pre-M4* report and inventory were served
added      recomputed: the prior state holds no record of the chart key
changed    recomputed: a prior record exists but could not be reused
=========  ============================================================

``reasons`` names what moved for every recomputed chart: the inputs
(``values``, ``templates``, ``behaviors``, or ``chart`` for a metadata or
subchart edit) in memory mode, ``result key moved`` or ``store entry
unusable`` in store mode, and ``prior failure`` or ``no prior record`` in
both.  Every round satisfies ``classified["unchanged"] == reused``,
``classified["added"] + classified["changed"] == recomputed`` and
``reused + recomputed == charts``; a chart quarantined in the round was
recomputed too.

Charts present in the prior state but absent now are *removed*: their
entries simply do not appear in the merged result (and the lazy
``report_for`` / ``by_dataset`` indexes rebuild on identity, so no
orphaned key survives a removal).

Staleness rules
---------------

Reuse is sound only for the per-chart (pre-M4*) stage: the cluster-wide
label-collision pass consumes *every* inventory, so any change anywhere
can move M4* findings on unchanged charts.  A delta round therefore
strips M4* findings from reused reports (into fresh
:class:`~repro.core.AnalysisReport` objects -- the prior result is never
mutated) and re-runs
:func:`~repro.experiments.evaluation.apply_cluster_wide_pass` over the
merged inventories, exactly as a from-scratch sweep would.  A chart whose
prior attempt failed is always recomputed -- a quarantined failure is
never "unchanged".  The result is byte-identical to a from-scratch sweep
by construction; the differential suite in
``tests/experiments/test_delta_evaluation.py`` proves it over the full
catalogue for randomized change sets, serial and pooled, faults included.

Prior-state sources
-------------------

*Memory*: the evaluator chains its own rounds and compares each chart's
:func:`classifier_fingerprints` with its prior entry's; that comparison
*is* the reuse decision.  An evaluator only ever chains its own rounds,
so its analyzer settings cannot move between them.  This is the
watch-mode hot path -- no store reads, near-zero cost for a no-op round
(the ``DELTA_NOOP_RATIO_LIMIT`` gate in ``benchmarks/run.py --check`` pins
it at <= 5% of a full sweep).

*Store*: with a ``store``, the round is one durable sweep
(:func:`~repro.experiments.evaluation.run_full_evaluation`), so content
addressing does the reuse and the classification is read back from what
that sweep observed: a chart is ``unchanged`` iff the store served it,
and the journal record the sweep found for it when it began tells
``added`` from ``changed`` and names the reason.  Every journal
generation is totally ordered by epoch.  ``repro sweep --since DIR`` is
the CLI spelling.

``insidejob watch <dir>`` drives :func:`watch_directory`: scan a directory
of on-disk charts (:meth:`repro.helm.Chart.from_directory`), evaluate the
delta against the previous round, print one summary line per round.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from .. import faults
from ..cluster import BehaviorRegistry
from ..core import (
    AnalysisReport,
    AnalyzerSettings,
    MisconfigClass,
    MisconfigurationAnalyzer,
)
from ..datasets import BuiltApplication, build_catalog
from ..helm import Chart
from ..helm.values import fingerprint_values
from ..store import ResultStore
from .evaluation import (
    NO_PRIOR_RECORD,
    AnalyzedApplication,
    EvaluationResult,
    _split_outcomes,
    _sweep,
    apply_cluster_wide_pass,
    run_full_evaluation,
)

#: Delta classifications, in reporting order.
DELTA_UNCHANGED = "unchanged"
DELTA_ADDED = "added"
DELTA_CHANGED = "changed"
DELTA_CLASSES = (DELTA_UNCHANGED, DELTA_ADDED, DELTA_CHANGED)

#: The classifier fingerprints compared between rounds, in reason order.
#: ``chart`` is the aggregate render input; it is named as a reason only
#: when neither ``values`` nor ``templates`` explains its move.
_AXES = ("chart", "values", "templates", "behaviors")


def classifier_fingerprints(app: BuiltApplication) -> dict[str, str]:
    """The delta classifier's per-input fingerprints for one chart.

    Each key fingerprints exactly one axis a delta round can move along --
    ``values`` (the chart's canonical values tree), ``templates`` (the
    template files by name and source) and ``behaviors`` (the registered
    container behaviours) -- plus ``chart``, an aggregate over *every*
    render input (metadata, values, templates, dependencies, packaged
    subcharts).  The aggregate is composed from the axis digests rather
    than delegating to :meth:`~repro.helm.Chart.fingerprint`, so a watch
    round walks each values tree exactly once -- this function runs for
    every chart on every round and is the hot loop of a no-op delta.  The
    orthogonality contract (mutating one input flips its own fingerprint
    and no other) is what lets :class:`DeltaEvaluator` name the reason a
    chart is recomputed; it is pinned by the fingerprint-sensitivity suite
    in ``tests/experiments/test_delta_evaluation.py``.
    """
    chart = app.chart
    values_fp = fingerprint_values(chart.values)

    templates_digest = hashlib.blake2b(digest_size=16)
    for template in chart.templates:
        templates_digest.update(template.name.encode("utf-8"))
        templates_digest.update(b"\x00")
        templates_digest.update(template.source.encode("utf-8"))
        templates_digest.update(b"\x00")
    templates_fp = templates_digest.hexdigest()

    meta = chart.metadata
    aggregate = hashlib.blake2b(digest_size=16)
    for part in (
        meta.name,
        meta.version,
        meta.app_version,
        meta.description,
        meta.home,
        meta.organization,
        values_fp,
        templates_fp,
    ):
        aggregate.update(part.encode("utf-8"))
        aggregate.update(b"\x00")
    for dependency in chart.dependencies:
        for part in (
            dependency.name,
            dependency.version,
            dependency.repository,
            dependency.condition,
            dependency.alias,
        ):
            aggregate.update(part.encode("utf-8"))
            aggregate.update(b"\x00")
    for name in sorted(chart.subcharts):
        aggregate.update(name.encode("utf-8"))
        aggregate.update(chart.subcharts[name].fingerprint().encode("utf-8"))
        aggregate.update(b"\x00")

    return {
        "chart": aggregate.hexdigest(),
        "values": values_fp,
        "templates": templates_fp,
        "behaviors": app.behaviors.fingerprint(),
    }


def _strip_cluster_wide(entry: AnalyzedApplication) -> AnalyzedApplication:
    """A reusable pre-M4* copy of one prior analyzed entry.

    Prior in-memory results are *post*-M4*: the cluster-wide pass already
    appended its findings.  Only :func:`global_collision_findings` emits
    :data:`~repro.core.MisconfigClass.M4_GLOBAL` (per-chart rules emit
    M4A/B/C), so filtering it out reconstructs the exact pre-M4* report.
    The report object is fresh -- the new round's cluster-wide pass must
    never mutate the prior result's reports.
    """
    report = entry.report
    findings = [
        finding
        for finding in report.findings
        if finding.misconfig_class is not MisconfigClass.M4_GLOBAL
    ]
    return AnalyzedApplication(
        application=entry.application,
        report=AnalysisReport(
            application=report.application, dataset=report.dataset, findings=findings
        ),
        inventory=entry.inventory,
        attempts=entry.attempts,
    )


class DeltaEvaluator:
    """Incrementally re-evaluate a chart set against its prior state.

    One evaluator holds one :class:`~repro.core.MisconfigurationAnalyzer`
    across rounds, so the render cache and the LRU observation memo stay
    warm -- a chart reverted to earlier content costs a cache hit, not a
    recompute.  ``evaluate`` returns a plain :class:`EvaluationResult`
    byte-identical to a from-scratch sweep of the same chart set, with
    ``delta_stats`` recording what the round did.

    With ``store`` set, the evaluator is *durable*: each round is one
    content-addressed ``run_full_evaluation`` sweep over the store, and its
    classification is what that sweep observed.  Without it, rounds chain
    in memory (the evaluator's own last result), which is the
    near-zero-cost watch path.
    """

    def __init__(
        self,
        settings: AnalyzerSettings | None = None,
        store: ResultStore | str | Path | None = None,
        max_attempts: int = 3,
        retry_backoff: float = 0.05,
    ) -> None:
        base = settings or AnalyzerSettings()
        self.store = store if isinstance(store, (ResultStore, type(None))) else ResultStore(store)
        if self.store is not None and not base.store_dir:
            # Ship the store to the analyzer's observation memo too; the
            # settings fingerprint excludes store_dir, so result keys are
            # unaffected.
            base = replace(base, store_dir=str(self.store.root))
        self.settings = base
        self.analyzer = MisconfigurationAnalyzer(settings=base)
        self.max_attempts = max_attempts
        self.retry_backoff = retry_backoff
        #: Completed delta rounds (the in-memory analogue of a journal epoch).
        self.rounds = 0
        self._last: EvaluationResult | None = None
        #: Classifier fingerprints by application object identity.  A prior
        #: result's entries are the very objects classified in an earlier
        #: round, so their fingerprints never need re-hashing; pruned each
        #: round to the objects still alive (prior + current generation).
        self._fp_memo: dict[int, tuple[BuiltApplication, dict]] = {}

    def _fingerprints(self, app: BuiltApplication) -> dict:
        """The classifier fingerprints of ``app``, hashed once per object.

        Keyed by object identity with the object retained in the value, so
        a recycled ``id`` can never serve another chart's fingerprints.
        """
        memoized = self._fp_memo.get(id(app))
        if memoized is not None and memoized[0] is app:
            return memoized[1]
        fingerprints = classifier_fingerprints(app)
        self._fp_memo[id(app)] = (app, fingerprints)
        return fingerprints

    def _classify(
        self, app: BuiltApplication, prior: dict[str, AnalyzedApplication | None]
    ) -> tuple[str, str, tuple[str, ...]]:
        """``(unique_id, class, reasons)``: may ``app`` reuse its prior entry?"""
        unique_id = f"{app.dataset}/{app.name}"
        if unique_id not in prior:
            return unique_id, DELTA_ADDED, (NO_PRIOR_RECORD,)
        entry = prior[unique_id]
        if entry is None:
            return unique_id, DELTA_CHANGED, ("prior failure",)
        before = self._fingerprints(entry.application)
        now = self._fingerprints(app)
        moved = tuple(axis for axis in _AXES if before[axis] != now[axis])
        if not moved:
            return unique_id, DELTA_UNCHANGED, ()
        if "values" in moved or "templates" in moved:
            moved = moved[1:]  # they explain the aggregate, which leads
        return unique_id, DELTA_CHANGED, moved

    def evaluate(
        self,
        applications: list[BuiltApplication] | None = None,
        *,
        workers: int | None = None,
        chart_timeout: float | None = None,
        fault_plan: faults.FaultPlan | None = None,
        resume: bool = False,
    ) -> EvaluationResult:
        """Run one delta round; byte-identical to a from-scratch sweep.

        Reuses every unchanged chart's pre-M4* report and inventory,
        recomputes the rest (serial fault-isolated, or on the self-healing
        process pool when ``workers`` > 1), merges in catalogue order and
        re-runs the cluster-wide pass.  ``fault_plan`` arms deterministic
        chaos for the round; a chart that fails mid-delta lands on
        ``result.failed`` -- its stale prior entry is never served.
        ``resume`` only applies to the durable path (journal continuity).
        """
        applications = list(applications) if applications is not None else build_catalog()
        if self.store is not None:
            return self._evaluate_durable(
                applications,
                workers=workers,
                chart_timeout=chart_timeout,
                fault_plan=fault_plan,
                resume=resume,
            )
        prior: dict[str, AnalyzedApplication | None] = {}
        if self._last is not None:
            for entry in self._last.analyzed:
                prior[f"{entry.application.dataset}/{entry.application.name}"] = entry
            for failure in self._last.failed:
                # A quarantined chart has no reusable artefacts.
                prior.setdefault(failure.unique_id, None)
        charts = [self._classify(app, prior) for app in applications]
        current_ids = {unique_id for unique_id, _, _ in charts}
        removed = sorted(unique_id for unique_id in prior if unique_id not in current_ids)
        alive = {id(app) for app in applications}
        alive.update(id(entry.application) for entry in prior.values() if entry is not None)
        self._fp_memo = {key: value for key, value in self._fp_memo.items() if key in alive}

        reusable: dict[int, AnalyzedApplication] = {}
        pending: list[int] = []
        for index, (unique_id, classification, _) in enumerate(charts):
            if classification == DELTA_UNCHANGED:
                reusable[index] = prior[unique_id]
            else:
                pending.append(index)

        result = EvaluationResult()
        if not pending and not removed:
            # Pure no-op round: the chart set is identical and every input
            # held, so the prior *post*-M4* reports are valid wholesale --
            # the cluster-wide pass is a pure function of the unchanged
            # inventories.  Reuse the entries as-is (no strip, no re-pass);
            # later rounds never mutate them, they always strip into fresh
            # reports first.  This is what makes a no-op watch round
            # near-free (the ``DELTA_NOOP_RATIO_LIMIT`` gate).
            _split_outcomes([reusable[index] for index in range(len(applications))], result)
        else:
            # The cluster-wide context moved (some chart changed, appeared
            # or went away): reused entries must drop their prior M4*
            # findings and the pass re-runs over the merged inventories.
            reused = {index: _strip_cluster_wide(entry) for index, entry in reusable.items()}
            previous_plan = faults.armed_plan()
            if fault_plan is not None:
                faults.arm(fault_plan)
            shipped_plan = faults.armed_plan()
            try:
                outcomes = _sweep(
                    [applications[index] for index in pending],
                    self.analyzer,
                    workers=workers,
                    max_attempts=self.max_attempts,
                    chart_timeout=chart_timeout,
                    retry_backoff=self.retry_backoff,
                    fault_plan=shipped_plan,
                )
            finally:
                if fault_plan is not None:
                    faults.arm(previous_plan)
            fresh = iter(outcomes)
            merged = [
                reused[index] if index in reused else next(fresh)
                for index in range(len(applications))
            ]
            _split_outcomes(merged, result)
            apply_cluster_wide_pass(result)
        return self._finish(
            result,
            "memory",
            charts,
            removed,
            reused=len(reusable),
            recomputed=len(pending),
            prior_epoch=self.rounds,
            epoch=self.rounds + 1,
        )

    def _evaluate_durable(
        self,
        applications: list[BuiltApplication],
        workers: int | None,
        chart_timeout: float | None,
        fault_plan: faults.FaultPlan | None,
        resume: bool,
    ) -> EvaluationResult:
        # The content-addressed durable path does the reuse -- it is the
        # proven byte-identical machinery, and the store read re-verifies
        # every entry -- and reports why it recomputed each chart it did
        # not serve.
        result = run_full_evaluation(
            applications=applications,
            workers=workers,
            max_attempts=self.max_attempts,
            chart_timeout=chart_timeout,
            retry_backoff=self.retry_backoff,
            fault_plan=fault_plan,
            store=self.store,
            resume=resume,
            settings=self.settings,
        )
        stats = result.store_stats
        charts = []
        for app in applications:
            unique_id = f"{app.dataset}/{app.name}"
            reason = stats["recomputed"].get(unique_id)
            if reason is None:
                charts.append((unique_id, DELTA_UNCHANGED, ()))
            elif reason == NO_PRIOR_RECORD:
                charts.append((unique_id, DELTA_ADDED, (reason,)))
            else:
                charts.append((unique_id, DELTA_CHANGED, (reason,)))
        return self._finish(
            result,
            "store",
            charts,
            stats["removed"],
            reused=stats["loaded"],
            recomputed=stats["computed"] + stats["failed"],
            prior_epoch=stats["prior_epoch"],
            epoch=stats["journal_epoch"],
        )

    def _finish(
        self,
        result: EvaluationResult,
        mode: str,
        charts: list[tuple[str, str, tuple[str, ...]]],
        removed: list[str],
        reused: int,
        recomputed: int,
        prior_epoch: int,
        epoch: int,
    ) -> EvaluationResult:
        """Attach the round's ``delta_stats``; the result becomes the prior."""
        counts = {classification: 0 for classification in DELTA_CLASSES}
        for _, classification, _ in charts:
            counts[classification] += 1
        self.rounds += 1
        result.delta_stats = {
            "mode": mode,
            "round": self.rounds,
            "charts": len(charts),
            "classified": counts,
            # Every chart sent to the executor, added or changed.
            "changed": [
                unique_id
                for unique_id, classification, _ in charts
                if classification != DELTA_UNCHANGED
            ],
            "reasons": {unique_id: list(reasons) for unique_id, _, reasons in charts if reasons},
            "removed": list(removed),
            "reused": reused,
            "recomputed": recomputed,
            "prior_epoch": prior_epoch,
            "epoch": epoch,
        }
        self._last = result
        return result


# Watch mode ------------------------------------------------------------------


@dataclass
class WatchedChart:
    """An on-disk chart under watch, quacking like a ``BuiltApplication``.

    The evaluation pipeline only touches ``chart`` / ``behaviors`` /
    ``dataset`` / ``name`` / ``fingerprint()``, so a watched directory
    needs no synthetic catalogue spec.  Behaviours default to an empty
    registry: unregistered images behave faithfully, the right null
    hypothesis for charts we have never observed.  Plain picklable, so
    pooled delta rounds fan watched charts out like catalogue ones.
    """

    chart: Chart
    behaviors: BehaviorRegistry = field(default_factory=BehaviorRegistry)
    dataset: str = "watch"
    use_case: str = "watch"
    _fingerprint: str | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def name(self) -> str:
        """The chart name from ``Chart.yaml`` (or the directory name)."""
        return self.chart.name

    def fingerprint(self) -> str:
        """The chart's content fingerprint, hashed once and cached."""
        if self._fingerprint is None:
            self._fingerprint = self.chart.fingerprint()
        return self._fingerprint


def scan_chart_directory(
    root: Path | str, behaviors: BehaviorRegistry | None = None
) -> list[WatchedChart]:
    """Scan ``root`` for chart directories, sorted by name.

    ``root`` itself is the single chart when it holds a ``Chart.yaml``;
    otherwise every immediate subdirectory holding a ``Chart.yaml``, a
    ``values.yaml`` or a ``templates/`` directory is one chart.  Rescanned
    every watch round -- charts added to or removed from the directory
    show up as ``added`` / removed in the next delta round.
    """
    base = Path(root)
    registry = behaviors if behaviors is not None else BehaviorRegistry()
    if (base / "Chart.yaml").is_file():
        candidates = [base]
    elif base.is_dir():
        candidates = sorted(
            (
                child
                for child in base.iterdir()
                if child.is_dir()
                and (
                    (child / "Chart.yaml").is_file()
                    or (child / "values.yaml").is_file()
                    or (child / "templates").is_dir()
                )
            ),
            key=lambda child: child.name,
        )
    else:
        candidates = []
    return [
        WatchedChart(chart=Chart.from_directory(candidate), behaviors=registry)
        for candidate in candidates
    ]


def format_delta_counts(stats: dict) -> str:
    """A round's non-zero class counts in class order, then its removals."""
    counts = stats.get("classified", {})
    parts = [
        f"{counts[classification]} {classification}"
        for classification in DELTA_CLASSES
        if counts.get(classification)
    ]
    removed = stats.get("removed") or []
    if removed:
        parts.append(f"{len(removed)} removed")
    return ", ".join(parts) if parts else "no charts"


def format_watch_round(round_number: int, result: EvaluationResult) -> str:
    """One watch-round summary line: classifications, findings, failures."""
    stats = result.delta_stats or {}
    summary = result.summary
    line = (
        f"round {round_number}: {stats.get('charts', len(result.analyzed))} "
        f"chart{'s' if stats.get('charts', len(result.analyzed)) != 1 else ''} "
        f"({format_delta_counts(stats)}); {summary.total_misconfigurations} findings, "
        f"{summary.affected_applications} affected"
    )
    if result.failed:
        line += f", {len(result.failed)} quarantined"
    return line


def watch_directory(
    root: Path | str,
    rounds: int = 0,
    interval: float = 2.0,
    evaluator: DeltaEvaluator | None = None,
    behaviors: BehaviorRegistry | None = None,
    on_round=None,
    printer=print,
    sleep=time.sleep,
) -> EvaluationResult | None:
    """Re-verify a chart directory every ``interval`` seconds.

    Each round rescans ``root``, runs one delta round against the previous
    one (first round: everything ``added``) and prints one summary line.
    ``rounds`` bounds the loop (0 = until interrupted); Ctrl-C exits
    cleanly with the last result.  ``on_round(number, result)`` is the
    programmatic hook the tests and any CI wrapper drive.
    """
    evaluator = evaluator or DeltaEvaluator()
    completed = 0
    result: EvaluationResult | None = None
    try:
        while True:
            charts = scan_chart_directory(root, behaviors=behaviors)
            result = evaluator.evaluate(charts)
            completed += 1
            printer(format_watch_round(completed, result))
            if on_round is not None:
                on_round(completed, result)
            if rounds and completed >= rounds:
                break
            sleep(interval)
    except KeyboardInterrupt:
        pass
    return result
