"""Micro-benchmarks for the connectivity hot path (compiled policy engine).

Times ``check_ingress``, ``reachable_endpoints`` and the batched
``ReachabilityMatrix`` at three cluster sizes, comparing the pre-PR naive
evaluator (kept as the reference path) against the compiled/cached engine,
and prints the before/after throughput table.  ``benchmarks/run.py`` runs
the same cases standalone and records them in ``BENCH_connectivity.json``.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest
from conftest import run_once
from connectivity_cases import (
    build_fleet,
    format_table,
    run_large_size,
    run_size,
)
from run import committed_case_failure

#: tens / hundreds / a thousand pods, as in the ISSUE acceptance criteria.
FLEET_SIZES = (30, 240, 1000)
COMMITTED = Path(__file__).resolve().parent.parent / "BENCH_connectivity.json"


def test_connectivity_engine_throughput(benchmark):
    per_size = {}
    for pod_count in FLEET_SIZES[:-1]:
        per_size[pod_count] = run_size(pod_count, repeats=3)
    # The headline case runs under the benchmark timer: the full cached
    # matrix sweep (compile + all queries) at the thousand-pod size.
    per_size[FLEET_SIZES[-1]] = run_once(benchmark, run_size, FLEET_SIZES[-1], repeats=3)

    print("\n" + "=" * 78)
    print("Connectivity engine - naive (pre-PR) vs compiled/cached, ns per operation")
    print("=" * 78)
    print(format_table(per_size))

    for pod_count, results in per_size.items():
        for case in ("check_ingress", "reachable_endpoints", "matrix_sources"):
            naive = results[f"{case}/naive"]
            compiled = results[f"{case}/compiled"]
            # The compiled engine must never lose to the naive scan, and at
            # the thousand-pod size the batched paths must win big (the
            # recorded target in BENCH_connectivity.json is >= 5x; assert a
            # conservative floor so timing noise cannot flake the suite).
            assert compiled <= naive * 1.1, f"{case} slower than naive at {pod_count} pods"
            if pod_count == FLEET_SIZES[-1] and case != "check_ingress":
                assert naive / compiled >= 2.5, (
                    f"{case} speedup collapsed at {pod_count} pods: "
                    f"{naive / compiled:.1f}x"
                )


@pytest.mark.slow
@pytest.mark.parametrize("pod_count", (10_000, 50_000))
def test_large_fleet_vectorized_surface(pod_count):
    """10k/50k-pod fleets: the bitset engine within 3x its committed time.

    Slow-marked: a 50k-pod fleet takes seconds to build.  With three
    repeats the median is a warm one.  The same sizes are recorded in
    ``BENCH_connectivity.json`` by ``run.py --full``.
    """
    results = run_large_size(pod_count, repeats=3)
    failure = committed_case_failure(
        f"matrix_sources/compiled/pods={pod_count}",
        results["matrix_sources/compiled"],
        COMMITTED,
        3.0,
    )
    assert failure is None, failure


@pytest.mark.slow
def test_large_fleet_vectorized_matches_naive():
    """Surfaces at the 10k-pod size against the naive per-attempt engine.

    A naive surface costs seconds per source at this size, so the attacker
    and two seeded sources are compared whole, entry for entry; every
    sampled source is also spot-checked on a seeded sample of destination
    sockets and service ports.
    """
    fleet = build_fleet(10_000)
    naive = fleet.naive_network()
    matrix = fleet.compiled_network().reachability_matrix(
        fleet.policies, fleet.pods, fleet.bindings
    )
    sources = fleet.pods[:-1:1250] + [fleet.attacker]
    rng = random.Random(10_000)
    for source in [fleet.attacker] + rng.sample(sources[:-1], 2):
        assert matrix.endpoints_from(source) == naive.reachable_endpoints(
            fleet.policies, source, fleet.pods, fleet.bindings
        )
    for source in sources:
        surface = {
            (e.kind, e.namespace, e.name, e.port, e.protocol)
            for e in matrix.endpoints_from(source)
        }
        for destination in rng.sample(fleet.pods, 50):
            for socket in destination.sockets:
                key = ("pod", *destination.ident, socket.port, socket.protocol)
                expected = (
                    destination.ident != source.ident
                    and socket.reachable_from_network
                    and naive.connect_pod_to_pod(
                        fleet.policies, source, destination, socket.port, socket.protocol
                    ).success
                )
                assert (key in surface) == expected, (source.ident, key)
        for binding in rng.sample(fleet.bindings, 20):
            for port in binding.service.ports:
                key = ("service", binding.service.namespace, binding.service.name,
                       port.port, port.protocol)
                expected = naive.connect_pod_to_service(
                    fleet.policies, source, binding, port.port, port.protocol
                ).success
                assert (key in surface) == expected, (source.ident, key)


def test_matrix_matches_naive_surface_on_bench_fleet():
    """The bench fleet itself double-checks compiled == naive results."""
    fleet = build_fleet(240)
    naive = fleet.naive_network()
    compiled = fleet.compiled_network()
    matrix = compiled.reachability_matrix(fleet.policies, fleet.pods, fleet.bindings)
    for source in fleet.pods[::40] + [fleet.attacker]:
        expected = naive.reachable_endpoints(
            fleet.policies, source, fleet.pods, fleet.bindings
        )
        assert matrix.endpoints_from(source) == expected
        assert (
            compiled.reachable_endpoints(fleet.policies, source, fleet.pods, fleet.bindings)
            == expected
        )
