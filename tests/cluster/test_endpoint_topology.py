"""The endpoint topology is built once per snapshot and reclassified per epoch.

``EndpointTopology`` is the policy-free half of the vectorized engine's
endpoint universe (endpoint ids, destination groups, resolved service
backends); ``EndpointUniverse`` is the cheap per-epoch classification over
it.  Two properties are pinned here:

* **Differential.** Over seeded policy add/remove sequences, the vectorized
  surfaces computed from a reused topology equal the naive per-attempt
  engine on every epoch.  The fleets carry the awkward cases: named-port and
  port-free policies, hostNetwork pods, loopback and duplicate
  ``(port, protocol)`` sockets, named ``targetPort`` services and
  service-only decision classes.
* **Invalidation.** A restart (fresh ``sockets`` list), an added or removed
  pod, changed binding backends and a flipped ``include_loopback`` rebuild
  the topology; a policy-only edit reuses it, also through ``Cluster``.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster import (
    Cluster,
    ClusterNetwork,
    EndpointController,
    NetworkPolicyEnforcer,
    Node,
    PolicyIndex,
    RunningPod,
    ServiceBinding,
    Socket,
)
from repro.k8s import (
    Container,
    ContainerPort,
    LabelSet,
    NetworkPolicy,
    NetworkPolicyPeer,
    NetworkPolicyPort,
    NetworkPolicyRule,
    ObjectMeta,
    Pod,
    PodSpec,
    Service,
    ServicePort,
    allow_ports_policy,
    deny_all_policy,
    equality_selector,
)

from tests.conftest import make_deployment, make_pod, make_service, naive_all_pairs

NAMESPACES = ("default", "prod")
NAMESPACE_LABELS = {
    namespace: {"kubernetes.io/metadata.name": namespace} for namespace in NAMESPACES
}
APPS = ("web", "db", "cache", "metrics")
NODE = Node(name="topology-node")


def _running(name, namespace, labels, sockets, named_ports, host_network=False):
    pod = Pod(
        metadata=ObjectMeta(name=name, namespace=namespace, labels=LabelSet(labels)),
        spec=PodSpec(
            containers=[
                Container(
                    name="main",
                    image="topology/app",
                    ports=[
                        ContainerPort(port, name=port_name)
                        for port_name, port in named_ports.items()
                    ],
                )
            ],
            host_network=host_network,
        ),
    )
    return RunningPod(
        pod=pod, ip=f"10.3.0.{len(name)}", node=NODE, sockets=sockets, app=labels["app"]
    )


def _sockets(rng: random.Random) -> list[Socket]:
    sockets = []
    for port in rng.sample((8080, 9090, 6060), rng.randint(1, 3)):
        interface = "127.0.0.1" if rng.random() < 0.25 else "0.0.0.0"
        sockets.append(Socket(port=port, interface=interface, container="main"))
        if rng.random() < 0.2:
            # A duplicate (port, protocol) socket on the other interface:
            # ``socket_on`` resolves to whichever came first.
            other = "0.0.0.0" if interface == "127.0.0.1" else "127.0.0.1"
            sockets.append(Socket(port=port, interface=other, container="main"))
    if rng.random() < 0.2:
        sockets.append(Socket(port=8080, protocol="UDP", container="main"))
    return sockets


def _fleet(seed: int, pod_count: int = 30):
    rng = random.Random(seed)
    pods = []
    for i in range(pod_count):
        labels = {"app": rng.choice(APPS)}
        if rng.random() < 0.3:
            labels["role"] = "client"
        pods.append(
            _running(
                f"pod-{i}",
                rng.choice(NAMESPACES),
                labels,
                _sockets(rng),
                rng.choice(({"http": 8080}, {"http": 9090}, {"http": 6060}, {})),
                host_network=rng.random() < 0.1,
            )
        )
    services = []
    for namespace in NAMESPACES:
        for app in APPS:
            # Named and numeric targets; 6060 is often loopback-bound, which
            # leaves its backends in service-only decision classes.
            services.append(
                Service(
                    metadata=ObjectMeta(name=app, namespace=namespace),
                    selector=equality_selector(app=app),
                    ports=[
                        ServicePort(port=80, target_port=rng.choice(("http", 8080)), name="a"),
                        ServicePort(port=60, target_port=6060, name="b"),
                    ],
                )
            )
    return pods, EndpointController().bind(services, pods)


def _random_policy(rng: random.Random, serial: int) -> NetworkPolicy:
    namespace = rng.choice(NAMESPACES)
    app = rng.choice(APPS)
    kind = rng.randrange(4)
    if kind == 0:
        return deny_all_policy(f"deny-{serial}", namespace=namespace)
    if kind == 1:
        return allow_ports_policy(
            f"ports-{serial}",
            equality_selector(app=app),
            [rng.choice((8080, 9090))],
            namespace=namespace,
            peer_selector=equality_selector(role="client") if rng.random() < 0.5 else None,
        )
    # Named-port (kind 2) and port-free (kind 3) ingress rules.
    ports = [NetworkPolicyPort(port="http")] if kind == 2 else []
    return NetworkPolicy(
        metadata=ObjectMeta(name=f"rule-{serial}", namespace=namespace),
        pod_selector=equality_selector(app=app),
        policy_types=["Ingress"],
        ingress=[
            NetworkPolicyRule(
                peers=[NetworkPolicyPeer(pod_selector=equality_selector(role="client"))],
                ports=ports,
            )
        ],
    )


def _compiled():
    return ClusterNetwork(enforcer=NetworkPolicyEnforcer(NAMESPACE_LABELS))


def _naive(policies, pods, bindings, include_loopback=False):
    """All-pairs surfaces from the naive per-attempt engine, the reference."""
    naive = ClusterNetwork(enforcer=NetworkPolicyEnforcer(NAMESPACE_LABELS, use_index=False))
    return {
        pod.ident: naive.reachable_endpoints(
            list(policies), pod, pods, bindings, include_loopback=include_loopback
        )
        for pod in pods
    }


class _Epochs:
    """A policy-epoch stream over one network and its epoch-keyed cache."""

    def __init__(self, network: ClusterNetwork) -> None:
        self.network = network
        self.cache: dict = {}
        self.epoch = 0

    def matrix(self, policies, pods, bindings, include_loopback=False):
        self.epoch += 1
        for key in [key for key in self.cache if key[0] != self.epoch]:
            del self.cache[key]
        index = PolicyIndex(policies, epoch=self.epoch)
        return index, self.network.reachability_matrix(
            index, pods, bindings, include_loopback=include_loopback,
            universe_cache=self.cache,
        )


# ---------------------------------------------------------------------------
# Differential: reclassified topology == naive engine on every epoch
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_policy_edit_sequences_match_naive_engine(seed):
    rng = random.Random(1000 + seed)
    pods, bindings = _fleet(seed)
    include_loopback = seed % 2 == 1
    compiled = _compiled()
    epochs = _Epochs(compiled)
    policies = [_random_policy(rng, serial) for serial in range(3)]
    first_entries = None
    for step in range(12):
        if policies and rng.random() < 0.4:
            policies.remove(rng.choice(policies))
        else:
            policies.append(_random_policy(rng, 100 + step))
        _, matrix = epochs.matrix(policies, pods, bindings, include_loopback)
        universe = matrix.endpoint_universe()
        if first_entries is None:
            first_entries = universe.pod_entries
        # Policy-only edits never rebuild the topology.
        assert universe.pod_entries is first_entries
        surfaces = matrix.all_pairs()
        assert surfaces == _naive(policies, pods, bindings, include_loopback)
        # Single-source queries on a fresh matrix (cold decision memo) agree
        # with the all-pairs answer.
        _, fresh = epochs.matrix(policies, pods, bindings, include_loopback)
        for source in rng.sample(pods, 5):
            assert fresh.endpoints_from(source) == surfaces[source.ident]


def test_fleet_exercises_the_awkward_cases():
    # Guards the differential test above against a generator drift that
    # would quietly drop one of the cases it exists to cover.
    pods, bindings = _fleet(0)
    sockets = [(pod, socket) for pod in pods for socket in pod.sockets]
    assert any(pod.host_network for pod in pods)
    assert any(socket.interface == "127.0.0.1" for _, socket in sockets)
    assert any(
        len({(s.port, s.protocol) for s in pod.sockets}) < len(pod.sockets) for pod in pods
    )
    assert any(
        port.target_port == "http" for b in bindings for port in b.service.ports
    )
    # Port-constrained per-app isolation: a loopback-bound 6060 target with
    # no network-visible 6060 socket in its app is a service-only class.
    index = PolicyIndex(
        [
            allow_ports_policy(f"{ns}-{app}", equality_selector(app=app), [8080], namespace=ns)
            for ns in NAMESPACES
            for app in APPS
        ]
    )
    compiled = _compiled()
    universe = compiled.reachability_matrix(index, pods, bindings).endpoint_universe()
    service_only = [c for c in universe.decision_classes.values() if not c.mask]
    assert service_only, "no service-only decision class in the fleet"


# ---------------------------------------------------------------------------
# Invalidation: what rebuilds the topology and what reuses it
# ---------------------------------------------------------------------------


class TestTopologyInvalidation:
    def _setup(self, include_loopback=False):
        pods, bindings = _fleet(7)
        compiled = _compiled()
        epochs = _Epochs(compiled)
        policies = [
            deny_all_policy("deny", namespace="default"),
            allow_ports_policy("web", equality_selector(app="web"), [8080]),
        ]
        _, matrix = epochs.matrix(policies, pods, bindings, include_loopback)
        return pods, bindings, policies, epochs, matrix.endpoint_universe()

    def _rebuilt(self, epochs, before, policies, pods, bindings, include_loopback=False):
        index, matrix = epochs.matrix(policies, pods, bindings, include_loopback)
        universe = matrix.endpoint_universe()
        assert universe.pod_entries is not before.pod_entries
        assert matrix.all_pairs() == _naive(index.policies, pods, bindings, include_loopback)
        return universe

    def test_policy_only_edit_reuses_topology(self):
        pods, bindings, policies, epochs, before = self._setup()
        policies = policies + [deny_all_policy("deny", namespace="prod")]
        _, matrix = epochs.matrix(policies, list(pods), bindings)
        after = matrix.endpoint_universe()
        assert after is not before
        assert after.pod_entries is before.pod_entries

    def test_restart_replacing_sockets_rebuilds(self):
        pods, bindings, policies, epochs, before = self._setup()
        target = next(pod for pod in pods if any(s.port == 8080 for s in pod.sockets))
        target.sockets = [Socket(port=7070, container="main")] + list(target.sockets)
        after = self._rebuilt(epochs, before, policies, pods, bindings)
        assert any(entry.port == 7070 for _, entry in after.pod_entries)

    def test_adding_and_removing_a_pod_rebuilds(self):
        pods, bindings, policies, epochs, before = self._setup()
        extra = _running(
            "extra", "default", {"app": "web"}, [Socket(port=8080)], {"http": 8080}
        )
        grown = self._rebuilt(epochs, before, policies, pods + [extra], bindings)
        self._rebuilt(epochs, grown, policies, pods[1:], bindings)

    def test_changed_binding_backends_rebuild(self):
        pods, bindings, policies, epochs, before = self._setup()
        bound = next(i for i, b in enumerate(bindings) if len(b.backends) > 1)
        replaced = list(bindings)
        replaced[bound] = ServiceBinding(
            service=bindings[bound].service, backends=bindings[bound].backends[1:]
        )
        after = self._rebuilt(epochs, before, policies, pods, replaced)
        # An in-place edit of a backend list is caught too.
        replaced[bound].backends.append(bindings[bound].backends[0])
        after = self._rebuilt(epochs, after, policies, pods, replaced)
        # So is a reordering that keeps the length.
        replaced[bound].backends.reverse()
        self._rebuilt(epochs, after, policies, pods, replaced)

    def test_flipping_include_loopback_rebuilds(self):
        pods, bindings, policies, epochs, before = self._setup()
        after = self._rebuilt(epochs, before, policies, pods, bindings, include_loopback=True)
        assert after.size > before.size
        self._rebuilt(epochs, after, policies, pods, bindings, include_loopback=False)


class TestClusterTopologyReuse:
    def _cluster(self):
        cluster = Cluster(name="topology", worker_count=1, seed=3)
        cluster.install(
            [
                make_deployment(replicas=3),
                make_service(target_port=8080),
                make_pod("attacker", labels={"role": "client"}),
            ],
            app_name="web",
        )
        return cluster

    def test_policy_edit_through_cluster_reuses_topology(self):
        cluster = self._cluster()
        u1 = cluster.reachability_matrix().endpoint_universe()
        epoch = cluster.policy_epoch
        cluster.api.apply(deny_all_policy("deny"))
        matrix = cluster.reachability_matrix()
        u2 = matrix.endpoint_universe()
        assert cluster.policy_epoch != epoch
        assert u2 is not u1
        assert u1.pod_entries is u2.pod_entries
        assert matrix.all_pairs() == naive_all_pairs(cluster)
        cluster.api.apply(
            allow_ports_policy(
                "allow-web", equality_selector(app="web"), [8080],
                peer_selector=equality_selector(role="client"),
            )
        )
        matrix = cluster.reachability_matrix()
        assert matrix.endpoint_universe().pod_entries is u1.pod_entries
        assert matrix.all_pairs() == naive_all_pairs(cluster)

    def test_restart_through_cluster_rebuilds_topology(self):
        cluster = self._cluster()
        u1 = cluster.reachability_matrix().endpoint_universe()
        cluster.restart_application("web")
        matrix = cluster.reachability_matrix()
        assert matrix.endpoint_universe().pod_entries is not u1.pod_entries
        assert matrix.all_pairs() == naive_all_pairs(cluster)

    def test_reset_drops_the_topology(self):
        cluster = self._cluster()
        cluster.reachability_matrix().endpoint_universe()
        cluster.reset()
        assert cluster.network._topology is None
