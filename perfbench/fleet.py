"""Seeded synthetic fleet for the ``blast-radius`` workload.

The fleet has the shape of the connectivity benchmarks' fleets: about ten
pods per app, four namespaces, a default-deny ingress policy in every
namespace and an allow-port policy on half the apps.  Half of those allow
policies admit any peer and half admit only pods labelled ``role=client``,
and a quarter of the apps carry that label, so a source's blast radius is
neither empty nor the whole fleet.  Everything that varies -- app
placement, tiers, extra sockets, which apps get a policy, the policy edits
-- is drawn from one ``random.Random(seed)``.

Pods are built directly from runtime primitives (no cluster install), and
service bindings are grouped by app: every pod of an app shares one label
set, so matching each service against its app's first pod gives the same
backend lists, in the same order, as scanning every pod per service.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.cluster import (
    ClusterNetwork,
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
    ObjectMeta,
    Pod,
    PodSpec,
    Service,
    ServicePort,
    allow_ports_policy,
    deny_all_policy,
    equality_selector,
)

NAMESPACES = ("default", "prod", "staging", "infra")
PODS_PER_APP = 10


@dataclass
class Fleet:
    """One cluster state: pods, service bindings and the live policy list.

    ``epoch`` moves on every policy edit; it keys the compiled
    :class:`PolicyIndex` and the shared endpoint-universe cache exactly as
    ``Cluster.policy_epoch`` does for the cluster facade.
    """

    pods: list[RunningPod]
    bindings: list[ServiceBinding]
    policies: list[NetworkPolicy]
    namespace_labels: dict[str, dict[str, str]]
    app_namespace: dict[str, str]
    rng: random.Random
    epoch: int = 0
    edits: int = 0
    universe_cache: dict = field(default_factory=dict)
    index: PolicyIndex | None = None

    def compiled_network(self) -> ClusterNetwork:
        return ClusterNetwork(enforcer=NetworkPolicyEnforcer(self.namespace_labels))

    def naive_network(self) -> ClusterNetwork:
        """The uncompiled per-attempt reference engine."""
        return ClusterNetwork(
            enforcer=NetworkPolicyEnforcer(self.namespace_labels, use_index=False)
        )

    def edit_policies(self) -> None:
        """Alternately add an allow policy to a random app and remove a random one.

        Alternating keeps the policy count steady over a run.  Default-deny
        policies are never removed, so every namespace stays isolated.  The
        epoch moves and the compiled index is dropped; the next query
        compiles a new one.
        """
        self.edits += 1
        if self.edits % 2 == 0:
            allow = [p for p in self.policies if p.metadata.name.startswith("allow-")]
            self.policies.remove(self.rng.choice(allow))
        else:
            app = self.rng.choice(sorted(self.app_namespace))
            self.policies.append(
                allow_ports_policy(
                    f"allow-{app}-edit{self.edits}",
                    equality_selector(app=app),
                    [self.rng.choice((8080, 9090))],
                    namespace=self.app_namespace[app],
                    peer_selector=None
                    if self.rng.random() < 0.5
                    else equality_selector(role="client"),
                )
            )
        self.epoch += 1
        self.index = None
        for key in [key for key in self.universe_cache if key[0] != self.epoch]:
            del self.universe_cache[key]

    def current_index(self) -> PolicyIndex:
        """The compiled policy index of the current epoch (built on demand)."""
        if self.index is None:
            self.index = PolicyIndex(self.policies, epoch=self.epoch)
        return self.index


def _running_pod(
    name: str, namespace: str, labels: dict[str, str], node: Node, ip: str,
    sockets: list[Socket], app: str,
) -> RunningPod:
    pod = Pod(
        metadata=ObjectMeta(name=name, namespace=namespace, labels=LabelSet(labels)),
        spec=PodSpec(
            containers=[
                Container(
                    name="main",
                    image="bench/app",
                    ports=[ContainerPort(8080, name="http")],
                )
            ],
        ),
    )
    return RunningPod(pod=pod, ip=ip, node=node, sockets=sockets, app=app)


def build_fleet(pod_count: int, seed: int) -> Fleet:
    """A fleet of ``pod_count`` pods drawn from ``seed``."""
    rng = random.Random(seed)
    node = Node(name="bench-node")
    app_count = max(pod_count // PODS_PER_APP, 4)
    namespace_labels = {
        namespace: {"kubernetes.io/metadata.name": namespace} for namespace in NAMESPACES
    }
    app_labels: dict[str, dict[str, str]] = {}
    app_namespace: dict[str, str] = {}
    services: list[Service] = []
    policies = [deny_all_policy(f"deny-all-{ns}", namespace=ns) for ns in NAMESPACES]
    for app_id in range(app_count):
        app = f"app-{app_id}"
        namespace = rng.choice(NAMESPACES)
        labels = {"app": app, "tier": rng.choice(("frontend", "backend"))}
        if rng.random() < 0.25:
            labels["role"] = "client"
        app_labels[app] = labels
        app_namespace[app] = namespace
        services.append(
            Service(
                metadata=ObjectMeta(name=app, namespace=namespace),
                selector=equality_selector(app=app),
                ports=[ServicePort(port=80, target_port=8080, name="http")],
            )
        )
    for app in rng.sample(sorted(app_namespace), app_count // 2):
        policies.append(
            allow_ports_policy(
                f"allow-{app}",
                equality_selector(app=app),
                [8080],
                namespace=app_namespace[app],
                peer_selector=None if rng.random() < 0.5 else equality_selector(role="client"),
            )
        )

    by_app: dict[str, list[RunningPod]] = {app: [] for app in app_namespace}
    pods: list[RunningPod] = []
    for pod_id in range(pod_count):
        app = f"app-{pod_id % app_count}"
        sockets = [Socket(port=8080, protocol="TCP", container="main", process="srv")]
        if rng.random() < 1 / 3:
            sockets.append(Socket(port=9090, protocol="TCP", container="main", process="metrics"))
        if rng.random() < 1 / 7:
            sockets.append(
                Socket(
                    port=6060, protocol="TCP", interface="127.0.0.1",
                    container="main", process="debug",
                )
            )
        pod = _running_pod(
            f"{app}-{pod_id // app_count}",
            app_namespace[app],
            app_labels[app],
            node,
            f"10.{pod_id // 62500}.{pod_id // 250 % 250}.{pod_id % 250 + 1}",
            sockets,
            app,
        )
        pods.append(pod)
        by_app[app].append(pod)
    bindings = [
        ServiceBinding(service=service, backends=list(by_app[service.name]))
        for service in services
    ]
    return Fleet(
        pods=pods,
        bindings=bindings,
        policies=policies,
        namespace_labels=namespace_labels,
        app_namespace=app_namespace,
        rng=rng,
    )
