"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.cluster import (
    BehaviorRegistry,
    Cluster,
    ClusterNetwork,
    ContainerBehavior,
    ListenSpec,
    NetworkPolicyEnforcer,
)
from repro.core import AnalyzerSettings, MisconfigurationAnalyzer
from repro.datasets import InjectionPlan, build_application
from repro.helm import Chart, render_chart
from repro.k8s import (
    Container,
    ContainerPort,
    Deployment,
    LabelSet,
    ObjectMeta,
    Pod,
    PodSpec,
    PodTemplateSpec,
    Service,
    ServicePort,
    equality_selector,
)


def make_deployment(
    name: str = "web",
    labels: dict | None = None,
    ports: list[int] | None = None,
    replicas: int = 1,
    image: str = "example/web",
    host_network: bool = False,
    namespace: str = "default",
) -> Deployment:
    """Build a minimal valid Deployment for tests."""
    labels = labels or {"app": name}
    return Deployment(
        metadata=ObjectMeta(name=name, namespace=namespace, labels=LabelSet(labels)),
        replicas=replicas,
        selector=equality_selector(**labels),
        template=PodTemplateSpec(
            metadata=ObjectMeta(name=name, namespace=namespace, labels=LabelSet(labels)),
            spec=PodSpec(
                containers=[
                    Container(
                        name=name,
                        image=image,
                        ports=[ContainerPort(port) for port in (ports or [8080])],
                    )
                ],
                host_network=host_network,
            ),
        ),
    )


def make_service(
    name: str = "web",
    selector: dict | None = None,
    port: int = 80,
    target_port: int | str | None = 8080,
    headless: bool = False,
    namespace: str = "default",
) -> Service:
    """Build a minimal valid Service for tests."""
    return Service(
        metadata=ObjectMeta(name=name, namespace=namespace),
        selector=equality_selector(**(selector or {"app": "web"})),
        ports=[ServicePort(port=port, target_port=target_port, name="main")],
        cluster_ip="None" if headless else "",
    )


def make_pod(
    name: str = "attacker",
    labels: dict | None = None,
    ports: list[int] | None = None,
    image: str = "example/pod",
    namespace: str = "default",
) -> Pod:
    """Build a minimal valid Pod for tests."""
    return Pod(
        metadata=ObjectMeta(name=name, namespace=namespace, labels=LabelSet(labels or {"app": name})),
        spec=PodSpec(
            containers=[
                Container(name=name, image=image, ports=[ContainerPort(p) for p in (ports or [])])
            ]
        ),
    )


def naive_all_pairs(cluster: Cluster, include_loopback: bool = False) -> dict:
    """Every pod's surface in ``cluster`` from the naive per-attempt engine.

    The differential reference for the compiled matrix: a fresh network
    with the compiled index disabled, seeing the cluster's namespace labels.
    """
    naive = ClusterNetwork(
        enforcer=NetworkPolicyEnforcer(
            {
                namespace: cluster.enforcer.namespace_labels(namespace)
                for namespace in cluster.api.store.namespaces()
            },
            use_index=False,
        )
    )
    pods = cluster.running_pods()
    policies = cluster.network_policies()
    bindings = cluster.service_bindings()
    return {
        pod.ident: naive.reachable_endpoints(
            policies, pod, pods, bindings, include_loopback=include_loopback
        )
        for pod in pods
    }


@pytest.fixture
def web_deployment() -> Deployment:
    return make_deployment()


@pytest.fixture
def web_service() -> Service:
    return make_service()


@pytest.fixture
def small_cluster() -> Cluster:
    """An empty simulated cluster with two worker nodes."""
    return Cluster(name="test", worker_count=2, seed=7)


@pytest.fixture
def deployed_cluster() -> Cluster:
    """A cluster with a web deployment, its service, and an attacker pod."""
    registry = BehaviorRegistry()
    registry.register(
        "example/web",
        ContainerBehavior(
            listen_on_declared=True,
            extra_listens=[ListenSpec(port=9999)],
        ),
    )
    cluster = Cluster(name="test", worker_count=2, behaviors=registry, seed=7)
    cluster.install(
        [make_deployment(replicas=2), make_service(), make_pod("attacker")],
        app_name="web",
    )
    return cluster


@pytest.fixture
def analyzer() -> MisconfigurationAnalyzer:
    return MisconfigurationAnalyzer(settings=AnalyzerSettings(worker_count=2, seed=7))


@pytest.fixture
def simple_chart() -> Chart:
    """A small Helm chart with one deployment and one service."""
    values = "replicas: 1\nimage: example/web\nservice:\n  port: 80\n  targetPort: 8080\n"
    deployment = """
apiVersion: apps/v1
kind: Deployment
metadata:
  name: {{ .Release.Name }}-web
  labels:
    app: {{ .Chart.Name }}
spec:
  replicas: {{ .Values.replicas }}
  selector:
    matchLabels:
      app: {{ .Chart.Name }}
  template:
    metadata:
      labels:
        app: {{ .Chart.Name }}
    spec:
      containers:
        - name: web
          image: {{ .Values.image | quote }}
          ports:
            - containerPort: {{ .Values.service.targetPort }}
"""
    service = """
apiVersion: v1
kind: Service
metadata:
  name: {{ .Release.Name }}-web
spec:
  selector:
    app: {{ .Chart.Name }}
  ports:
    - name: http
      port: {{ .Values.service.port }}
      targetPort: {{ .Values.service.targetPort }}
"""
    return Chart.from_files(
        "sample",
        values_yaml=values,
        templates={"deployment.yaml": deployment, "service.yaml": service},
    )


@pytest.fixture
def misconfigured_application():
    """A built application exhibiting one finding of almost every class."""
    plan = InjectionPlan(
        m1=2, m2=1, m3=1, m4a=1, m4b=1, m4c=1, m5a=1, m5b=1, m5c=1, m5d=1, m6=True, m7=1
    )
    return build_application("fixture-app", "Test Org", plan, archetype="microservices",
                             dataset="fixtures")


@pytest.fixture
def clean_application():
    """A built application with no misconfigurations at all."""
    plan = InjectionPlan()
    return build_application("clean-app", "Test Org", plan, archetype="web", dataset="fixtures")


@pytest.fixture
def rendered_simple_chart(simple_chart):
    return render_chart(simple_chart, release_name="rel")
