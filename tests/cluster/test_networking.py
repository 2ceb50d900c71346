"""Unit tests for the CNI enforcement, endpoint controller, DNS, connectivity
engine and the cluster facade."""

import pytest

from repro.cluster import (
    BehaviorRegistry,
    Cluster,
    ClusterError,
    ContainerBehavior,
    EndpointController,
    ListenSpec,
    NetworkPolicyEnforcer,
    Node,
    RunningPod,
    behavior_with_dynamic_ports,
)
from repro.k8s import (
    ContainerPort,
    NetworkPolicyPeer,
    NetworkPolicyPort,
    NetworkPolicyRule,
    Selector,
    allow_ports_policy,
    deny_all_policy,
    equality_selector,
)
from tests.conftest import make_deployment, make_pod, make_service


@pytest.fixture
def basic_cluster():
    """A cluster with a two-replica web deployment, a service, an attacker pod."""
    registry = BehaviorRegistry()
    registry.register(
        "example/web",
        ContainerBehavior(listen_on_declared=True, extra_listens=[ListenSpec(port=9999)]),
    )
    cluster = Cluster(name="net-test", worker_count=2, behaviors=registry, seed=11)
    cluster.install(
        [make_deployment(replicas=2), make_service(), make_pod("attacker")], app_name="web"
    )
    return cluster


class TestEndpointController:
    def test_binding_matches_selector(self, basic_cluster):
        controller = EndpointController()
        bindings = controller.bind(basic_cluster.services(), basic_cluster.running_pods())
        web_binding = next(b for b in bindings if b.service.name == "web")
        assert {backend.name for backend in web_binding.backends} == {"web-0", "web-1"}

    def test_services_without_backends(self, basic_cluster):
        controller = EndpointController()
        orphan = make_service("orphan", selector={"app": "nothing"})
        basic_cluster.api.apply(orphan)
        missing = controller.services_without_backends(
            basic_cluster.services(), basic_cluster.running_pods()
        )
        assert [service.name for service in missing] == ["orphan"]

    def test_resolved_target_ports(self, basic_cluster):
        binding = basic_cluster.binding_for("web")
        assert binding.resolved_target_ports() == {80: [8080, 8080]}

    @pytest.mark.parametrize(
        ("raw_target", "expected"),
        [(9090, 9090), ("http", 8080), ("metrics", None)],
        ids=["int", "named", "unresolved-name"],
    )
    def test_backend_target_port(self, raw_target, expected):
        pod = make_pod("web")
        pod.spec.containers[0].ports = [ContainerPort(8080, name="http")]
        backend = RunningPod(pod=pod, ip="10.0.0.5", node=Node(name="node-1"))
        assert backend.target_port(raw_target) == expected

    def test_endpoints_object_generation(self, basic_cluster):
        binding = basic_cluster.binding_for("web")
        endpoints = binding.to_endpoints()
        assert endpoints.name == "web"
        assert len(endpoints.addresses) == 2


class TestClusterDNS:
    def test_cluster_ip_service_resolution(self, basic_cluster):
        basic_cluster.reconcile()
        record = basic_cluster.dns.resolve("web")
        assert record.resolvable
        assert record.fqdn == "web.default.svc.cluster.local"
        assert not record.headless

    def test_headless_service_resolves_to_pod_ips(self, basic_cluster):
        headless = make_service("web-headless", headless=True)
        basic_cluster.api.apply(headless)
        basic_cluster.reconcile()
        record = basic_cluster.dns.resolve("web-headless")
        assert record.headless
        assert len(record.addresses) == 2

    def test_unknown_service_is_not_resolvable(self, basic_cluster):
        basic_cluster.reconcile()
        assert not basic_cluster.dns.resolve("missing").resolvable

    def test_namespaced_name_resolution(self, basic_cluster):
        basic_cluster.reconcile()
        assert basic_cluster.dns.resolve("web.default.svc.cluster.local").resolvable


class TestPolicyEnforcement:
    def test_default_allow_without_policies(self, basic_cluster):
        attacker = basic_cluster.running_pod("attacker")
        web = basic_cluster.running_pod("web-0")
        assert basic_cluster.connect(attacker, web, 8080).success

    def test_deny_all_blocks_traffic(self, basic_cluster):
        basic_cluster.api.apply(deny_all_policy("deny"))
        attacker = basic_cluster.running_pod("attacker")
        web = basic_cluster.running_pod("web-0")
        attempt = basic_cluster.connect(attacker, web, 8080)
        assert not attempt.success
        assert "denied" in attempt.reason

    def test_allow_specific_port(self, basic_cluster):
        basic_cluster.api.apply(allow_ports_policy("allow-http", equality_selector(app="web"), [8080]))
        attacker = basic_cluster.running_pod("attacker")
        web = basic_cluster.running_pod("web-0")
        assert basic_cluster.connect(attacker, web, 8080).success
        assert not basic_cluster.connect(attacker, web, 9999).success

    def test_connection_refused_when_not_listening(self, basic_cluster):
        attacker = basic_cluster.running_pod("attacker")
        web = basic_cluster.running_pod("web-0")
        attempt = basic_cluster.connect(attacker, web, 5555)
        assert not attempt.success
        assert "refused" in attempt.reason

    def test_host_network_pod_escapes_policies(self):
        registry = BehaviorRegistry()
        cluster = Cluster(name="host-net", worker_count=1, behaviors=registry, seed=3)
        deployment = make_deployment("agent", ports=[9100], host_network=True,
                                     labels={"app": "agent"})
        cluster.install([deployment, make_pod("attacker")], app_name="agent")
        cluster.api.apply(deny_all_policy("deny"))
        attacker = cluster.running_pod("attacker")
        agent = cluster.running_pod("agent-0")
        attempt = cluster.connect(attacker, agent, 9100)
        assert attempt.success
        assert "host network" in attempt.reason

    def test_enforcer_isolated_and_unprotected_pods(self, basic_cluster):
        policies = [allow_ports_policy("allow", equality_selector(app="web"), [8080])]
        enforcer: NetworkPolicyEnforcer = basic_cluster.enforcer
        pods = basic_cluster.running_pods()
        isolated = enforcer.isolated_pods(policies, pods)
        unprotected = enforcer.unprotected_pods(policies, pods)
        assert {pod.name for pod in isolated} == {"web-0", "web-1"}
        assert "attacker" in {pod.name for pod in unprotected}

    def test_named_port_in_policy(self, basic_cluster):
        rule = NetworkPolicyRule(peers=[NetworkPolicyPeer(pod_selector=Selector())],
                                 ports=[NetworkPolicyPort(port="main")])
        policy = deny_all_policy("allow-named")
        policy.pod_selector = equality_selector(app="web")
        policy.ingress = [rule]
        basic_cluster.api.apply(policy)
        attacker = basic_cluster.running_pod("attacker")
        web = basic_cluster.running_pod("web-0")
        # The declared port 8080 is named "main"? It is not, so the named port
        # cannot be resolved and the connection is denied.
        assert not basic_cluster.connect(attacker, web, 8080).success


class TestServiceConnectivity:
    def test_connect_through_service(self, basic_cluster):
        attacker = basic_cluster.running_pod("attacker")
        attempt = basic_cluster.connect(attacker, "web", 80)
        assert attempt.success
        assert attempt.via_service == "web"
        assert attempt.backend_pod.startswith("web-")

    def test_service_port_not_exposed(self, basic_cluster):
        attacker = basic_cluster.running_pod("attacker")
        assert not basic_cluster.connect(attacker, "web", 8443).success

    def test_service_without_backends_fails(self, basic_cluster):
        basic_cluster.api.apply(make_service("orphan", selector={"app": "none"}))
        attacker = basic_cluster.running_pod("attacker")
        attempt = basic_cluster.connect(attacker, "orphan", 80)
        assert not attempt.success
        assert "no endpoints" in attempt.reason

    def test_backends_receiving_traffic_includes_impersonator(self, basic_cluster):
        impersonator = make_pod("impersonator", labels={"app": "web"}, ports=[8080],
                                image="example/web")
        basic_cluster.install([impersonator], app_name="impersonation")
        attacker = basic_cluster.running_pod("attacker")
        binding = basic_cluster.binding_for("web")
        receiving = basic_cluster.network.service_backends_receiving(
            basic_cluster.network_policies(), attacker, binding, 80
        )
        assert "impersonator" in {pod.name for pod in receiving}

    def test_reachable_endpoints_surface(self, basic_cluster):
        attacker = basic_cluster.running_pod("attacker")
        endpoints = basic_cluster.reachable_from(attacker)
        pod_ports = {(e.name, e.port) for e in endpoints if e.kind == "pod"}
        service_ports = {(e.name, e.port) for e in endpoints if e.kind == "service"}
        assert ("web-0", 8080) in pod_ports
        assert ("web-0", 9999) in pod_ports
        assert ("web", 80) in service_ports

    def test_reachable_endpoints_respect_policies(self, basic_cluster):
        basic_cluster.api.apply(allow_ports_policy("allow", equality_selector(app="web"), [8080]))
        attacker = basic_cluster.running_pod("attacker")
        endpoints = basic_cluster.reachable_from(attacker)
        pod_ports = {(e.name, e.port) for e in endpoints if e.kind == "pod"}
        assert ("web-0", 8080) in pod_ports
        assert ("web-0", 9999) not in pod_ports


class TestClusterLifecycle:
    def test_install_requires_app_name_for_plain_objects(self, small_cluster):
        with pytest.raises(ClusterError):
            small_cluster.install([make_pod("a")])

    def test_double_install_rejected(self, small_cluster):
        small_cluster.install([make_pod("a")], app_name="app")
        with pytest.raises(ClusterError):
            small_cluster.install([make_pod("b")], app_name="app")

    def test_uninstall_removes_pods_and_objects(self, basic_cluster):
        basic_cluster.uninstall("web")
        assert basic_cluster.running_pods() == []
        assert basic_cluster.services() == []

    def test_uninstall_unknown_app_raises(self, small_cluster):
        with pytest.raises(ClusterError):
            small_cluster.uninstall("ghost")

    def test_daemonset_expands_to_one_pod_per_worker(self, small_cluster):
        from repro.k8s import DaemonSet

        deployment = make_deployment("agent", labels={"app": "agent"})
        daemonset = DaemonSet(
            metadata=deployment.metadata,
            selector=deployment.selector,
            template=deployment.template,
        )
        small_cluster.install([daemonset], app_name="agents")
        assert len(small_cluster.running_pods(app_name="agents")) == 2

    def test_restart_application_changes_dynamic_ports(self):
        registry = BehaviorRegistry()
        registry.register("example/web", behavior_with_dynamic_ports(1))
        cluster = Cluster(name="restart", worker_count=1, behaviors=registry, seed=5)
        cluster.install([make_deployment()], app_name="web")
        before = cluster.running_pod("web-0").listening_ports() - {8080}
        cluster.restart_application("web")
        after = cluster.running_pod("web-0").listening_ports() - {8080}
        assert before != after

    def test_host_port_baseline_contains_node_services(self, small_cluster):
        baseline = small_cluster.host_port_baseline()
        assert 22 in baseline
        assert 10250 in baseline

    def test_owner_is_recorded_on_running_pods(self, basic_cluster):
        pod = basic_cluster.running_pod("web-0")
        assert pod.owner == "Deployment/default/web"

    def test_running_pods_filter_by_app(self, basic_cluster):
        assert {p.name for p in basic_cluster.running_pods(app_name="web")} == {
            "web-0", "web-1", "attacker",
        }
