"""Endpoint controller: binds services to the pods they select.

The controller reproduces the part of Kubernetes that the M4/M5
misconfiguration families abuse: endpoints are derived purely from label
selectors, with no check that the selected pods are related to the service
or that the target ports are actually open.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..k8s import EndpointAddress, Endpoints, ObjectMeta, Service
from .runtime import RunningPod


@dataclass
class ServiceBinding:
    """A service together with the running pods it currently selects."""

    service: Service
    backends: list[RunningPod] = field(default_factory=list)

    @property
    def has_backends(self) -> bool:
        return bool(self.backends)

    def resolved_target_ports(self) -> dict[int, list[int]]:
        """Map each service port to the concrete target port per backend.

        Named target ports are resolved against each backend's declared
        container ports; unresolvable names are skipped (Kubernetes marks the
        endpoint as not ready in that case).
        """
        resolution: dict[int, list[int]] = {}
        for service_port in self.service.ports:
            targets: list[int] = []
            raw_target = service_port.resolved_target()
            for backend in self.backends:
                target = backend.target_port(raw_target)
                if target is not None:
                    targets.append(target)
            resolution[service_port.port] = targets
        return resolution

    def to_endpoints(self) -> Endpoints:
        return Endpoints(
            metadata=ObjectMeta(
                name=self.service.name,
                namespace=self.service.namespace,
                labels=self.service.labels,
            ),
            addresses=[
                EndpointAddress(ip=backend.ip, pod_name=backend.name, node_name=backend.node.name)
                for backend in self.backends
            ],
            ports=list(self.service.ports),
        )


class EndpointController:
    """Computes service-to-pod bindings from selectors."""

    def bind(self, services: list[Service], pods: list[RunningPod]) -> list[ServiceBinding]:
        """Compute a binding for every service."""
        bindings: list[ServiceBinding] = []
        for service in services:
            backends: list[RunningPod] = []
            if service.has_selector:
                backends = [
                    pod
                    for pod in pods
                    if pod.namespace == service.namespace
                    and service.selector.matches(pod.labels)
                ]
            bindings.append(ServiceBinding(service=service, backends=backends))
        return bindings

    def binding_for(
        self, service: Service, pods: list[RunningPod]
    ) -> ServiceBinding:
        return self.bind([service], pods)[0]

    def services_without_backends(
        self, services: list[Service], pods: list[RunningPod]
    ) -> list[Service]:
        """Services whose selector matches no running pod (M5D at runtime)."""
        return [
            binding.service
            for binding in self.bind(services, pods)
            if binding.service.has_selector and not binding.has_backends
        ]
