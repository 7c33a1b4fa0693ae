"""Cluster wiring: the four-machine OpenWhisk testbed in one object.

:class:`FaasCluster` assembles the experiment topology of §7: a control
plane (controller + bus + registry), one or more compute nodes (SEUSS
OS or Linux), and the external HTTP server.  The two constructors
mirror the paper's two deployments — ``with_seuss_node`` routes
invocations through the shim process, ``with_linux_node`` talks to the
invoker directly.

Resilience is opt-in per cluster: passing a fault plan, a retry policy,
or a breaker policy wires up the fault injector (shared by the bus and
every node), per-node :class:`~repro.faas.health.NodeHealth` circuit
breakers, and the routing controller retry loop.  A cluster built
without any of them is bit-identical to the historical single-node
wiring — no injector, no router, no extra events.
"""

from __future__ import annotations

from typing import Generator, Iterable, List, Optional, Union

from repro.costs import CostBook, DEFAULT_COSTS
from repro.faas.controller import Controller, RetryPolicy
from repro.faas.health import (
    BreakerPolicy,
    CircuitBreaker,
    NodeHealth,
    NodeRouter,
)
from repro.faas.httpserver import ExternalHttpServer
from repro.faas.messagebus import MessageBus
from repro.faas.overload import OverloadConfig, OverloadControl
from repro.faas.records import FunctionSpec, InvocationResult
from repro.faas.registry import FunctionRegistry
from repro.faults import FaultInjector, FaultPlan
from repro.seuss.config import SeussConfig
from repro.seuss.node import SeussNode
from repro.seuss.shim import ShimProcess
from repro.sim import Environment, Process


class FaasCluster:
    """A complete FaaS deployment around one or more compute nodes."""

    def __init__(
        self,
        env: Environment,
        node,
        costs: CostBook = DEFAULT_COSTS,
        shim: Optional[ShimProcess] = None,
        functions: Iterable[FunctionSpec] = (),
        faults: Optional[Union[FaultPlan, FaultInjector]] = None,
        retries: Optional[RetryPolicy] = None,
        breaker: Optional[BreakerPolicy] = None,
        overload: Optional[OverloadConfig] = None,
        shards: int = 1,
        routing: Optional[str] = None,
    ) -> None:
        self.env = env
        self.node = node
        self.costs = costs
        self.registry = FunctionRegistry(functions)
        if isinstance(faults, FaultPlan):
            faults = FaultInjector(faults, env)
        self.fault_injector: Optional[FaultInjector] = faults
        self.bus = MessageBus(env, injector=self.fault_injector)
        self.shim = shim
        self.external_server = ExternalHttpServer(env)
        # The overload control plane is a resilience knob like the rest:
        # a disabled (or omitted) config wires nothing.
        if overload is not None and not overload.enabled:
            overload = None
        self.overload: Optional[OverloadControl] = None
        self.health: List[NodeHealth] = []
        self.router: Optional[NodeRouter] = None
        self.breaker_policy = breaker or BreakerPolicy()
        if shards > 1 or routing is not None:
            # Sharded control plane: every shard owns its own bus, shim
            # connection, breakers, admission queues and retry budget.
            # Imported lazily — the default wiring must not pull the
            # distributed package into its import graph.
            from repro.faas.sharding import ShardedControlPlane

            self.control_plane: Optional[ShardedControlPlane] = (
                ShardedControlPlane(
                    env,
                    [node],
                    costs=costs,
                    shards=shards,
                    routing=routing or "round_robin",
                    shim_factory=(
                        (lambda _sid: ShimProcess(env, costs.platform))
                        if shim is not None
                        else None
                    ),
                    retries=retries,
                    breaker=breaker,
                    overload=overload,
                    injector=self.fault_injector,
                )
            )
            if self.fault_injector is not None and hasattr(node, "fault_injector"):
                node.fault_injector = self.fault_injector
            #: Shard 0's controller, for single-controller call sites;
            #: aggregate counters live on ``control_plane``.
            self.controller = self.control_plane.shards[0].controller
            return
        self.control_plane = None
        self.overload = (
            OverloadControl(env, overload) if overload is not None else None
        )
        # Health tracking engages with any resilience knob; otherwise the
        # controller keeps the historical direct-node fast path.
        resilient = (
            self.fault_injector is not None
            or retries is not None
            or breaker is not None
            or self.overload is not None
        )
        self.router = NodeRouter() if resilient else None
        if self.router is not None and self.overload is not None:
            if self.overload.config.queue_depth is not None:
                # Queue depth is the backpressure signal: bursts drain
                # toward the least-congested node.
                overload_control = self.overload
                self.router.prefer_least_loaded(
                    lambda health: overload_control.depth_of(health.node)
                )
        self._attach_node(node)
        self.controller = Controller(
            env,
            node,
            costs.platform,
            shim=shim,
            bus=self.bus,
            retries=retries,
            router=self.router,
            overload=self.overload,
        )

    # -- node membership -------------------------------------------------
    def _attach_node(self, node) -> None:
        if self.fault_injector is not None and hasattr(node, "fault_injector"):
            node.fault_injector = self.fault_injector
        if self.overload is not None:
            self.overload.register_node(node)
        if self.router is not None:
            health = NodeHealth(
                node, CircuitBreaker(self.env, self.breaker_policy)
            )
            self.health.append(health)
            self.router.add(health)

    def add_node(self, node) -> None:
        """Join an initialized compute node to the routable pool.

        Only meaningful on sharded or resilient clusters (a router must
        exist for requests to reach any node beyond the first).
        """
        if self.control_plane is not None:
            if self.fault_injector is not None and hasattr(node, "fault_injector"):
                node.fault_injector = self.fault_injector
            self.control_plane.add_node(node)
            return
        if self.router is None:
            raise ValueError(
                "add_node requires a resilient cluster (faults/retries/breaker)"
            )
        self._attach_node(node)

    @property
    def nodes(self) -> list:
        if self.control_plane is not None:
            return list(self.control_plane.nodes)
        if self.health:
            return [health.node for health in self.health]
        return [self.node]

    # -- constructors ----------------------------------------------------
    @classmethod
    def with_seuss_node(
        cls,
        env: Environment,
        config: Optional[SeussConfig] = None,
        costs: CostBook = DEFAULT_COSTS,
        functions: Iterable[FunctionSpec] = (),
        faults: Optional[Union[FaultPlan, FaultInjector]] = None,
        retries: Optional[RetryPolicy] = None,
        breaker: Optional[BreakerPolicy] = None,
        overload: Optional[OverloadConfig] = None,
        shards: int = 1,
        routing: Optional[str] = None,
    ) -> "FaasCluster":
        """OpenWhisk with the SEUSS OS VM behind the shim process."""
        node = SeussNode(env, config=config, costs=costs)
        node.initialize_sync()
        shim = ShimProcess(env, costs.platform)
        return cls(
            env,
            node,
            costs=costs,
            shim=shim,
            functions=functions,
            faults=faults,
            retries=retries,
            breaker=breaker,
            overload=overload,
            shards=shards,
            routing=routing,
        )

    @classmethod
    def with_linux_node(
        cls,
        env: Environment,
        config=None,
        costs: CostBook = DEFAULT_COSTS,
        functions: Iterable[FunctionSpec] = (),
        faults: Optional[Union[FaultPlan, FaultInjector]] = None,
        retries: Optional[RetryPolicy] = None,
        breaker: Optional[BreakerPolicy] = None,
        overload: Optional[OverloadConfig] = None,
        shards: int = 1,
        routing: Optional[str] = None,
    ) -> "FaasCluster":
        """Stock OpenWhisk: Linux + Docker compute node, no shim."""
        from repro.linuxnode.node import LinuxNode

        node = LinuxNode(env, config=config, costs=costs)
        node.start_stemcell_pool()
        return cls(
            env,
            node,
            costs=costs,
            shim=None,
            functions=functions,
            faults=faults,
            retries=retries,
            breaker=breaker,
            overload=overload,
            shards=shards,
            routing=routing,
        )

    # -- client API ------------------------------------------------------
    def register(self, fn: FunctionSpec) -> None:
        self.registry.register(fn)

    def invoke_by_key(self, key: str) -> Process:
        """Start a client invocation of a registered function."""
        return self.invoke(self.registry.get(key))

    def invoke(self, fn: FunctionSpec) -> Process:
        """Start a client invocation of ``fn`` directly."""
        if self.control_plane is not None:
            return self.control_plane.invoke(fn)
        return self.env.process(self.controller.invoke(fn))

    def invoke_sync(self, fn: FunctionSpec) -> InvocationResult:
        """Invoke and drive the simulation until the result is ready."""
        return self.env.run(until=self.invoke(fn))

    def client_invoke(self, fn: FunctionSpec) -> Generator:
        """Generator form for embedding in caller processes."""
        result = yield self.invoke(fn)
        return result
