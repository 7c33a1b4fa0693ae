"""The OpenWhisk controller.

The controller fronts the platform: it receives API requests, resolves
the function in the registry, schedules the invocation onto the compute
node (via Kafka, and — on the SEUSS deployment — via the shim process),
awaits the node's answer, and writes the activation record.  The
aggregate cost of those hops is the calibrated
``PlatformCostModel.control_plane_ms``, split around the node call.

Client-side timeouts are enforced here: a request that exceeds
``request_timeout_ms`` returns an error to the client (the behaviour
behind the 'x' marks in Figures 6–8) while the node-side work is left
to finish in the background, as on the real platform.

Resilience is opt-in and costs nothing when idle.  A
:class:`RetryPolicy` with ``max_attempts > 1`` re-dispatches failed
node attempts with exponential backoff + seeded jitter (sim-clock
based, so retry schedules replay deterministically), bounded by both an
attempt count and a per-request backoff budget; a
:class:`~repro.faas.health.NodeRouter` lets each attempt route around
nodes whose circuit breakers are open.  With the default policy
(single attempt, no router) the control flow is exactly the historical
one — no extra events, no RNG draws, no added latency.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Generator, List, Optional

from repro.costs import PlatformCostModel
from repro.errors import (
    CircuitOpenError,
    ConfigError,
    DeadlineExceededError,
    QueueFullError,
    RetryBudgetExhaustedError,
)
from repro.faas.health import NodeRouter
from repro.faas.messagebus import MessageBus
from repro.faas.overload import OverloadControl
from repro.faas.quotas import DISABLED, QuotaConfig, QuotaEnforcer
from repro.faas.records import (
    FunctionSpec,
    InvocationPath,
    InvocationRequest,
    InvocationResult,
    NodeInvocation,
)
from repro.seuss.shim import ShimProcess
from repro.sim import AnyOf, Environment
from repro.trace import tracer_for

#: Fractions of the control-plane overhead paid before/after node work
#: (gateway + schedule + bus publish vs. activation store + response).
PRE_NODE_FRACTION = 0.7

#: Sentinel ``_attempt_node`` returns when the request was already
#: expired before dispatch — fail fast, the node was never touched.
EXPIRED_BEFORE_DISPATCH = object()


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff + jitter for failed node attempts.

    Attempt ``n`` (the ``n``-th *retry*) backs off
    ``min(max_backoff_ms, base_backoff_ms * multiplier**(n-1))`` plus a
    uniform jitter in ``[0, jitter_fraction * that]``, drawn from a RNG
    seeded with ``seed`` — identical seeds give identical retry
    timestamps on the sim clock.  ``budget_ms`` caps the *total* backoff
    a single request may accumulate, independent of the attempt count.
    """

    #: Total attempts, including the first (1 = retries disabled).
    max_attempts: int = 1
    base_backoff_ms: float = 10.0
    backoff_multiplier: float = 2.0
    max_backoff_ms: float = 200.0
    #: Jitter as a fraction of the pre-jitter backoff.
    jitter_fraction: float = 0.2
    #: Per-request cumulative backoff budget.
    budget_ms: float = 5_000.0
    seed: int = 0x5EED

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")
        if self.base_backoff_ms < 0 or self.max_backoff_ms < 0:
            raise ConfigError("backoff times must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ConfigError("backoff_multiplier must be >= 1")
        if not 0.0 <= self.jitter_fraction <= 1.0:
            raise ConfigError("jitter_fraction must be in [0, 1]")
        if self.budget_ms < 0:
            raise ConfigError("budget_ms must be >= 0")

    @property
    def enabled(self) -> bool:
        return self.max_attempts > 1

    def backoff_bounds(self, attempt: int) -> "tuple[float, float]":
        """Closed interval the ``attempt``-th retry's backoff falls in."""
        base = min(
            self.max_backoff_ms,
            self.base_backoff_ms * self.backoff_multiplier ** (attempt - 1),
        )
        return base, base * (1.0 + self.jitter_fraction)

    def backoff_ms(self, attempt: int, rng: random.Random) -> float:
        base, _ = self.backoff_bounds(attempt)
        return base + base * self.jitter_fraction * rng.random()


#: The historical single-shot behaviour.
NO_RETRIES = RetryPolicy()

#: A sensible default for chaos/resilience runs: 12 attempts cover a
#: node-restart window of several hundred ms at the default backoffs.
RESILIENT_RETRIES = RetryPolicy(max_attempts=12)


@dataclass(frozen=True)
class RetryEvent:
    """One retry the controller scheduled (for determinism audits)."""

    request_id: int
    attempt: int  # the attempt that just failed (1-based)
    at_ms: float  # when the backoff started
    backoff_ms: float


@dataclass
class ControllerStats:
    received: int = 0
    succeeded: int = 0
    failed: int = 0
    timed_out: int = 0
    throttled: int = 0
    #: Individual retry attempts scheduled.
    retried: int = 0
    #: Requests that succeeded only after >= 1 retry.
    recovered: int = 0
    #: Requests that failed with their retry budget/attempts spent.
    retry_exhausted: int = 0
    #: Attempts rejected because every node's circuit was open.
    circuit_rejected: int = 0
    #: Already-expired requests failed fast before touching a node.
    deadline_rejected: int = 0


class Controller:
    """Platform front door; node-agnostic."""

    def __init__(
        self,
        env: Environment,
        node,
        costs: PlatformCostModel,
        shim: Optional[ShimProcess] = None,
        bus: Optional[MessageBus] = None,
        quotas: QuotaConfig = DISABLED,
        retries: Optional[RetryPolicy] = None,
        router: Optional[NodeRouter] = None,
        overload: Optional[OverloadControl] = None,
    ) -> None:
        self.env = env
        self.node = node
        self.costs = costs
        self.shim = shim
        self.bus = bus or MessageBus(env)
        #: Per-namespace throttling; the paper disables it (the default).
        self.quotas = QuotaEnforcer(quotas)
        self.retries = retries or NO_RETRIES
        self.router = router
        #: The overload control plane (deadlines, admission queues,
        #: retry budget); ``None`` keeps the historical control flow.
        self.overload = overload
        self._retry_rng = random.Random(self.retries.seed)
        self.stats = ControllerStats()
        #: Audit log of scheduled retries (empty unless retries fire).
        self.retry_events: List[RetryEvent] = []
        #: Set by :class:`~repro.faas.sharding.ShardedControlPlane` so
        #: request spans carry their shard for critical-path
        #: attribution; ``None`` on unsharded controllers (no span
        #: attribute, historical traces unchanged).
        self.shard_id: Optional[int] = None

    @property
    def pre_node_ms(self) -> float:
        return self.costs.control_plane_ms * PRE_NODE_FRACTION

    @property
    def post_node_ms(self) -> float:
        return self.costs.control_plane_ms * (1.0 - PRE_NODE_FRACTION)

    def _remaining_ms(self, request: InvocationRequest) -> float:
        """Time until the client stops waiting: min(timeout, deadline).

        The no-deadline arithmetic replicates the historical expression
        exactly (same float operations, same rounding) so default-path
        event schedules stay byte-identical.
        """
        remaining = self.costs.request_timeout_ms - (
            self.env.now - request.sent_at_ms
        )
        if request.deadline_ms is not None:
            remaining = min(remaining, request.deadline_ms - self.env.now)
        return remaining

    # -- node attempts ---------------------------------------------------
    def _attempt_node(self, fn: FunctionSpec, request: InvocationRequest, span):
        """Sim sub-process: one dispatch to a (routed) node.

        Returns the :class:`NodeInvocation` — synthesized when every
        circuit is open or the node's admission queue shed the request —
        or ``None`` if the client deadline expired (before dispatch or
        while waiting; the caller distinguishes via ``request``'s clock
        state).  ``span`` is this attempt's trace span; rejections,
        sheds, cancellations and node errors are annotated onto it.
        """
        env = self.env
        remaining = self._remaining_ms(request)
        if remaining <= 0:
            # Fail fast: an already-expired request must never touch a
            # node (historically it was dispatched with a 0.1 ms grace
            # timeout and burned node work nobody was waiting for).
            self.stats.deadline_rejected += 1
            if self.overload is not None:
                self.overload.stats.deadline_rejected += 1
            span.annotate(deadline_rejected=True)
            tracer = tracer_for(env)
            if tracer.enabled:
                tracer.counter("overload.deadline_rejected")
            return EXPIRED_BEFORE_DISPATCH

        health = None
        if self.router is not None:
            try:
                health = self.router.select(fn)
                node = health.node
            except CircuitOpenError as exc:
                self.stats.circuit_rejected += 1
                span.annotate(circuit_rejected=True, error=str(exc))
                return NodeInvocation(
                    path=InvocationPath.ERROR,
                    success=False,
                    latency_ms=0.0,
                    error=str(exc),
                    function_key=fn.key,
                )
        else:
            node = self.node

        queue = None
        if self.overload is not None:
            queue = self.overload.queue_for(node)
            if queue is not None and not queue.try_admit(request, env.now):
                # Shed at admission: fail the attempt without recording
                # a breaker failure (the node is congested, not broken).
                error = QueueFullError(
                    f"admission queue full on node (depth {queue.depth}, "
                    f"policy {queue.policy.value})"
                )
                span.annotate(shed=True, error=str(error))
                tracer = tracer_for(env)
                if tracer.enabled:
                    tracer.counter("overload.shed")
                return NodeInvocation(
                    path=InvocationPath.ERROR,
                    success=False,
                    latency_ms=0.0,
                    error=str(error),
                    function_key=fn.key,
                    cancelled=True,
                )

        if request.deadline_ms is not None and self.overload is not None:
            node_process = node.invoke(
                fn,
                deadline_ms=request.deadline_ms,
                cancel_expired=self.overload.config.cancel_expired,
            )
        else:
            node_process = node.invoke(fn)
        if queue is not None:
            queue.attach(request, node_process)
        deadline = env.timeout(remaining)
        yield AnyOf(env, [node_process, deadline])

        if not node_process.processed:
            # Client gave up.  With cancellation enabled the zombie is
            # interrupted so it releases its core, UC and memory now;
            # historically the node finishes (or fails) on its own.
            span.annotate(timed_out=True)
            if (
                self.overload is not None
                and self.overload.config.cancel_expired
                and node_process.cancel(
                    DeadlineExceededError("client deadline expired")
                )
            ):
                self.overload.stats.cancelled += 1
                span.annotate(cancelled=True)
                tracer = tracer_for(env)
                if tracer.enabled:
                    tracer.counter("overload.cancelled")
            return None
        node_result = node_process.value
        if health is not None and not node_result.cancelled:
            # Cancelled/shed work says nothing about node health; only
            # real outcomes feed the breaker.
            if node_result.success:
                health.record_success()
            else:
                health.record_failure()
        span.annotate(
            success=node_result.success, node_path=node_result.path.value
        )
        if node_result.cancelled:
            span.annotate(cancelled=True)
        if node_result.error is not None:
            # Failures here are injected (crashes, corruption) or
            # synthetic (open circuits); keep the cause on the span.
            span.annotate(error=node_result.error)
        return node_result

    def _should_retry(
        self, result: NodeInvocation, attempt: int, backoff_spent: float
    ) -> bool:
        if result.success or not self.retries.enabled:
            return False
        if result.cancelled:
            # Deadline-expired or shed-evicted work: retrying would
            # re-queue load the platform just decided to drop.
            return False
        if attempt >= self.retries.max_attempts:
            return False
        next_backoff, _ = self.retries.backoff_bounds(attempt)
        return backoff_spent + next_backoff <= self.retries.budget_ms

    # -- client API ------------------------------------------------------
    def invoke(self, fn: FunctionSpec) -> Generator:
        """Sim process: one synchronous client request end to end.

        Returns an :class:`InvocationResult`.
        """
        env = self.env
        request = InvocationRequest(
            function=fn,
            sent_at_ms=env.now,
            deadline_ms=(
                self.overload.deadline_for(env.now)
                if self.overload is not None
                else None
            ),
        )
        self.stats.received += 1
        tracer = tracer_for(env)
        root = tracer.span(
            "request",
            at=env.now,
            category="controller",
            function=fn.key,
            request_id=request.request_id,
        )
        if self.shard_id is not None:
            root.annotate(shard=self.shard_id)

        try:
            # Namespace throttling happens at the gateway, before any work.
            rate_before = self.quotas.stats.rate_rejections
            admitted, reason = self.quotas.try_admit(fn.owner, env.now)
            if not admitted:
                self.stats.throttled += 1
                self.stats.failed += 1
                root.annotate(throttled=True, error=f"throttled: {reason}")
                if tracer.enabled:
                    if self.quotas.stats.rate_rejections > rate_before:
                        tracer.counter("quota.rate_rejections")
                    else:
                        tracer.counter("quota.concurrency_rejections")
                return InvocationResult(
                    request_id=request.request_id,
                    function_key=fn.key,
                    path=InvocationPath.ERROR,
                    success=False,
                    sent_at_ms=request.sent_at_ms,
                    finished_at_ms=env.now,
                    error=f"throttled: {reason}",
                )

            if self.overload is not None:
                self.overload.note_admitted()

            try:
                # API gateway -> controller -> Kafka.
                self.bus.publish_nowait("invoke", request)
                dispatch_started = env.now
                yield env.timeout(self.pre_node_ms)
                yield self.bus.consume("invoke")

                # The SEUSS deployment interposes the shim hop here.
                if self.shim is not None:
                    yield from self.shim.forward()
                root.done("dispatch", dispatch_started, env.now)

                attempt = 1
                backoff_spent = 0.0
                while True:
                    attempt_span = root.span(
                        "attempt", at=env.now, category="attempt", attempt=attempt
                    )
                    node_result = yield from self._attempt_node(
                        fn, request, attempt_span
                    )
                    attempt_span.finish(at=env.now)
                    if (
                        node_result is None
                        or node_result is EXPIRED_BEFORE_DISPATCH
                    ):
                        if node_result is EXPIRED_BEFORE_DISPATCH:
                            # Satellite fix: an already-expired request
                            # fails fast with a typed error instead of
                            # being dispatched on a 0.1 ms grace timeout.
                            error = str(
                                DeadlineExceededError(
                                    "deadline exceeded before dispatch"
                                )
                            )
                        else:
                            self.stats.timed_out += 1
                            error = "request timed out"
                        self.stats.failed += 1
                        root.annotate(error=error)
                        return InvocationResult(
                            request_id=request.request_id,
                            function_key=fn.key,
                            path=InvocationPath.ERROR,
                            success=False,
                            sent_at_ms=request.sent_at_ms,
                            finished_at_ms=env.now,
                            error=error,
                            attempts=attempt,
                        )
                    if not self._should_retry(node_result, attempt, backoff_spent):
                        if not node_result.success and self.retries.enabled:
                            self.stats.retry_exhausted += 1
                        break
                    if self.overload is not None and not self.overload.allow_retry():
                        # Cluster-wide retry budget spent: eat the failure
                        # rather than amplify overload into a retry storm.
                        self.stats.retry_exhausted += 1
                        root.annotate(
                            retry_budget_exhausted=True,
                            error=str(
                                RetryBudgetExhaustedError(
                                    "cluster retry budget exhausted"
                                )
                            ),
                        )
                        if tracer.enabled:
                            tracer.counter("overload.retry_budget_denied")
                        break
                    backoff = self.retries.backoff_ms(attempt, self._retry_rng)
                    self.stats.retried += 1
                    self.retry_events.append(
                        RetryEvent(
                            request_id=request.request_id,
                            attempt=attempt,
                            at_ms=env.now,
                            backoff_ms=backoff,
                        )
                    )
                    root.done(
                        "backoff", env.now, env.now + backoff, attempt=attempt
                    )
                    yield env.timeout(backoff)
                    backoff_spent += backoff
                    attempt += 1

                root.done("respond", env.now, env.now + self.post_node_ms)
                yield env.timeout(self.post_node_ms)
            finally:
                self.quotas.release(fn.owner)

            if (
                node_result.success
                and request.deadline_ms is not None
                and env.now > request.deadline_ms
            ):
                # The node finished in time but the response path did
                # not: the client already gave up, so the answer is a
                # client-visible failure (the node could not have known
                # — its own work stays accounted as useful).
                self.stats.timed_out += 1
                self.stats.failed += 1
                error = str(
                    DeadlineExceededError("response missed the client deadline")
                )
                root.annotate(late_response=True, error=error)
                return InvocationResult(
                    request_id=request.request_id,
                    function_key=fn.key,
                    path=node_result.path,
                    success=False,
                    sent_at_ms=request.sent_at_ms,
                    finished_at_ms=env.now,
                    node_latency_ms=node_result.latency_ms,
                    breakdown=dict(node_result.breakdown),
                    error=error,
                    pages_copied=node_result.pages_copied,
                    attempts=attempt,
                )
            if node_result.success:
                self.stats.succeeded += 1
                if attempt > 1:
                    self.stats.recovered += 1
            else:
                self.stats.failed += 1
            root.annotate(
                success=node_result.success,
                path=node_result.path.value,
                attempts=attempt,
            )
            return InvocationResult(
                request_id=request.request_id,
                function_key=fn.key,
                path=node_result.path,
                success=node_result.success,
                sent_at_ms=request.sent_at_ms,
                finished_at_ms=env.now,
                node_latency_ms=node_result.latency_ms,
                breakdown=dict(node_result.breakdown),
                error=node_result.error,
                pages_copied=node_result.pages_copied,
                attempts=attempt,
            )
        finally:
            root.finish(at=env.now)
