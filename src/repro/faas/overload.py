"""The overload control plane: deadlines, shedding, retry budgets.

SEUSS's headline result is surviving bursts that crush the Linux
baseline, but surviving *offered load beyond capacity* takes more than
fast cold starts: a platform with unbounded queues and abandoning-but-
not-cancelling clients degrades into zombie work (node cores burned on
answers nobody will receive) and retry storms.  This module is the
control plane that keeps goodput — completed-within-deadline work — at
capacity while overloaded:

* **Deadline propagation + cancellation** — a per-request deadline is
  attached at the controller, propagated to the node and checked
  between invoker stages; expired work is cancelled (core, UC and
  memory released immediately) and accounted as ``wasted_ms`` instead
  of silently completing.
* **Bounded admission queues + shedding** — each node gets an
  :class:`AdmissionQueue` bounding outstanding work at ``cores +
  queue_depth``; excess is shed under a pluggable :class:`ShedPolicy`
  (reject-newest, reject-oldest, deadline-aware drop-expired), and the
  queue depth doubles as the backpressure signal the router uses to
  prefer less-loaded nodes.
* **Retry-storm protection** — a cluster-wide token-bucket
  :class:`RetryBudget` (tokens earned as a fraction of admitted
  requests) layered under the per-request backoff policy, so correlated
  faults during overload cannot amplify into goodput collapse.

Every controller holds an :class:`OverloadControl`, and everything in
it defaults **off**: under :data:`OVERLOAD_DISABLED` it attaches no
deadline, builds no queue and grants every retry, so the controller
runs one control flow with the historical event schedule
(``tests/test_default_paths.py`` and the quick-table goldens pin it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional

from repro.errors import ConfigError, DeadlineExceededError, QueueFullError
from repro.faas.records import InvocationRequest
from repro.sim import Environment, Process


class ShedPolicy(Enum):
    """Which request a full admission queue sacrifices."""

    #: Refuse the incoming request (classic tail drop).
    REJECT_NEWEST = "reject-newest"
    #: Cancel the oldest *queued* (not yet running) request and admit
    #: the newcomer — freshest-work-first, the overload-friendly choice
    #: when clients have deadlines (old queued work is closest to
    #: expiring anyway).
    REJECT_OLDEST = "reject-oldest"
    #: Cancel queued requests whose deadlines have already expired;
    #: falls back to reject-newest when nothing in the queue is dead.
    DROP_EXPIRED = "drop-expired"


@dataclass(frozen=True)
class OverloadConfig:
    """Knobs of the overload control plane (all default off).

    ``deadline_ms`` is relative (per-request, from send time); setting
    it alone merely *attaches and tracks* deadlines — clients give up
    at the deadline and zombie completions are accounted as wasted
    work, but nothing is cancelled or shed.  ``cancel_expired`` adds
    active cancellation, ``queue_depth`` bounded admission, and
    ``retry_budget_fraction`` the cluster-wide retry token bucket.
    """

    #: Relative client deadline attached to every request (None = only
    #: the platform request timeout applies).
    deadline_ms: Optional[float] = None
    #: Cancel expired work: the controller interrupts node-side work
    #: when the client gives up, and the invoker aborts between stages
    #: once the propagated deadline passes.
    cancel_expired: bool = False
    #: Queued (beyond-cores) invocations each node may hold; None =
    #: unbounded (the historical behaviour).
    queue_depth: Optional[int] = None
    shed_policy: ShedPolicy = ShedPolicy.REJECT_NEWEST
    #: Retry tokens earned per admitted request (e.g. 0.1 = retries
    #: bounded at 10% of admissions); None = no cluster-wide budget.
    retry_budget_fraction: Optional[float] = None
    #: Token-bucket capacity: the burst of retries allowed before the
    #: earn rate dominates.
    retry_budget_burst: float = 10.0

    def __post_init__(self) -> None:
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ConfigError("deadline_ms must be positive or None")
        if self.queue_depth is not None and self.queue_depth < 0:
            raise ConfigError("queue_depth must be >= 0 or None")
        if self.retry_budget_fraction is not None and not (
            0.0 <= self.retry_budget_fraction <= 1.0
        ):
            raise ConfigError("retry_budget_fraction must be in [0, 1]")
        if self.retry_budget_burst < 0:
            raise ConfigError("retry_budget_burst must be >= 0")
        if self.cancel_expired and self.deadline_ms is None:
            raise ConfigError("cancel_expired requires deadline_ms")

    @property
    def enabled(self) -> bool:
        return (
            self.deadline_ms is not None
            or self.queue_depth is not None
            or self.retry_budget_fraction is not None
        )


#: The default: no deadlines, no queues, no budget — zero perturbation.
OVERLOAD_DISABLED = OverloadConfig()


@dataclass
class OverloadStats:
    """Control-plane-side overload counters (one per shard)."""

    #: Requests shed at admission, by policy outcome.
    shed_newest: int = 0
    shed_oldest: int = 0
    shed_expired: int = 0
    #: In-flight node work cancelled by the controller on client expiry.
    cancelled: int = 0
    #: Retries denied by the cluster-wide token bucket.
    retry_budget_denied: int = 0

    @property
    def shed(self) -> int:
        return self.shed_newest + self.shed_oldest + self.shed_expired


class RetryBudget:
    """Cluster-wide token bucket bounding the aggregate retry rate.

    Each admitted request earns ``fraction`` of a token (capped at
    ``burst``); each retry spends one whole token.  In steady state
    retries therefore cannot exceed ``fraction`` of admissions, with at
    most ``burst`` retries of slack for uncorrelated blips.
    """

    def __init__(self, fraction: float, burst: float = 10.0) -> None:
        if not 0.0 <= fraction <= 1.0:
            raise ConfigError("fraction must be in [0, 1]")
        if burst < 0:
            raise ConfigError("burst must be >= 0")
        self.fraction = fraction
        self.burst = burst
        self._tokens = float(burst)
        self.earned = 0.0
        self.spent = 0
        self.denied = 0

    @property
    def tokens(self) -> float:
        return self._tokens

    def note_admitted(self) -> None:
        """One request was admitted; accrue its retry allowance."""
        self.earned += self.fraction
        self._tokens = min(self.burst, self._tokens + self.fraction)

    def try_spend(self) -> bool:
        """Claim one retry token; False means the budget is exhausted."""
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            self.spent += 1
            return True
        self.denied += 1
        return False


@dataclass
class _QueueEntry:
    """One admitted invocation's bookkeeping in an admission queue."""

    request_id: int
    deadline_ms: Optional[float]
    enqueued_at_ms: float
    process: Optional[Process] = None


class AdmissionQueue:
    """Bounded outstanding-work tracking for one compute node.

    Capacity is ``cores + queue_depth``: up to ``cores`` invocations can
    be running, and at most ``queue_depth`` more may wait behind them.
    Entries are kept in admission order, so the first ``cores`` entries
    model the running set and the rest the queue — the view the shed
    policies act on.  The queue never schedules events; shedding a
    victim delivers an :class:`~repro.sim.Interrupted` into its node
    process, which unwinds and releases its resources itself.
    """

    def __init__(
        self,
        node,
        queue_depth: int,
        policy: ShedPolicy,
        stats: OverloadStats,
    ) -> None:
        self.node = node
        self.cores = getattr(node, "cores").capacity
        self.queue_depth = queue_depth
        self.policy = policy
        self.stats = stats
        self.entries: List[_QueueEntry] = []

    @property
    def limit(self) -> int:
        return self.cores + self.queue_depth

    @property
    def depth(self) -> int:
        """Outstanding invocations (running + queued) — the
        backpressure signal the router reads."""
        return len(self.entries)

    def _queued(self) -> List[_QueueEntry]:
        return self.entries[self.cores :]

    def _evict(self, entry: _QueueEntry, cause: Exception) -> None:
        self.entries.remove(entry)
        if entry.process is not None:
            entry.process.cancel(cause)

    # -- admission -------------------------------------------------------
    def try_admit(self, request: InvocationRequest, now_ms: float) -> bool:
        """Admit ``request`` (True) or shed under the policy (False).

        On False the *incoming* request was rejected; on True it holds a
        slot (freed by completion via :meth:`attach`'s callback), and a
        reject-oldest/drop-expired policy may have cancelled queued
        victims to make the room.
        """
        if len(self.entries) < self.limit:
            self._push(request, now_ms)
            return True

        if self.policy is ShedPolicy.DROP_EXPIRED:
            expired = [
                e for e in self._queued() if e.deadline_ms is not None
                and now_ms >= e.deadline_ms
            ]
            for victim in expired:
                self.stats.shed_expired += 1
                self._evict(
                    victim,
                    DeadlineExceededError(
                        "shed (drop-expired): queued past its deadline"
                    ),
                )
            if len(self.entries) < self.limit:
                self._push(request, now_ms)
                return True
        elif self.policy is ShedPolicy.REJECT_OLDEST:
            queued = self._queued()
            if queued:
                self.stats.shed_oldest += 1
                self._evict(
                    queued[0],
                    QueueFullError(
                        "shed (reject-oldest): displaced by newer work"
                    ),
                )
                self._push(request, now_ms)
                return True

        self.stats.shed_newest += 1
        return False

    def _push(self, request: InvocationRequest, now_ms: float) -> None:
        self.entries.append(
            _QueueEntry(
                request_id=request.request_id,
                deadline_ms=request.deadline_ms,
                enqueued_at_ms=now_ms,
            )
        )

    def attach(self, request: InvocationRequest, process: Process) -> None:
        """Bind the node process to the slot claimed by ``try_admit``.

        The slot frees itself when the process completes (success,
        failure or cancellation alike), keeping the accounting correct
        even when the client abandoned the request long before.
        """
        for entry in self.entries:
            if entry.request_id == request.request_id and entry.process is None:
                entry.process = process
                process.callbacks.append(lambda _ev: self._discard(entry))
                return

    def _discard(self, entry: _QueueEntry) -> None:
        try:
            self.entries.remove(entry)
        except ValueError:
            pass  # already evicted by a shed policy


class OverloadControl:
    """One shard's coordinator: per-node queues + the retry budget."""

    def __init__(self, env: Environment, config: OverloadConfig) -> None:
        self.env = env
        self.config = config
        self.stats = OverloadStats()
        self._queues: Dict[int, AdmissionQueue] = {}
        self.retry_budget: Optional[RetryBudget] = None
        if config.retry_budget_fraction is not None:
            self.retry_budget = RetryBudget(
                config.retry_budget_fraction, config.retry_budget_burst
            )

    # -- node registry ---------------------------------------------------
    def register_node(self, node) -> None:
        if self.config.queue_depth is None:
            return
        self._queues.setdefault(
            id(node),
            AdmissionQueue(
                node, self.config.queue_depth, self.config.shed_policy,
                self.stats,
            ),
        )

    def queue_for(self, node) -> Optional[AdmissionQueue]:
        return self._queues.get(id(node))

    def depth_of(self, node) -> int:
        queue = self._queues.get(id(node))
        return queue.depth if queue is not None else 0

    # -- deadline helpers ------------------------------------------------
    def deadline_for(self, sent_at_ms: float) -> Optional[float]:
        if self.config.deadline_ms is None:
            return None
        return sent_at_ms + self.config.deadline_ms

    # -- retry budget ----------------------------------------------------
    def note_admitted(self) -> None:
        if self.retry_budget is not None:
            self.retry_budget.note_admitted()

    def allow_retry(self) -> bool:
        """Spend a retry token; True when no budget is configured."""
        if self.retry_budget is None:
            return True
        allowed = self.retry_budget.try_spend()
        if not allowed:
            self.stats.retry_budget_denied += 1
        return allowed
