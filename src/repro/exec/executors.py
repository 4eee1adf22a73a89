"""Executors: per-item dispatch, retries, and the sweep entry point.

Every sweep runs through one of two executors, each treating an item
as its own unit of work:

* :class:`SerialExecutor` runs items in-process, in order, with the
  same retry/fault semantics as the queue, so the two stay
  bit-identical on success.
* :class:`~repro.exec.queue.QueueExecutor` runs items as a durable
  work-queue campaign: on a private temporary directory for parallel
  sweeps, on a shared directory when ``executor = "queue"`` names one.
  Its supervisor replaces crashed workers, kills hung items at the
  per-item timeout, and degrades to in-process draining when no worker
  can be spawned.

:func:`resolve_executor` maps the config's ``executor`` knob
(``auto``, ``serial`` or ``queue``) to one of them.  Every item ends as
an :class:`~repro.exec.results.ItemResult`; :func:`execute_items` is
the one entry point that combines journal replay (checkpoint/resume),
executor dispatch, and journaling of fresh results into a
:class:`~repro.exec.results.SweepReport`.
"""

from __future__ import annotations

import random
import time
from collections import namedtuple
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.api import runtime_config
from repro.exec import journal as journal_module
from repro.exec.faults import FaultPlan, SimulatedWorkerDeath
from repro.exec.results import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_REPLAYED,
    STATUS_WORKER_DEATH,
    ItemResult,
    SweepReport,
    describe_exception,
)

#: ``(results, degraded)`` -- what one executor run yields internally.
RunOutcome = namedtuple("RunOutcome", ["results", "degraded"])


class ExecutionSettingsError(ValueError):
    """An :class:`ExecutionSettings` knob is out of range.

    Raised at construction -- zero or negative timeouts, delays, and
    lease intervals used to slip through and misbehave deep inside a
    sweep; now they fail fast with a typed error.
    """


@dataclass(frozen=True)
class ExecutionSettings:
    """Everything an executor needs beyond the worker and its items."""

    #: Worker-process count (``None``: CPU count, capped by item count).
    processes: Optional[int] = None
    #: Transient-failure retries per item (0 disables retrying).
    retries: int = 2
    #: Per-item wall-clock timeout in seconds (``None``: unlimited).
    #: Enforced by the queue supervisor on its own workers only --
    #: in-process execution cannot preempt a hung item.
    item_timeout: Optional[float] = None
    #: Base backoff delay between retries, in seconds.
    retry_delay: float = 0.05
    #: Deterministic fault plan injected into workers (tests/chaos).
    fault_plan: Optional[FaultPlan] = None
    #: Durable work-queue directory (``queue`` executor; ``None``: a
    #: private per-campaign temporary directory).
    queue_dir: Optional[str] = None
    #: Queue lease time-to-live in seconds (``queue`` executor).
    lease_ttl: float = 30.0
    #: Queue heartbeat renewal interval in seconds (< ``lease_ttl``).
    heartbeat_interval: float = 5.0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ExecutionSettingsError(
                f"retries must be >= 0, got {self.retries}"
            )
        if self.item_timeout is not None and self.item_timeout <= 0:
            raise ExecutionSettingsError(
                f"item_timeout must be positive (or None for unlimited), "
                f"got {self.item_timeout!r}"
            )
        if self.retry_delay <= 0:
            raise ExecutionSettingsError(
                f"retry_delay must be positive, got {self.retry_delay!r}"
            )
        if self.lease_ttl <= 0:
            raise ExecutionSettingsError(
                f"lease_ttl must be positive, got {self.lease_ttl!r}"
            )
        if self.heartbeat_interval <= 0:
            raise ExecutionSettingsError(
                f"heartbeat_interval must be positive, "
                f"got {self.heartbeat_interval!r}"
            )
        if self.heartbeat_interval >= self.lease_ttl:
            raise ExecutionSettingsError(
                f"heartbeat_interval ({self.heartbeat_interval!r}) must be "
                f"smaller than lease_ttl ({self.lease_ttl!r})"
            )


def backoff_delay(settings: ExecutionSettings, index: int, attempt: int) -> float:
    """Exponential backoff with deterministic jitter.

    ``retry_delay * 2^(attempt-1)``, jittered up to +25% by an RNG
    seeded from the item and attempt -- so reruns sleep identically
    (reproducible schedules) while concurrent retries still spread out.
    """
    if settings.retry_delay <= 0:
        return 0.0
    jitter = random.Random(f"repro-backoff:{index}:{attempt}").random()
    return settings.retry_delay * (2 ** (attempt - 1)) * (1.0 + 0.25 * jitter)


class Executor:
    """Interface every executor implements (see :func:`resolve_executor`)."""

    #: Executor name, quoted in sweep reports.
    name = "base"

    def run(
        self,
        worker: Callable,
        items: Sequence[Tuple[int, Any]],
        settings: ExecutionSettings,
        on_result: Optional[Callable[[ItemResult], None]] = None,
    ) -> RunOutcome:
        """Run ``worker`` over ``(index, args)`` items, one result each.

        ``on_result`` (when given) is invoked with each item's final
        :class:`ItemResult` *the moment it is resolved* -- this is the
        checkpointing hook: the journal records successes incrementally
        through it, so a sweep killed mid-run keeps every item that had
        already finished.  Every executor must call it for each fresh
        success: :func:`execute_items` journals through it alone.
        """
        raise NotImplementedError


def _run_item_in_process(
    worker: Callable,
    index: int,
    args: Any,
    settings: ExecutionSettings,
) -> ItemResult:
    """Serial execution of one item with full retry/fault semantics.

    ``kill`` faults surface as :class:`SimulatedWorkerDeath` (the
    in-process stand-in for a dead worker) and are retried exactly like
    a real worker death would be.
    """
    attempt = 1
    while True:
        try:
            if settings.fault_plan is not None:
                settings.fault_plan.fire(index, attempt, allow_exit=False)
            value = worker(args)
            return ItemResult(index, STATUS_OK, value=value, attempts=attempt)
        except SimulatedWorkerDeath as death:
            status, error = STATUS_WORKER_DEATH, describe_exception(death)
        except Exception as failure:
            status, error = STATUS_ERROR, describe_exception(failure)
        if attempt > settings.retries:
            return ItemResult(index, status, error=error, attempts=attempt)
        time.sleep(backoff_delay(settings, index, attempt))
        attempt += 1


class SerialExecutor(Executor):
    """In-process execution, item by item, in order."""

    name = "serial"

    def run(self, worker, items, settings, on_result=None):
        results = []
        for index, args in items:
            result = _run_item_in_process(worker, index, args, settings)
            _notify(on_result, result)
            results.append(result)
        return RunOutcome(results, False)


def _notify(on_result, result: ItemResult) -> None:
    """Deliver one resolved item to the caller's checkpoint hook.

    The hook is an optimisation (journaling), never a failure: an
    exception inside it must not take down an otherwise healthy sweep.
    """
    if on_result is None:
        return
    try:
        on_result(result)
    except Exception:
        pass


def resolve_executor(name: str, parallel: bool = False) -> Executor:
    """The executor a config's ``executor`` knob names.

    ``"auto"`` is the queue executor on a private campaign when
    ``parallel``, serial in-process execution otherwise.
    """
    if name == "auto":
        name = "queue" if parallel else "serial"
    if name == "serial":
        return SerialExecutor()
    if name == "queue":
        from repro.exec.queue import QueueExecutor

        return QueueExecutor()
    known = ", ".join(runtime_config.EXECUTORS)
    raise ValueError(f"unknown executor {name!r}; expected one of {known}")


def execute_items(
    worker: Callable,
    arguments: Sequence,
    settings: ExecutionSettings,
    executor: Executor,
    journal: Optional[journal_module.SweepJournal] = None,
) -> SweepReport:
    """Run a sweep: journal replay + supervised execution + journaling.

    With a journal, previously completed items are replayed from disk
    (status ``"replayed"``, bit-identical values via pickle) and only
    the missing ones are dispatched; every fresh success is journaled
    the moment its result reaches the supervisor (the executors'
    ``on_result`` hook), so a kill at any point loses at most the
    items the supervisor had not collected yet.
    """
    arguments = list(arguments)
    order = list(range(len(arguments)))
    replayed: Dict[int, ItemResult] = {}
    keys: Dict[int, str] = {}
    journaled: set = set()
    if journal is not None:
        stored = journal.load()
        for index in order:
            key = journal_module.item_key(worker, index, arguments[index])
            keys[index] = key
            if key in stored:
                replayed[index] = ItemResult(
                    index, STATUS_REPLAYED, value=stored[key], attempts=0
                )
        journal_module.count_replays(len(replayed))

    def checkpoint(result: ItemResult) -> None:
        if result.status == STATUS_OK and result.index not in journaled:
            journaled.add(result.index)
            journal.record(keys[result.index], result.value)

    remaining = [(index, arguments[index]) for index in order if index not in replayed]
    if remaining:
        hook = checkpoint if journal is not None else None
        outcome = executor.run(worker, remaining, settings, hook)
    else:
        outcome = RunOutcome([], False)
    merged: Dict[int, ItemResult] = dict(replayed)
    for result in outcome.results:
        merged[result.index] = result
    return SweepReport(
        items=[merged[index] for index in order],
        executor=executor.name,
        degraded=outcome.degraded,
    )
