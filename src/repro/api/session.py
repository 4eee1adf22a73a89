"""The Session: one typed entry point for the whole pipeline.

A :class:`Session` owns all runtime state -- a frozen
:class:`~repro.api.runtime_config.RuntimeConfig` resolved once at
construction (explicit argument > ``REPRO_*`` environment variable >
default) -- and exposes the pipeline behind typed methods::

    from repro.api import Session

    session = Session(instructions=60_000)
    trace = session.trace("FT")                       # workloads -> traces
    plan = session.sweep(workloads=["FT", "LU"])      # declarative plan
    frame = plan.execute()                            # -> ResultFrame
    print(frame.to_csv())

Execution primitives
--------------------
:meth:`Session.map` is the sweep engine every experiment driver routes
through: serial by default, run as a work-queue campaign of
:mod:`repro.exec` when the session's config (or the caller) says so --
with per-item retries, timeouts, checkpoint journaling, and structured
failure reports -- and the shared disk trace cache primed first through
the same executor.  While a session executes, its config is *activated*
(see :func:`repro.api.runtime_config.activated`) so every layer below
-- trace engine selection, cache directories, the result store -- sees
one consistent snapshot instead of re-reading the environment.  Worker
processes are handed that config as an argument and activate it
themselves, so they see the same snapshot on every start method.

Every session is a frozen snapshot; there is no special default one.
Code that runs outside any session (a driver called directly) gets a
fresh ``Session()`` from :func:`current_session`, resolved from the
environment at that moment.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Union

from repro.api import runtime_config as rc
from repro.api.frame import ResultFrame
from repro.api.plan import (
    DEFAULT_SWEEP_CONFIGS,
    SWEEP_METRICS,
    ExperimentPlan,
    FrontendSweepPlan,
    Plan,
)
from repro.frontend.configs import FrontEndConfig
from repro.frontend.simulation import (
    FrontEndResult,
    simulate_frontend,
    simulate_frontend_many,
)
from repro.trace.events import Trace
from repro.trace.instruction import CodeSection
from repro.workloads.catalog import get_workload
from repro.workloads.spec import WorkloadSpec
from repro.workloads.suites import Suite
from repro.workloads.trace_cache import trace_on_disk, workload_trace

#: What a workload argument may be: a catalog name or a spec.
WorkloadLike = Union[str, WorkloadSpec]


def _prime_worker(args) -> None:
    """Generate one trace into the shared disk cache (worker side).

    ``args`` carries the parent's config first, activated here so the
    trace lands under the parent's engine and cache directory.
    """
    config, spec, instructions, seed = args
    with rc.activated(config):
        workload_trace(spec, instructions, seed=seed)


def _default_prime_keys(arguments: Sequence) -> "List[tuple]":
    """Prime keys inferred from conventional driver argument tuples.

    Tuples shaped ``(spec, instructions, ...)`` are primed; the seed is
    taken from the third position when it is a plain ``int`` (the
    ``(spec, instructions, seed, ...)`` worker convention) and defaults
    to 0 otherwise.  The check is ``type(...) is int`` on purpose:
    drivers also pass ``(spec, instructions, section)`` tuples whose
    :class:`~repro.trace.instruction.CodeSection` is an ``IntEnum`` and
    must not be misread as a seed.  Callers whose workers derive seeds
    elsewhere pass explicit keys to :meth:`Session.map` instead.
    """
    keys = []
    seen = set()
    for args in arguments:
        if (
            isinstance(args, tuple)
            and len(args) >= 2
            and isinstance(args[0], WorkloadSpec)
            and isinstance(args[1], int)
        ):
            seed = args[2] if len(args) >= 3 and type(args[2]) is int else 0
            key = (args[0].name, args[1], seed)
            if key in seen:
                continue
            seen.add(key)
            keys.append((args[0], args[1], seed))
    return keys


def _prime_shared_traces(keys: Sequence, executor: Any, settings: Any) -> None:
    """Populate the shared trace cache for a sweep before it starts workers.

    ``keys`` are ``(spec, instructions, seed)`` triples.  Traces the
    disk layer is missing are generated *in parallel* through the
    sweep's own ``executor`` under the current config (each priming
    worker stores its ``.npz`` atomically), then the parent loads
    everything into its in-memory cache, so sweep workers find every
    trace present -- inherited on fork platforms, disk-loaded otherwise
    -- instead of each regenerating its own.  Priming is best effort: a
    trace whose priming item failed (its worker died past the retry
    budget, say) is generated by the parent's load below.  The sweep's
    fault plan addresses sweep items only, so priming runs without it.
    """
    from repro.exec.executors import execute_items

    missing = [key for key in keys if not trace_on_disk(*key)]
    if len(missing) > 1:
        config = rc.current_config()
        execute_items(
            _prime_worker,
            [(config, *key) for key in missing],
            dataclasses.replace(settings, fault_plan=None),
            executor,
        )
    for spec, instructions, seed in keys:
        workload_trace(spec, instructions, seed=seed)


class Session:
    """Owns runtime state; every pipeline stage hangs off it.

    ``config`` may be a ready-made :class:`~repro.api.runtime_config.
    RuntimeConfig`; keyword overrides take precedence over environment
    variables, which take precedence over defaults (resolved once,
    here).  A provided config object is taken verbatim -- in
    particular, its ``trace_cache_dir=None`` counts as an explicit
    disable, so such a session never auto-defaults the shared trace
    cache under parallel overrides (keyword construction does).
    """

    def __init__(
        self,
        config: Optional[rc.RuntimeConfig] = None,
        **overrides: Any,
    ) -> None:
        # Whether a later parallel override may auto-default the shared
        # trace-cache directory (the legacy run_sweep behaviour): only
        # when neither the caller nor the environment said anything
        # about the trace cache, so an explicit disable always wins.
        self._trace_cache_defaultable = (
            config is None
            and "trace_cache_dir" not in overrides
            and rc.read_environment(rc.TRACE_CACHE_DIR_VARIABLE) is None
        )
        if config is None:
            self._config = rc.RuntimeConfig.from_environment(**overrides)
        elif overrides:
            self._config = config.replace(**overrides)
        else:
            self._config = config

    # -- configuration -----------------------------------------------

    @property
    def config(self) -> rc.RuntimeConfig:
        """The session's frozen runtime config."""
        return self._config

    @contextlib.contextmanager
    def activate(self) -> Iterator["Session"]:
        """Make this session's config the active one for a scope.

        Also makes the session :func:`current_session` for the scope,
        so code below (the experiment drivers) routes its sweeps
        through it.
        """
        token = _CURRENT.set(self)
        try:
            with rc.activated(self.config):
                yield self
        finally:
            _CURRENT.reset(token)

    # -- workload selection ------------------------------------------

    def workload(self, workload: WorkloadLike) -> WorkloadSpec:
        """Resolve a catalog name (or pass a spec through)."""
        if isinstance(workload, WorkloadSpec):
            return workload
        return get_workload(workload)

    def workloads(
        self,
        suites: Optional[Sequence[Suite]] = None,
        names: Optional[Sequence[str]] = None,
    ) -> List[WorkloadSpec]:
        """Select workloads: all 41 by default, or by suite/name.

        Delegates to :func:`repro.workloads.catalog.select_workloads`,
        the same helper behind the legacy ``suite_workloads``.
        """
        from repro.workloads.catalog import select_workloads

        return select_workloads(
            suites=list(suites) if suites is not None else None,
            names=list(names) if names is not None else None,
        )

    # -- pipeline stages ---------------------------------------------

    def trace(
        self,
        workload: WorkloadLike,
        instructions: Optional[int] = None,
        seed: int = 0,
    ) -> Trace:
        """Build (or reuse) a workload's dynamic trace.

        Routed through the shared trace cache under this session's
        config, so the engine choice and disk layer follow the session
        rather than the ambient environment.
        """
        spec = self.workload(workload)
        if instructions is None:
            instructions = self.config.instructions
        with self.activate():
            return workload_trace(spec, instructions, seed=seed)

    def frontend(
        self,
        workload: WorkloadLike,
        config: FrontEndConfig,
        section: CodeSection = CodeSection.TOTAL,
        instructions: Optional[int] = None,
        seed: int = 0,
    ) -> FrontEndResult:
        """Simulate one front-end configuration over one workload."""
        trace = self.trace(workload, instructions, seed=seed)
        with self.activate():
            return simulate_frontend(trace, config, section)

    def frontend_many(
        self,
        workload: WorkloadLike,
        configs: Sequence[FrontEndConfig],
        sections: Sequence[CodeSection] = (CodeSection.TOTAL,),
        instructions: Optional[int] = None,
        seed: int = 0,
    ) -> Dict[Any, FrontEndResult]:
        """Simulate many configurations over one workload, batched."""
        trace = self.trace(workload, instructions, seed=seed)
        with self.activate():
            return simulate_frontend_many(trace, tuple(configs), tuple(sections))

    # -- declarative plans -------------------------------------------

    def sweep(
        self,
        workloads: Optional[Sequence[WorkloadLike]] = None,
        configs: Optional[Sequence[FrontEndConfig]] = None,
        metrics: Optional[Sequence[str]] = None,
        sections: Sequence[CodeSection] = (CodeSection.TOTAL,),
        instructions: Optional[int] = None,
        seed: int = 0,
    ) -> FrontendSweepPlan:
        """Declare a workloads x configs x sections front-end sweep.

        Returns a :class:`FrontendSweepPlan`; nothing runs until
        ``execute()``.  Defaults: the full 41-workload catalog, the
        baseline and tailored Section V front-ends, all three MPKI
        metrics, the TOTAL section, and the session's instruction
        budget.
        """
        specs = (
            self.workloads()
            if workloads is None
            else [self.workload(w) for w in workloads]
        )
        return FrontendSweepPlan(
            session=self,
            workloads=tuple(specs),
            configs=tuple(configs) if configs is not None else DEFAULT_SWEEP_CONFIGS,
            sections=tuple(sections),
            metrics=tuple(metrics) if metrics is not None else SWEEP_METRICS,
            instructions=(
                self.config.instructions if instructions is None else int(instructions)
            ),
            seed=int(seed),
        )

    def experiment(self, name: str, **options: Any) -> ExperimentPlan:
        """Declare one registered paper experiment (see ``experiments``)."""
        return self.experiments([name], **options)

    def experiments(
        self,
        names: Optional[Sequence[str]] = None,
        scenario_names: Optional[Sequence[str]] = None,
        instructions: Optional[int] = None,
        use_store: bool = True,
    ) -> ExperimentPlan:
        """Declare a selection of registered experiments (default: all).

        Returns an :class:`ExperimentPlan` that executes through the
        orchestrator under this session's config: store-first,
        dependency-deriving, resumable.
        """
        if names is None:
            from repro.results.orchestrator import registry_names

            names = registry_names()
        return ExperimentPlan(
            session=self,
            names=tuple(names),
            scenario_names=tuple(scenario_names) if scenario_names else None,
            instructions=instructions,
            use_store=use_store,
        )

    def explore(
        self,
        grid: Any,
        workloads: Optional[Sequence[WorkloadLike]] = None,
        sections: Sequence[CodeSection] = (CodeSection.TOTAL,),
        instructions: Optional[int] = None,
        seed: int = 0,
        chunk_points: Optional[int] = None,
        objectives: Optional[Sequence[str]] = None,
        use_store: bool = True,
    ) -> "Any":
        """Declare a design-space exploration over a grid.

        ``grid`` is a :class:`~repro.explore.grid.GridSpec` (or a
        preset name from :data:`~repro.explore.grid.GRID_PRESETS`).
        Returns an :class:`~repro.explore.plan.ExplorePlan`; nothing
        runs until ``execute()``/``result()``.  Grid points are
        evaluated in content-addressed chunks through the batched
        engines, so interrupted explorations resume by replaying stored
        chunks, and ``objectives`` (default: the grid kind's standard
        area/power/performance triple) select the Pareto frontier.
        """
        from repro.explore.grid import GridSpec, get_grid
        from repro.explore.plan import (
            DEFAULT_CHUNK_POINTS,
            DEFAULT_EXPLORE_WORKLOADS,
            ExplorePlan,
        )

        if isinstance(grid, str):
            grid = get_grid(grid)
        if not isinstance(grid, GridSpec):
            raise TypeError(
                f"expected a GridSpec or preset name, got {type(grid).__name__}"
            )
        names = DEFAULT_EXPLORE_WORKLOADS if workloads is None else workloads
        return ExplorePlan(
            session=self,
            grid=grid,
            workloads=tuple(self.workload(w) for w in names),
            sections=tuple(sections),
            instructions=(
                self.config.instructions if instructions is None else int(instructions)
            ),
            seed=int(seed),
            chunk_points=(
                DEFAULT_CHUNK_POINTS if chunk_points is None else int(chunk_points)
            ),
            objectives=tuple(objectives) if objectives is not None else (),
            use_store=use_store,
        )

    def run(self, plan: Plan) -> ResultFrame:
        """Execute a plan (equivalent to ``plan.execute()``)."""
        return plan.execute()

    # -- the sweep engine --------------------------------------------

    def map(
        self,
        worker: Callable,
        arguments: Sequence,
        parallel: Optional[bool] = None,
        processes: Optional[int] = None,
        prime: Optional[Sequence] = None,
        journal_scope: Optional[str] = None,
    ) -> List:
        """Run a per-workload sweep worker over its argument tuples.

        The historical "list of values" contract over
        :meth:`map_report`: every item's value in argument order, or a
        :class:`repro.exec.SweepError` carrying the structured failure
        report (and the partial results) when any item permanently
        failed.
        """
        return self.map_report(
            worker,
            arguments,
            parallel=parallel,
            processes=processes,
            prime=prime,
            journal_scope=journal_scope,
        ).values()

    def map_report(
        self,
        worker: Callable,
        arguments: Sequence,
        parallel: Optional[bool] = None,
        processes: Optional[int] = None,
        prime: Optional[Sequence] = None,
        journal_scope: Optional[str] = None,
    ):
        """Run a sweep under supervision; return the full SweepReport.

        The execution policy comes from the session's config unless the
        caller overrides it: the ``executor`` knob selects the engine
        (``"auto"``: a queue campaign on a private temporary directory
        when parallel, serial in-process otherwise; ``"queue"``: a
        campaign on the configured ``queue_dir``, where external
        workers may join), with per-item retries, timeouts, and fault
        injection from the config.  A parallel sweep on a session
        without any trace-cache setting defaults the per-user shared
        directory.  Before a queue campaign spawns workers, the shared
        disk trace cache is primed through the same executor; the
        workers are handed the effective config and activate it.

        ``prime`` names the traces to pre-generate as ``(spec,
        instructions, seed)`` triples; when omitted they are inferred
        from conventionally shaped ``(spec, instructions, [seed,] ...)``
        argument tuples.  ``journal_scope`` (or the ambient scope the
        orchestrator activates) enables per-item checkpointing: a
        killed sweep rerun under the same scope replays completed items
        from disk and computes only the missing ones.
        """
        from repro.exec import executors as exec_executors
        from repro.exec import journal as exec_journal
        from repro.exec.faults import FaultPlan

        config = self.config
        use_parallel = config.parallel if parallel is None else bool(parallel)
        worker_count = config.processes if processes is None else processes
        if (
            use_parallel
            and config.trace_cache_dir is None
            and self._trace_cache_defaultable
        ):
            # A parallel override on a session constructed without any
            # trace-cache setting: apply the same per-user shared-cache
            # default a parallel construction would have resolved, so
            # the legacy run_sweep(run_parallel=True) behaviour holds.
            config = config.replace(trace_cache_dir=rc.default_trace_cache_dir())
        settings = exec_executors.ExecutionSettings(
            processes=worker_count,
            retries=config.retries,
            item_timeout=config.item_timeout,
            retry_delay=config.retry_delay,
            fault_plan=FaultPlan.from_spec(config.fault_plan),
            # Only an explicit queue executor joins a shared queue; a
            # parallel "auto" sweep stays a private campaign.
            queue_dir=config.queue_dir if config.executor == "queue" else None,
            lease_ttl=config.lease_ttl,
            heartbeat_interval=config.heartbeat_interval,
        )
        executor = exec_executors.resolve_executor(config.executor, use_parallel)
        # The session stays current_session() while the layers below
        # (and the workers, which are handed it) see the effective config.
        with self.activate(), rc.activated(config):
            scope = (
                journal_scope
                if journal_scope is not None
                else exec_journal.active_journal_scope()
            )
            journal = exec_journal.journal_for_scope(scope)
            if executor.name != "serial" and config.trace_cache_dir is not None:
                if prime is None:
                    prime = _default_prime_keys(arguments)
                _prime_shared_traces(prime, executor, settings)
            return exec_executors.execute_items(
                worker, arguments, settings, executor, journal
            )

    def workload_sweep(
        self,
        worker: Callable,
        extra_args: Sequence = (),
        names: Optional[Sequence[str]] = None,
        specs: Optional[Sequence[WorkloadSpec]] = None,
        parallel: Optional[bool] = None,
        processes: Optional[int] = None,
    ) -> "tuple[List[WorkloadSpec], List]":
        """Sweep a per-workload worker over one workload selection.

        Builds the conventional ``(spec, *extra_args)`` argument tuples
        and runs them through :meth:`map`.  Returns ``(specs, rows)``
        with rows in spec order -- the flat-sweep glue every
        per-benchmark driver used to hand-roll.
        """
        if specs is None:
            specs = self.workloads(names=names)
        specs = list(specs)
        arguments = [(spec, *extra_args) for spec in specs]
        return specs, self.map(worker, arguments, parallel, processes)

    def suite_sweep(
        self,
        worker: Callable,
        extra_args: Sequence = (),
        suites: Optional[Sequence[Suite]] = None,
        parallel: Optional[bool] = None,
        processes: Optional[int] = None,
    ) -> "List[tuple]":
        """Sweep a per-workload worker over whole suites.

        Returns ``[(suite, specs, rows), ...]`` in figure order -- the
        per-suite loop glue shared by the Section III/IV drivers, so
        each experiment keeps only its own aggregation.  Every suite's
        workloads run as one :meth:`map`, so a parallel sweep pays for
        one campaign, not one per suite.
        """
        from repro.workloads.suites import SUITE_ORDER

        groups = [
            (suite, self.workloads(suites=[suite])) for suite in suites or SUITE_ORDER
        ]
        arguments = [(spec, *extra_args) for _, specs in groups for spec in specs]
        rows = iter(self.map(worker, arguments, parallel, processes))
        return [
            (suite, specs, [next(rows) for _ in specs]) for suite, specs in groups
        ]


#: The innermost session activated via :meth:`Session.activate` -- a
#: :class:`~contextvars.ContextVar` so threads cannot cross-contaminate.
_CURRENT: "contextvars.ContextVar[Optional[Session]]" = contextvars.ContextVar(
    "repro_current_session", default=None
)


def current_session() -> Session:
    """The session executing right now, else a fresh snapshot.

    The experiment drivers call this so that work initiated through an
    explicit session (``session.experiment("fig5").execute()``) runs
    under that session's config.  Under a bare config activation (a
    sweep worker) the snapshot is that config; outside any activation
    it is a fresh ``Session()`` resolved from the environment.
    """
    current = _CURRENT.get()
    if current is not None:
        return current
    active = rc.active_config()
    return Session() if active is None else Session(active)
