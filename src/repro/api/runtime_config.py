"""Runtime configuration: the single owner of every ``REPRO_*`` knob.

This module is the **only** place in the package that touches the
process environment.  Every knob the environment can set -- the trace
engine choice, the two cache directories, sweep parallelism and
supervision, the queue and the results service, the default
instruction budget -- is captured by one frozen :class:`RuntimeConfig`
dataclass, resolved by :meth:`RuntimeConfig.from_environment` with
*explicit argument > environment variable > default* precedence.

There is one consumption mode.  Each process resolves one config at
its entry point (the CLI, a :class:`repro.api.session.Session`, a
sweep worker handed its parent's config as an argument) and runs under
:func:`activated`; the lower layers read it through
:func:`current_config` and the ``current_*`` accessors.  Outside any
activation :func:`current_config` falls back to a fresh
:meth:`~RuntimeConfig.from_environment` snapshot, which stays the only
parser of ``REPRO_*`` values.  The only write to the environment is
:func:`export_environment_default`, used by the entry-point helpers
that default the shared disk caches for later processes.

The module deliberately imports nothing from the rest of the package,
so every layer -- down to :mod:`repro.trace.compiler` -- can consult it
without creating an import cycle.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import os
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple, Union

#: Environment variable selecting the trace generation engine
#: (``compiled``, the default, or ``reference`` for the tree walk).
TRACE_ENGINE_VARIABLE = "REPRO_TRACE_ENGINE"

#: Environment variable selecting the on-disk trace-cache directory
#: (unset: no disk layer; ``none``/``off``/``0``/empty: disabled).
TRACE_CACHE_DIR_VARIABLE = "REPRO_TRACE_CACHE_DIR"

#: Environment variable selecting the on-disk result-store directory
#: (same unset/disable semantics as the trace cache).
RESULT_CACHE_DIR_VARIABLE = "REPRO_RESULT_CACHE_DIR"

#: Environment variable turning sweep parallelism on by default
#: (truthy values: ``1``/``true``/``yes``/``on``).
PARALLEL_VARIABLE = "REPRO_PARALLEL"

#: Environment variable fixing the worker-process count of parallel
#: sweeps (unset: the CPU count).
PROCESSES_VARIABLE = "REPRO_PROCESSES"

#: Environment variable overriding the default dynamic trace length.
INSTRUCTIONS_VARIABLE = "REPRO_INSTRUCTIONS"

#: Environment variable selecting the sweep executor (``auto``,
#: ``serial`` or ``queue``).
EXECUTOR_VARIABLE = "REPRO_EXECUTOR"

#: Environment variable fixing the per-item retry count of supervised
#: sweeps (transient failures and worker deaths).
RETRIES_VARIABLE = "REPRO_RETRIES"

#: Environment variable fixing the per-item timeout (seconds) of
#: supervised sweeps (unset or non-positive: unlimited).
ITEM_TIMEOUT_VARIABLE = "REPRO_ITEM_TIMEOUT"

#: Environment variable fixing the base retry backoff delay (seconds).
RETRY_DELAY_VARIABLE = "REPRO_RETRY_DELAY"

#: Environment variable carrying a deterministic fault-injection plan
#: (inline JSON or a path to a JSON file; see :mod:`repro.exec.faults`).
FAULT_PLAN_VARIABLE = "REPRO_FAULT_PLAN"

#: Environment variable naming a cache namespace: a single path
#: component appended to both disk-cache directories (trace cache and
#: result store), so concurrent sessions pointed at the same roots
#: cannot collide (unset/blank: no namespace).
CACHE_NAMESPACE_VARIABLE = "REPRO_CACHE_NAMESPACE"

#: Environment variable naming the durable work-queue directory used by
#: the ``queue`` executor (unset/``none``: a private per-campaign
#: temporary directory; a shared path is what lets external workers
#: cooperate on the same campaign).
QUEUE_DIR_VARIABLE = "REPRO_QUEUE_DIR"

#: Environment variable fixing the queue lease time-to-live in seconds:
#: how long a claimed item's heartbeat may go silent before the reaper
#: reclaims it from a presumed-dead worker.
LEASE_TTL_VARIABLE = "REPRO_LEASE_TTL"

#: Environment variable fixing the queue heartbeat renewal interval in
#: seconds (must be smaller than the lease TTL).
HEARTBEAT_INTERVAL_VARIABLE = "REPRO_HEARTBEAT_INTERVAL"

#: Environment variable fixing the bind address of the results service
#: (``repro-frontend serve``).  Deployment-local: never folded into
#: result keys.
SERVE_HOST_VARIABLE = "REPRO_SERVE_HOST"

#: Environment variable fixing the TCP port of the results service
#: (``0``: an ephemeral OS-assigned port, the test-friendly default).
SERVE_PORT_VARIABLE = "REPRO_SERVE_PORT"

#: Every environment variable the runtime honours, in documentation
#: order.  The API-surface test pins this tuple: growing it is an API
#: change.
ENVIRONMENT_VARIABLES: Tuple[str, ...] = (
    TRACE_ENGINE_VARIABLE,
    TRACE_CACHE_DIR_VARIABLE,
    RESULT_CACHE_DIR_VARIABLE,
    PARALLEL_VARIABLE,
    PROCESSES_VARIABLE,
    INSTRUCTIONS_VARIABLE,
    EXECUTOR_VARIABLE,
    RETRIES_VARIABLE,
    ITEM_TIMEOUT_VARIABLE,
    RETRY_DELAY_VARIABLE,
    FAULT_PLAN_VARIABLE,
    CACHE_NAMESPACE_VARIABLE,
    QUEUE_DIR_VARIABLE,
    LEASE_TTL_VARIABLE,
    HEARTBEAT_INTERVAL_VARIABLE,
    SERVE_HOST_VARIABLE,
    SERVE_PORT_VARIABLE,
)

#: Default dynamic trace length used by the profiling layers.  Scaled
#: down from the paper's multi-billion-instruction runs so the full
#: 41-workload sweeps finish in minutes on a laptop; every caller
#: accepts an ``instructions`` override.
DEFAULT_INSTRUCTIONS = 150_000

#: The default trace generation engine (bit-identical to ``reference``;
#: see :mod:`repro.trace.compiler`).
DEFAULT_TRACE_ENGINE = "compiled"

#: The default sweep executor: ``auto`` runs parallel sweeps as a queue
#: campaign on a private temporary directory and everything else
#: serially (see :mod:`repro.exec`).
DEFAULT_EXECUTOR = "auto"

#: Default per-item retry count of supervised sweeps.
DEFAULT_RETRIES = 2

#: Default base backoff delay between retries, in seconds.
DEFAULT_RETRY_DELAY = 0.05

#: Default queue lease time-to-live, in seconds.  Generous on purpose:
#: a reclaim re-runs the item, so false positives (a live worker merely
#: stalled past the TTL) cost duplicated work, while a true dead worker
#: only delays its items by the TTL.
DEFAULT_LEASE_TTL = 30.0

#: Default queue heartbeat renewal interval, in seconds.
DEFAULT_HEARTBEAT_INTERVAL = 5.0

#: Default bind address of the results service: loopback only, so a
#: bare ``repro-frontend serve`` never exposes itself off-host.
DEFAULT_SERVE_HOST = "127.0.0.1"

#: Default results-service port.
DEFAULT_SERVE_PORT = 8757

#: The recognised trace engines.
TRACE_ENGINES = ("compiled", "reference")

#: The recognised sweep executors.
EXECUTORS = ("auto", "serial", "queue")

#: Cache-directory values that disable a disk layer outright
#: (case-insensitive), shared by the trace cache and the result store.
CACHE_DISABLE_VALUES = frozenset({"", "0", "none", "off", "disabled"})

#: Truthy spellings accepted by boolean variables.
_TRUE_VALUES = frozenset({"1", "true", "yes", "on"})

#: Sentinel distinguishing "argument not passed" from an explicit
#: ``None`` (which, for the cache directories, means *disabled*).
_UNSET: Any = object()


def read_environment(name: str) -> Optional[str]:
    """Read one ``REPRO_*`` variable (the package's only such read).

    Every other module resolves runtime knobs through
    :class:`RuntimeConfig` or the ``current_*`` accessors, which funnel
    through here (``tests/test_runtime_config.py`` enforces it).
    """
    return os.environ.get(name)


def export_environment_default(name: str, value: str) -> None:
    """Export a variable into the process environment when it is unset.

    The entry-point helpers (``enable_shared_cache`` and
    ``enable_shared_result_store``) use this to default the shared cache
    directories before the process resolves its config, so later
    processes inherit them too; an explicitly set (or explicitly
    disabled) variable is left untouched.  The package's only write to
    the environment.
    """
    if os.environ.get(name) is None:
        os.environ[name] = value


def default_trace_cache_dir() -> str:
    """Per-user shared trace-cache directory (platformdirs-style).

    Honours ``$XDG_CACHE_HOME`` and falls back to ``~/.cache``, the
    conventional per-user cache root on every platform this project
    targets.
    """
    return os.path.join(_cache_home(), "repro-frontend", "traces")


def default_result_cache_dir() -> str:
    """Per-user shared result-store directory (platformdirs-style)."""
    return os.path.join(_cache_home(), "repro-frontend", "results")


def _cache_home() -> str:
    return os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )


def normalize_cache_dir(value: Optional[str]) -> Optional[str]:
    """Map a cache-directory setting to an active path or ``None``.

    ``None`` and the disable spellings (``""``/``0``/``none``/``off``/
    ``disabled``, case-insensitive) mean "no disk layer"; anything else
    is the directory itself.
    """
    if value is None:
        return None
    if value.strip().lower() in CACHE_DISABLE_VALUES:
        return None
    return value


def normalize_cache_namespace(
    value: Optional[str], strict: bool = False
) -> Optional[str]:
    """Map a cache-namespace setting to a path component or ``None``.

    ``None`` and blank mean "no namespace".  A namespace must be a
    single path component -- separators and the ``.``/``..`` traversal
    spellings are rejected, because the namespace is joined under the
    cache roots and must not escape them.  Explicit arguments
    (``strict``) raise on invalid namespaces; environment values stay
    lenient (an invalid spelling means "no namespace").
    """
    if value is None:
        return None
    namespace = str(value).strip()
    if not namespace:
        return None
    if (
        namespace in (".", "..")
        or any(sep in namespace for sep in ("/", "\\", os.sep))
    ):
        if strict:
            raise ValueError(
                f"invalid cache namespace {value!r}: must be a single "
                "path component (no separators, not '.' or '..')"
            )
        return None
    return namespace


def _namespaced(directory: Optional[str], namespace: Optional[str]) -> Optional[str]:
    """Join the cache namespace under an enabled cache directory."""
    if directory is None or namespace is None:
        return directory
    return os.path.join(directory, namespace)


def _resolve_engine(value: str, strict: bool = False) -> str:
    """Normalize a trace-engine spelling.

    Explicit arguments (``strict``) raise on unknown engines -- the
    typed API should not silently swallow a typo -- while environment
    values stay lenient (anything unrecognized means the default),
    matching the historical env-var contract.
    """
    engine = value.strip().lower()
    if engine in TRACE_ENGINES:
        return engine
    if strict:
        raise ValueError(
            f"unknown trace engine {value!r}; expected one of {TRACE_ENGINES}"
        )
    return DEFAULT_TRACE_ENGINE


def _resolve_executor(value: str, strict: bool = False) -> str:
    """Normalize an executor spelling (blank means the default).

    Strict for explicit arguments, lenient for environment values,
    exactly like :func:`_resolve_engine`.
    """
    executor = value.strip().lower() or DEFAULT_EXECUTOR
    if executor in EXECUTORS:
        return executor
    if strict:
        raise ValueError(f"unknown executor {value!r}; expected one of {EXECUTORS}")
    return DEFAULT_EXECUTOR


def _env_bool(name: str, default: bool) -> bool:
    value = read_environment(name)
    if value is None:
        return default
    return value.strip().lower() in _TRUE_VALUES


def _env_int(name: str, default: Optional[int]) -> Optional[int]:
    value = read_environment(name)
    if value is None:
        return default
    try:
        return int(value)
    except ValueError:
        return default


def _env_float(name: str, default: Optional[float]) -> Optional[float]:
    value = read_environment(name)
    if value is None:
        return default
    try:
        return float(value)
    except ValueError:
        return default


@dataclass(frozen=True)
class RuntimeConfig:
    """Frozen snapshot of every runtime knob the package honours.

    Construct via :meth:`from_environment` (explicit keyword beats
    environment variable beats default, field by field) or directly
    with plain values.  Construction validates the engine (unknown
    spellings raise) and normalizes both cache-directory fields to
    their *resolved* setting: ``None`` means "no disk layer", anything
    else is the active directory -- the ``none``-disables spelling is
    applied here, so consumers never re-parse it.
    """

    #: Trace generation engine: ``"compiled"`` or ``"reference"``.
    trace_engine: str = DEFAULT_TRACE_ENGINE
    #: On-disk trace-cache directory, or ``None`` when disabled.
    trace_cache_dir: Optional[str] = None
    #: On-disk result-store directory, or ``None`` when disabled.
    result_cache_dir: Optional[str] = None
    #: Whether sweeps fan out across worker processes by default.
    parallel: bool = False
    #: Worker-process count for parallel sweeps (``None``: CPU count).
    processes: Optional[int] = None
    #: Default dynamic trace length per workload.
    instructions: int = DEFAULT_INSTRUCTIONS
    #: Sweep executor: ``"auto"``, ``"serial"`` or ``"queue"``.
    executor: str = DEFAULT_EXECUTOR
    #: Per-item retries of supervised sweeps (0 disables retrying).
    retries: int = DEFAULT_RETRIES
    #: Per-item timeout in seconds (``None``/non-positive: unlimited).
    item_timeout: Optional[float] = None
    #: Base backoff delay between retries, in seconds.
    retry_delay: float = DEFAULT_RETRY_DELAY
    #: Deterministic fault-injection plan: inline JSON or a file path
    #: (``None``: no injection).  Parsed by :mod:`repro.exec.faults`.
    fault_plan: Optional[str] = None
    #: Cache namespace: one path component appended to both disk-cache
    #: directories, isolating concurrent sessions (``None``: none).
    cache_namespace: Optional[str] = None
    #: Durable work-queue directory for the ``queue`` executor
    #: (``None``: a private per-campaign temporary directory).
    queue_dir: Optional[str] = None
    #: Queue lease time-to-live in seconds: heartbeat silence beyond
    #: this and the reaper reclaims the item.
    lease_ttl: float = DEFAULT_LEASE_TTL
    #: Queue heartbeat renewal interval in seconds (< ``lease_ttl``).
    heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL
    #: Results-service bind address (deployment-local; never keyed).
    serve_host: str = DEFAULT_SERVE_HOST
    #: Results-service TCP port (``0``: OS-assigned ephemeral port).
    serve_port: int = DEFAULT_SERVE_PORT

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "trace_engine", _resolve_engine(str(self.trace_engine), strict=True)
        )
        object.__setattr__(
            self, "trace_cache_dir", normalize_cache_dir(self.trace_cache_dir)
        )
        object.__setattr__(
            self, "result_cache_dir", normalize_cache_dir(self.result_cache_dir)
        )
        if self.instructions <= 0:
            raise ValueError(
                f"instructions must be positive, got {self.instructions!r}"
            )
        object.__setattr__(
            self, "executor", _resolve_executor(str(self.executor), strict=True)
        )
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        timeout = self.item_timeout
        if timeout is not None:
            timeout = float(timeout)
            if timeout <= 0:
                raise ValueError(
                    f"item_timeout must be positive (or None for unlimited), "
                    f"got {self.item_timeout!r}"
                )
        object.__setattr__(self, "item_timeout", timeout)
        retry_delay = float(self.retry_delay)
        if retry_delay <= 0:
            raise ValueError(
                f"retry_delay must be positive, got {self.retry_delay!r}"
            )
        object.__setattr__(self, "retry_delay", retry_delay)
        object.__setattr__(
            self,
            "cache_namespace",
            normalize_cache_namespace(self.cache_namespace, strict=True),
        )
        object.__setattr__(self, "queue_dir", normalize_cache_dir(self.queue_dir))
        lease_ttl = float(self.lease_ttl)
        if lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be positive, got {self.lease_ttl!r}")
        heartbeat = float(self.heartbeat_interval)
        if heartbeat <= 0:
            raise ValueError(
                f"heartbeat_interval must be positive, "
                f"got {self.heartbeat_interval!r}"
            )
        if heartbeat >= lease_ttl:
            if heartbeat == DEFAULT_HEARTBEAT_INTERVAL:
                # An untouched default heartbeat scales with a lowered
                # TTL (same ratio as the defaults) instead of raising on
                # a construction that only named the TTL.
                heartbeat = lease_ttl * (DEFAULT_HEARTBEAT_INTERVAL / DEFAULT_LEASE_TTL)
            else:
                raise ValueError(
                    f"heartbeat_interval ({self.heartbeat_interval!r}) must be "
                    f"smaller than lease_ttl ({self.lease_ttl!r})"
                )
        object.__setattr__(self, "lease_ttl", lease_ttl)
        object.__setattr__(self, "heartbeat_interval", heartbeat)
        host = str(self.serve_host).strip() or DEFAULT_SERVE_HOST
        object.__setattr__(self, "serve_host", host)
        port = int(self.serve_port)
        if not 0 <= port <= 65535:
            raise ValueError(
                f"serve_port must be in [0, 65535] (0: ephemeral), "
                f"got {self.serve_port!r}"
            )
        object.__setattr__(self, "serve_port", port)

    @classmethod
    def from_environment(
        cls,
        *,
        trace_engine: Union[str, Any] = _UNSET,
        trace_cache_dir: Union[str, None, Any] = _UNSET,
        result_cache_dir: Union[str, None, Any] = _UNSET,
        parallel: Union[bool, Any] = _UNSET,
        processes: Union[int, None, Any] = _UNSET,
        instructions: Union[int, Any] = _UNSET,
        executor: Union[str, Any] = _UNSET,
        retries: Union[int, Any] = _UNSET,
        item_timeout: Union[float, None, Any] = _UNSET,
        retry_delay: Union[float, Any] = _UNSET,
        fault_plan: Union[str, None, Any] = _UNSET,
        cache_namespace: Union[str, None, Any] = _UNSET,
        queue_dir: Union[str, None, Any] = _UNSET,
        lease_ttl: Union[float, Any] = _UNSET,
        heartbeat_interval: Union[float, Any] = _UNSET,
        serve_host: Union[str, Any] = _UNSET,
        serve_port: Union[int, Any] = _UNSET,
    ) -> "RuntimeConfig":
        """Resolve a config with explicit > environment > default.

        For the cache directories an explicit ``None`` (or any disable
        spelling) disables the disk layer even when the environment
        names a directory; an unset environment variable also means
        "disabled", matching the historical library default -- except
        under ``parallel``, where a fully unset trace-cache setting
        defaults to the per-user shared directory, mirroring the legacy
        ``run_sweep(run_parallel=True)`` auto-enable (an explicit
        disable still wins).  An explicit unknown ``trace_engine`` or
        ``executor`` raises; an unknown environment spelling falls back
        to the default.
        """
        if trace_engine is _UNSET:
            environment_engine = read_environment(TRACE_ENGINE_VARIABLE) or ""
            resolved_engine = _resolve_engine(environment_engine)
        else:
            resolved_engine = _resolve_engine(str(trace_engine), strict=True)
        if parallel is _UNSET:
            resolved_parallel = _env_bool(PARALLEL_VARIABLE, False)
        else:
            resolved_parallel = bool(parallel)
        if trace_cache_dir is _UNSET:
            trace_cache_dir = read_environment(TRACE_CACHE_DIR_VARIABLE)
            if trace_cache_dir is None and resolved_parallel:
                trace_cache_dir = default_trace_cache_dir()
        if result_cache_dir is _UNSET:
            result_cache_dir = read_environment(RESULT_CACHE_DIR_VARIABLE)
        if processes is _UNSET:
            resolved_processes = _env_int(PROCESSES_VARIABLE, None)
        else:
            resolved_processes = None if processes is None else int(processes)
        if instructions is _UNSET:
            resolved_instructions = _env_int(INSTRUCTIONS_VARIABLE, None)
            if resolved_instructions is None or resolved_instructions <= 0:
                resolved_instructions = DEFAULT_INSTRUCTIONS
        else:
            resolved_instructions = int(instructions)
        if executor is _UNSET:
            executor = _resolve_executor(read_environment(EXECUTOR_VARIABLE) or "")
        if retries is _UNSET:
            resolved_retries = _env_int(RETRIES_VARIABLE, DEFAULT_RETRIES)
            if resolved_retries is None or resolved_retries < 0:
                resolved_retries = DEFAULT_RETRIES
        else:
            resolved_retries = int(retries)
        if item_timeout is _UNSET:
            # Environment values stay lenient (the historical env-var
            # contract): a non-positive timeout means "unlimited".
            item_timeout = _env_float(ITEM_TIMEOUT_VARIABLE, None)
            if item_timeout is not None and item_timeout <= 0:
                item_timeout = None
        if retry_delay is _UNSET:
            resolved_retry_delay = _env_float(RETRY_DELAY_VARIABLE, None)
            if resolved_retry_delay is None or resolved_retry_delay <= 0:
                resolved_retry_delay = DEFAULT_RETRY_DELAY
        else:
            resolved_retry_delay = float(retry_delay)
        if fault_plan is _UNSET:
            fault_plan = read_environment(FAULT_PLAN_VARIABLE) or None
        if cache_namespace is _UNSET:
            cache_namespace = normalize_cache_namespace(
                read_environment(CACHE_NAMESPACE_VARIABLE)
            )
        if queue_dir is _UNSET:
            queue_dir = read_environment(QUEUE_DIR_VARIABLE)
        lease_ttl_explicit = lease_ttl is not _UNSET
        heartbeat_explicit = heartbeat_interval is not _UNSET
        if not lease_ttl_explicit:
            lease_ttl = _env_float(LEASE_TTL_VARIABLE, None)
            if lease_ttl is None or lease_ttl <= 0:
                lease_ttl = DEFAULT_LEASE_TTL
        if not heartbeat_explicit:
            heartbeat_interval = _env_float(HEARTBEAT_INTERVAL_VARIABLE, None)
            if heartbeat_interval is None or heartbeat_interval <= 0:
                heartbeat_interval = DEFAULT_HEARTBEAT_INTERVAL
            if (
                heartbeat_interval >= float(lease_ttl)
                and heartbeat_interval != DEFAULT_HEARTBEAT_INTERVAL
            ):
                # An env-only conflicting pair falls back leniently to
                # the default ratio; explicit arguments raise instead
                # (validated at construction below).
                heartbeat_interval = float(lease_ttl) * (
                    DEFAULT_HEARTBEAT_INTERVAL / DEFAULT_LEASE_TTL
                )
        if serve_host is _UNSET:
            serve_host = read_environment(SERVE_HOST_VARIABLE) or DEFAULT_SERVE_HOST
        if serve_port is _UNSET:
            resolved_serve_port = _env_int(SERVE_PORT_VARIABLE, DEFAULT_SERVE_PORT)
            if resolved_serve_port is None or not 0 <= resolved_serve_port <= 65535:
                resolved_serve_port = DEFAULT_SERVE_PORT
        else:
            resolved_serve_port = int(serve_port)
        return cls(
            trace_engine=resolved_engine,
            trace_cache_dir=normalize_cache_dir(trace_cache_dir),
            result_cache_dir=normalize_cache_dir(result_cache_dir),
            parallel=resolved_parallel,
            processes=resolved_processes,
            instructions=int(resolved_instructions),
            executor=str(executor),
            retries=resolved_retries,
            item_timeout=item_timeout,
            retry_delay=resolved_retry_delay,
            fault_plan=fault_plan,
            cache_namespace=cache_namespace,
            queue_dir=normalize_cache_dir(queue_dir),
            lease_ttl=float(lease_ttl),
            heartbeat_interval=float(heartbeat_interval),
            serve_host=str(serve_host),
            serve_port=resolved_serve_port,
        )

    def replace(self, **changes: Any) -> "RuntimeConfig":
        """A copy with some fields changed (re-validated on construction)."""
        return dataclasses.replace(self, **changes)

    def semantic(self) -> Dict[str, Any]:
        """The fields folded into content-addressed result keys.

        Only knobs that could conceivably change stored numbers belong
        here; execution details (parallelism, worker counts, cache
        locations, executor choice, retry/timeout policy, fault plans,
        the results-service host/port) are deliberately absent because
        serial and supervised parallel sweeps -- and both engines --
        produce bit-identical results.
        The engine is still keyed as defence in depth: if a regression
        ever broke engine equivalence, the two engines' *result-store*
        entries at least stay separate.  (The trace cache underneath is
        engine-agnostic -- it trusts the asserted equivalence -- so
        this is a containment measure, not an isolation guarantee.)
        """
        return {"trace_engine": self.trace_engine}

    def describe(self) -> Dict[str, Any]:
        """Plain-dict form of every field (for logs and manifests)."""
        return dataclasses.asdict(self)


#: The activated config, or ``None`` outside any activation.  A
#: :class:`~contextvars.ContextVar` so concurrent sessions in separate
#: threads (or async tasks) cannot cross-contaminate.  Worker processes
#: never rely on inheriting it: they are handed their parent's config
#: and activate it themselves.
_ACTIVE: "contextvars.ContextVar[Optional[RuntimeConfig]]" = contextvars.ContextVar(
    "repro_active_runtime_config", default=None
)


def active_config() -> Optional[RuntimeConfig]:
    """The currently activated config, or ``None`` outside any activation."""
    return _ACTIVE.get()


def current_config() -> RuntimeConfig:
    """The activated config, or a fresh environment snapshot.

    Outside any activation this re-reads the environment on every call
    (tests monkeypatching ``REPRO_*`` variables included).
    """
    active = _ACTIVE.get()
    if active is not None:
        return active
    return RuntimeConfig.from_environment()


@contextlib.contextmanager
def activated(config: RuntimeConfig) -> Iterator[RuntimeConfig]:
    """Make ``config`` the active config for a scope (this context only).

    Scopes nest; the previous active config (or none) is restored on
    exit.
    """
    token = _ACTIVE.set(config)
    try:
        yield config
    finally:
        _ACTIVE.reset(token)


def current_trace_engine() -> str:
    """Engine the workload layer should generate traces with."""
    return current_config().trace_engine


def current_cache_namespace() -> Optional[str]:
    """Current cache namespace, or ``None`` when unset."""
    return current_config().cache_namespace


def current_trace_cache_dir() -> Optional[str]:
    """Current trace-cache directory (namespaced), or ``None`` when disabled."""
    config = current_config()
    return _namespaced(config.trace_cache_dir, config.cache_namespace)


def current_result_cache_dir() -> Optional[str]:
    """Current result-store directory (namespaced), or ``None`` when disabled."""
    config = current_config()
    return _namespaced(config.result_cache_dir, config.cache_namespace)


def current_queue_dir() -> Optional[str]:
    """Current work-queue directory, or ``None`` (ephemeral campaigns)."""
    return current_config().queue_dir


def semantic_runtime() -> Dict[str, Any]:
    """Key material of the current runtime (see :meth:`RuntimeConfig.semantic`)."""
    return current_config().semantic()


def runtime_material(runtime: Optional[Mapping[str, Any]] = None) -> Dict[str, Any]:
    """Normalize the runtime component of a result key.

    ``None`` means "whatever is current"; an explicit mapping (e.g.
    from a stored :class:`RuntimeConfig`) is passed through, so the
    orchestrator can key results off a session's config instead of
    process-global state.
    """
    if runtime is None:
        return semantic_runtime()
    return dict(runtime)
