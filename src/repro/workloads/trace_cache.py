"""Shared workload-trace cache (process-wide, plus an optional disk layer).

This is the single place a dynamic trace of a catalogued workload is
supposed to come from: every profiling layer (the experiment drivers,
the Section V CMP simulator, benchmarks, examples) routes through
:func:`workload_trace` so one trace per ``(workload, instructions,
seed)`` exists per process, regardless of which driver asked first.

The cache lives in the workloads layer -- below both ``experiments``
and ``uarch`` -- precisely so the micro-architecture simulator can use
it without a layering cycle.

Set the ``REPRO_TRACE_CACHE_DIR`` environment variable to also persist
trace columns on disk as ``.npz`` files, so separate driver *processes*
(each CLI invocation is one, as is every ``--parallel`` worker) share
traces too.  Parallel sweeps (:meth:`repro.api.session.Session.map`
under a parallel config) enable the disk layer automatically under a
per-user cache directory (``$XDG_CACHE_HOME/repro-frontend/traces``,
falling back to ``~/.cache``); set the variable to an explicit path to
relocate it, or to one of ``""``/``none``/``off``/``0`` to disable the
disk layer entirely.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import threading
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.api import runtime_config
from repro.trace.columns import program_columns
from repro.trace.events import Trace
from repro.workloads.spec import WorkloadSpec
from repro.workloads.synthesis import SyntheticWorkload, build_workload

#: Default dynamic trace length used by the profiling layers (owned by
#: :mod:`repro.api.runtime_config`, aliased here so both layers agree
#: on what a cached "profile length" trace is); every caller accepts an
#: ``instructions`` override, and an *omitted* override resolves
#: through :func:`default_profile_instructions` so the
#: ``REPRO_INSTRUCTIONS`` variable and session budgets apply.
DEFAULT_PROFILE_INSTRUCTIONS = runtime_config.DEFAULT_INSTRUCTIONS


def default_profile_instructions() -> int:
    """The instruction budget an omitted ``instructions`` resolves to.

    The activated session's budget when one is active, else
    ``REPRO_INSTRUCTIONS``, else :data:`DEFAULT_PROFILE_INSTRUCTIONS`
    -- the same explicit > environment > default chain every other
    runtime knob follows.
    """
    return runtime_config.current_config().instructions

#: Directory for the optional on-disk trace cache.  When set, generated
#: trace columns are persisted as ``.npz`` files so separate driver
#: *processes* (each CLI invocation is one) share traces too.  Owned by
#: :mod:`repro.api.runtime_config`; re-exported here for compatibility.
TRACE_CACHE_DIR_VARIABLE = runtime_config.TRACE_CACHE_DIR_VARIABLE

#: Version salt folded into the disk-cache fingerprint.  Bump when the
#: trace *generation* semantics change in a way the static-layout
#: fingerprint cannot see (e.g. executor or schedule behaviour).
TRACE_CACHE_VERSION = 1

#: Process-wide trace cache: (cache namespace, workload name,
#: instructions, seed) -> Trace.  The namespace component scopes
#: entries to the active session's ``cache_namespace`` (``None`` when
#: unset) so concurrent namespaced sessions in one process never
#: observe each other's in-memory traces -- mirroring the disk-layer
#: isolation that landed with the namespaced cache directories.
_TRACE_CACHE: Dict[Tuple[Optional[str], str, int, int], Trace] = {}
_TRACE_CACHE_LOCK = threading.Lock()
_TRACE_CACHE_STATS = {
    "hits": 0,
    "misses": 0,
    "disk_hits": 0,
    "disk_misses": 0,
    "disk_stores": 0,
    "quarantined": 0,
}

#: Callbacks run by :func:`clear_trace_cache` so higher layers with
#: derived caches (e.g. the uarch profile cache) stay consistent
#: without this module importing them.
_CLEAR_CALLBACKS: List[Callable[[], None]] = []

#: Named cache-statistics providers (trace cache, profile cache, result
#: store, ...).  Each layer registers its own counter snapshot here so
#: the CLI's ``--verbose`` reporting does not hard-code the cache
#: inventory; this module hosts the registry because it sits below
#: every cache-owning layer.
_STATS_PROVIDERS: Dict[str, Callable[[], Dict[str, int]]] = {}


def register_stats_provider(
    name: str, provider: Callable[[], Dict[str, int]]
) -> Optional[Callable[[], Dict[str, int]]]:
    """Register a named cache-counter snapshot provider.

    Re-registering an already-used name **replaces** the previous
    provider rather than accumulating a duplicate: each cache owns
    exactly one snapshot per name, so a module re-import (or a test
    installing an instrumented provider) never double-counts in
    :func:`all_cache_stats`.  Returns the replaced provider, or
    ``None`` for a first registration, so callers that wrap an
    existing provider can restore it.
    """
    previous = _STATS_PROVIDERS.get(name)
    _STATS_PROVIDERS[name] = provider
    return previous


def all_cache_stats() -> Dict[str, Dict[str, int]]:
    """Snapshot every registered cache's counters, keyed by cache name.

    Only caches whose owning module has been imported appear -- the
    registry is populated at import time by each layer.
    """
    return {name: provider() for name, provider in _STATS_PROVIDERS.items()}


def default_shared_cache_dir() -> str:
    """Per-user shared trace-cache directory (platformdirs-style).

    Honours ``$XDG_CACHE_HOME`` and falls back to ``~/.cache``, the
    conventional per-user cache root on every platform this project
    targets.
    """
    return runtime_config.default_trace_cache_dir()


def resolved_cache_dir() -> Optional[str]:
    """The active disk-cache directory, or ``None`` when disabled.

    Resolution goes through :mod:`repro.api.runtime_config`: an
    activated session config wins; otherwise the environment variable
    rules, where unset means "no disk layer" for plain calls (parallel
    sweeps opt in via :func:`enable_shared_cache`) and an explicit
    disable value turns the disk layer off everywhere.
    """
    return runtime_config.current_trace_cache_dir()


def enable_shared_cache() -> Optional[str]:
    """Turn the disk layer on, defaulting to the per-user directory.

    Called by parallel sweeps before forking workers: when the cache
    directory variable is unset it is exported (so worker processes
    inherit it); an explicit path or disable value is left untouched.
    Returns the active directory, or ``None`` when explicitly disabled.
    """
    runtime_config.export_environment_default(
        TRACE_CACHE_DIR_VARIABLE, default_shared_cache_dir()
    )
    return resolved_cache_dir()


def trace_on_disk(spec: WorkloadSpec, instructions: int, seed: int = 0) -> bool:
    """Whether the disk layer holds a *loadable* trace for this key.

    Checks the stored fingerprint against the current program layout
    (a stale or corrupt entry would be rejected at load time anyway),
    so sweep priming regenerates exactly the traces that need it.
    """
    path = _disk_cache_path((spec.name, int(instructions), int(seed)))
    if path is None or not os.path.exists(path):
        return False
    try:
        with np.load(path) as archive:
            fingerprint = str(archive["fingerprint"])
    except Exception:
        _quarantine_trace_entry(path)  # Unreadable archive: preserve it.
        return False
    return fingerprint == _program_fingerprint(build_workload(spec).program)


def register_cache_clearer(callback: Callable[[], None]) -> None:
    """Register a callback invoked whenever the trace cache is cleared.

    Higher layers that memoize results *derived* from cached traces
    (the process-wide front-end profile cache in
    :mod:`repro.uarch.simulator`) register their own clearers here so
    :func:`clear_trace_cache` drops the whole dependent chain at once.
    """
    if callback not in _CLEAR_CALLBACKS:
        _CLEAR_CALLBACKS.append(callback)


def workload_trace(
    spec: WorkloadSpec,
    instructions: Optional[int] = None,
    seed: int = 0,
) -> Trace:
    """Build (or reuse) the synthetic workload and return its trace.

    Traces are cached process-wide, keyed by ``(cache namespace,
    spec.name, instructions, seed)``, so the experiment drivers share
    one trace per workload instead of each regenerating all of them.
    Repeated calls with the same key return the *same* object; sessions
    with distinct ``cache_namespace`` settings get distinct entries,
    exactly as they get distinct disk directories.  Set the
    ``REPRO_TRACE_CACHE_DIR`` environment variable to also persist
    trace columns on disk and share them across driver processes.
    """
    if instructions is None:
        instructions = default_profile_instructions()
    namespace = runtime_config.current_cache_namespace()
    key = (namespace, spec.name, int(instructions), int(seed))
    disk_key = (spec.name, int(instructions), int(seed))
    with _TRACE_CACHE_LOCK:
        cached = _TRACE_CACHE.get(key)
        if cached is not None:
            _TRACE_CACHE_STATS["hits"] += 1
            return cached
        _TRACE_CACHE_STATS["misses"] += 1

    disk_enabled = resolved_cache_dir() is not None
    trace = _load_trace_from_disk(spec, disk_key)
    if trace is None:
        if disk_enabled:
            with _TRACE_CACHE_LOCK:
                _TRACE_CACHE_STATS["disk_misses"] += 1
        workload: SyntheticWorkload = build_workload(spec)
        trace = workload.trace(int(instructions), seed=seed)
        if namespace is not None:
            # The built workload's trace is shared by every namespace:
            # wrap its columns in a namespace-private Trace so per-trace
            # caches (decoded streams, component results) stay isolated.
            trace = Trace.from_columns(
                trace.program, *trace.event_columns(), name=trace.name
            )
        if _store_trace_to_disk(trace, disk_key):
            with _TRACE_CACHE_LOCK:
                _TRACE_CACHE_STATS["disk_stores"] += 1
    else:
        with _TRACE_CACHE_LOCK:
            _TRACE_CACHE_STATS["disk_hits"] += 1
    with _TRACE_CACHE_LOCK:
        _TRACE_CACHE[key] = trace
    return trace


def clear_trace_cache() -> None:
    """Drop every cached trace (mainly for tests and memory pressure).

    Also clears the workload-builder cache underneath, which holds the
    built programs and their per-workload trace dictionaries; without
    that, the traces would stay strongly referenced and the next
    "miss" would silently return the same objects.  Registered
    dependent caches (see :func:`register_cache_clearer`) are cleared
    last.
    """
    with _TRACE_CACHE_LOCK:
        _TRACE_CACHE.clear()
        for counter in _TRACE_CACHE_STATS:
            _TRACE_CACHE_STATS[counter] = 0
    build_workload.cache_clear()
    for callback in _CLEAR_CALLBACKS:
        callback()


def trace_cache_info() -> Dict[str, int]:
    """Hit/miss/size counters of the process-wide trace cache.

    ``disk_hits``/``disk_misses``/``disk_stores`` count the optional
    ``.npz`` layer; they stay zero while it is disabled.
    """
    with _TRACE_CACHE_LOCK:
        info = dict(_TRACE_CACHE_STATS)
        info["entries"] = len(_TRACE_CACHE)
        return info


register_stats_provider("traces", trace_cache_info)


def _disk_cache_path(key: Tuple[str, int, int]) -> Optional[str]:
    directory = resolved_cache_dir()
    if directory is None:
        return None
    name, instructions, seed = key
    return os.path.join(directory, f"{name}-{instructions}-{seed}.npz")


def _program_fingerprint(program) -> str:
    """Digest of the laid-out static program a cached trace refers to.

    Guards the disk cache against synthesis or layout changes: any
    difference in block addresses, sizes, instruction counts,
    terminators, or static targets invalidates the entry.  Generation
    changes invisible to the static layout (branch probabilities,
    executor behaviour) are covered by bumping
    :data:`TRACE_CACHE_VERSION`.
    """
    columns = program_columns(program)
    digest = hashlib.sha1(f"v{TRACE_CACHE_VERSION}:".encode())
    for array in (
        columns.addresses,
        columns.size_bytes,
        columns.num_instructions,
        columns.terminators,
        columns.taken_targets,
    ):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _load_trace_from_disk(
    spec: WorkloadSpec, key: Tuple[str, int, int]
) -> Optional[Trace]:
    path = _disk_cache_path(key)
    if path is None or not os.path.exists(path):
        return None
    try:
        with np.load(path) as archive:
            columns = (
                archive["block_ids"],
                archive["taken"],
                archive["targets"],
                archive["sections"],
            )
            fingerprint = str(archive["fingerprint"])
    except Exception:
        # An unreadable archive (torn write, truncation, disk damage)
        # is evidence of a fault: quarantine it as ``*.corrupt`` and
        # regenerate.  A *stale* entry below is not quarantined -- it
        # is a valid archive from older code, simply superseded.
        _quarantine_trace_entry(path)
        return None
    program = build_workload(spec).program
    if fingerprint != _program_fingerprint(program):
        return None  # Synthesis/layout changed; the cached columns are stale.
    return Trace.from_columns(program, *columns, name=spec.name)


def _quarantine_trace_entry(path: str) -> None:
    """Rename an unreadable ``.npz`` to ``*.corrupt`` and count it.

    The rename itself is shared with the sweep journal and the result
    store (:func:`repro.exec.journal.quarantine_entry`, imported lazily
    to keep this layer importable on its own); the counter lives in
    this cache's stats so ``--verbose`` reporting attributes the damage
    to the right store.
    """
    from repro.exec.journal import quarantine_entry

    if quarantine_entry(path) is not None:
        with _TRACE_CACHE_LOCK:
            _TRACE_CACHE_STATS["quarantined"] += 1


def _store_trace_to_disk(trace: Trace, key: Tuple[str, int, int]) -> bool:
    path = _disk_cache_path(key)
    if path is None:
        return False
    # Write-then-rename keeps the store atomic: the shared directory is
    # populated concurrently by parallel drivers, and a reader must
    # never observe a half-written archive.
    temporary = None
    try:
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        handle, temporary = tempfile.mkstemp(suffix=".npz.tmp", dir=directory)
        with os.fdopen(handle, "wb") as stream:
            np.savez_compressed(
                stream,
                block_ids=trace.block_ids,
                taken=trace.taken_column,
                targets=trace.target_column,
                sections=trace.section_column,
                fingerprint=np.str_(_program_fingerprint(trace.program)),
            )
        os.replace(temporary, path)
    except OSError:
        if temporary is not None:
            try:
                os.unlink(temporary)
            except OSError:
                pass
        return False  # Disk cache is best-effort.
    return True
