"""Drive traces through the front-end structure simulators.

These functions are the microarchitecture-dependent pintools of
Section IV: each one walks the dynamic trace and reports misses per
kilo-instruction (MPKI) for a branch predictor, a BTB, or an I-cache,
optionally restricted to the serial or parallel code section.

Every config-driven call goes through one *component-result table* per
trace: a predictor, BTB or I-cache geometry is simulated at most once
per (trace, section) in a process, however many sweeps, chunks or
figures ask for it.  Calls that pass a simulator instance are never
memoized, because an instance carries its state across calls.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.frontend.btb import BranchTargetBuffer
from repro.frontend.configs import (
    BranchPredictorConfig,
    BTBConfig,
    FrontEndConfig,
    ICacheConfig,
)
from repro.frontend.icache import InstructionCache
from repro.frontend.predictors import BranchPredictor
from repro.trace.columns import program_columns
from repro.trace.events import Trace
from repro.trace.instruction import BranchKind, CodeSection
from repro.workloads.trace_cache import register_cache_clearer, register_stats_provider


@dataclass(frozen=True)
class BranchPredictionResult:
    """Outcome of simulating a direction predictor over a trace section."""

    predictor_name: str
    section: CodeSection
    instruction_count: int
    conditional_branches: int
    mispredictions: int
    mispredicted_not_taken: int
    mispredicted_taken_backward: int
    mispredicted_taken_forward: int

    @property
    def mpki(self) -> float:
        """Branch mispredictions per kilo-instruction."""
        if self.instruction_count == 0:
            return 0.0
        return self.mispredictions * 1000.0 / self.instruction_count

    @property
    def misprediction_rate(self) -> float:
        """Mispredictions per executed conditional branch."""
        if self.conditional_branches == 0:
            return 0.0
        return self.mispredictions / self.conditional_branches

    def breakdown_mpki(self) -> dict:
        """MPKI split by the outcome class of the mispredicted branch."""
        if self.instruction_count == 0:
            return {"not taken": 0.0, "taken backward": 0.0, "taken forward": 0.0}
        scale = 1000.0 / self.instruction_count
        return {
            "not taken": self.mispredicted_not_taken * scale,
            "taken backward": self.mispredicted_taken_backward * scale,
            "taken forward": self.mispredicted_taken_forward * scale,
        }


@dataclass(frozen=True)
class BTBResult:
    """Outcome of simulating a branch target buffer over a trace section."""

    entries: int
    associativity: int
    section: CodeSection
    instruction_count: int
    taken_branches: int
    misses: int

    @property
    def mpki(self) -> float:
        """BTB misses per kilo-instruction."""
        if self.instruction_count == 0:
            return 0.0
        return self.misses * 1000.0 / self.instruction_count

    @property
    def miss_rate(self) -> float:
        """Misses per taken branch lookup."""
        if self.taken_branches == 0:
            return 0.0
        return self.misses / self.taken_branches


@dataclass(frozen=True)
class ICacheResult:
    """Outcome of simulating an instruction cache over a trace section."""

    size_bytes: int
    line_bytes: int
    associativity: int
    section: CodeSection
    instruction_count: int
    accesses: int
    misses: int

    @property
    def mpki(self) -> float:
        """I-cache misses per kilo-instruction."""
        if self.instruction_count == 0:
            return 0.0
        return self.misses * 1000.0 / self.instruction_count

    @property
    def miss_rate(self) -> float:
        """Misses per line access."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses


@dataclass(frozen=True)
class FrontEndResult:
    """MPKI of the three front-end structures for one configuration."""

    config_name: str
    section: CodeSection
    branch: BranchPredictionResult
    btb: BTBResult
    icache: ICacheResult


#: A component geometry the result table is keyed by, and its result.
Component = Union[BranchPredictorConfig, BTBConfig, ICacheConfig]
ComponentResult = Union[BranchPredictionResult, BTBResult, ICacheResult]

#: Hit/miss counters of the component-result tables of every trace in
#: the process (see :func:`component_table_info`).
_COMPONENT_STATS = {"hits": 0, "misses": 0}
_COMPONENT_STATS_LOCK = threading.Lock()


def simulate_branch_predictor(
    trace: Trace,
    predictor: BranchPredictor,
    section: CodeSection = CodeSection.TOTAL,
) -> BranchPredictionResult:
    """Measure the branch MPKI of a direction predictor on one trace.

    The conditional-branch stream is gathered from the trace columns in
    one shot; the predictor runs its batch path (vectorized for static
    predictors, a tight inlined loop for the stateful ones) and the
    misprediction breakdown is tallied with boolean-mask reductions.
    The result is not memoized: ``predictor`` keeps its state.
    """
    columns = trace.branch_columns(section)
    mask = columns.is_conditional
    addresses = columns.addresses[mask]
    taken = columns.taken[mask]
    targets = columns.targets[mask]
    conditional = int(addresses.shape[0])

    predictions = predictor.simulate_sequence(addresses, taken, targets)

    wrong = predictions != taken
    mispredictions = int(np.count_nonzero(wrong))
    miss_not_taken = int(np.count_nonzero(wrong & ~taken))
    backward = (targets >= 0) & (targets < addresses)
    miss_taken_backward = int(np.count_nonzero(wrong & taken & backward))
    miss_taken_forward = mispredictions - miss_not_taken - miss_taken_backward

    return BranchPredictionResult(
        predictor_name=predictor.name,
        section=section,
        instruction_count=trace.instruction_count(section),
        conditional_branches=conditional,
        mispredictions=mispredictions,
        mispredicted_not_taken=miss_not_taken,
        mispredicted_taken_backward=miss_taken_backward,
        mispredicted_taken_forward=miss_taken_forward,
    )


def simulate_btb(
    trace: Trace,
    btb: Optional[BranchTargetBuffer] = None,
    section: CodeSection = CodeSection.TOTAL,
    entries: int = 2048,
    associativity: int = 4,
    include_returns: bool = False,
) -> BTBResult:
    """Measure BTB MPKI: taken branches that miss in the target buffer.

    Returns are excluded by default because their targets are supplied
    by the return address stack rather than the BTB.  Without ``btb``
    (and without ``include_returns``) the ``entries``/``associativity``
    geometry is served from the trace's component-result table; a
    passed instance keeps its state and is run afresh on every call.
    """
    if btb is None:
        if not include_returns:
            geometry = BTBConfig(entries, associativity)
            return simulate_components(trace, [geometry], section)[geometry]
        btb = BranchTargetBuffer(entries, associativity)
    columns = trace.branch_columns(section)
    mask = columns.taken & (columns.targets >= 0)
    if not include_returns:
        mask &= columns.kinds != int(BranchKind.RETURN)
    addresses = columns.addresses[mask]
    targets = columns.targets[mask]
    taken_branches = int(addresses.shape[0])
    misses = btb.access_sequence(addresses, targets)
    return BTBResult(
        entries=btb.entries,
        associativity=btb.associativity,
        section=section,
        instruction_count=trace.instruction_count(section),
        taken_branches=taken_branches,
        misses=misses,
    )


def simulate_icache(
    trace: Trace,
    cache: Optional[InstructionCache] = None,
    section: CodeSection = CodeSection.TOTAL,
    size_bytes: int = 32 * 1024,
    line_bytes: int = 64,
    associativity: int = 4,
) -> ICacheResult:
    """Measure I-cache MPKI with sequential-fetch access semantics.

    Without ``cache`` the geometry is served from the trace's
    component-result table; a passed instance is run afresh.
    """
    if cache is None:
        geometry = ICacheConfig(size_bytes, line_bytes, associativity)
        return simulate_components(trace, [geometry], section)[geometry]
    block_ids, _, _, _ = trace.event_columns(section)
    static = program_columns(trace.program)
    misses = cache.fetch_ranges(
        static.addresses[block_ids], static.size_bytes[block_ids]
    )
    return ICacheResult(
        size_bytes=cache.size_bytes,
        line_bytes=cache.line_bytes,
        associativity=cache.associativity,
        section=section,
        instruction_count=trace.instruction_count(section),
        accesses=cache.accesses,
        misses=misses,
    )


def simulate_frontend(
    trace: Trace,
    config: FrontEndConfig,
    section: CodeSection = CodeSection.TOTAL,
) -> FrontEndResult:
    """Simulate all three structures of a front-end configuration."""
    return simulate_frontend_many(trace, [config], [section])[(config.name, section)]


class _SectionStreams:
    """The decoded input streams of one trace section, gathered once.

    Holds exactly the arrays the three structure simulators consume --
    the conditional-branch stream (direction prediction), the
    taken-non-return stream (BTB lookups), and the fetched line ranges
    (I-cache) -- so a batch over many configurations pays the masked
    gathers once instead of once per configuration.  The BTB and line
    streams are decoded lazily, so predictor-only batches never gather
    them.  Built only when a component-result table lookup misses.
    """

    def __init__(self, trace: Trace, section: CodeSection) -> None:
        self._trace = trace
        self.section = section
        self.instruction_count = trace.instruction_count(section)
        self._columns = trace.branch_columns(section)

        conditional = self._columns.is_conditional
        self.cond_addresses = self._columns.addresses[conditional]
        self.cond_taken = self._columns.taken[conditional]
        self.cond_targets = self._columns.targets[conditional]
        self.cond_backward = (self.cond_targets >= 0) & (
            self.cond_targets < self.cond_addresses
        )
        self.conditional_count = int(self.cond_addresses.shape[0])

    @functools.cached_property
    def _btb_stream(self) -> Tuple[np.ndarray, np.ndarray]:
        """Addresses and targets of the taken non-return branches."""
        columns = self._columns
        mask = columns.taken & (columns.targets >= 0)
        mask &= columns.kinds != int(BranchKind.RETURN)
        return columns.addresses[mask], columns.targets[mask]

    @functools.cached_property
    def _line_stream(self) -> Tuple[np.ndarray, np.ndarray]:
        """Start addresses and byte sizes of the fetched block ranges."""
        block_ids, _, _, _ = self._trace.event_columns(self.section)
        static = program_columns(self._trace.program)
        return static.addresses[block_ids], static.size_bytes[block_ids]

    def run(self, component: Component) -> ComponentResult:
        """Simulate one component geometry on a fresh simulator instance."""
        if isinstance(component, BranchPredictorConfig):
            return self.run_predictor(component.build())
        if isinstance(component, BTBConfig):
            return self.run_btb(component.build())
        if isinstance(component, ICacheConfig):
            return self.run_icache(component.build())
        raise TypeError(f"not a front-end component config: {component!r}")

    def run_predictor(self, predictor: BranchPredictor) -> BranchPredictionResult:
        """Run one direction predictor over the shared conditional stream."""
        predictions = predictor.simulate_sequence(
            self.cond_addresses, self.cond_taken, self.cond_targets
        )
        wrong = predictions != self.cond_taken
        mispredictions = int(np.count_nonzero(wrong))
        miss_not_taken = int(np.count_nonzero(wrong & ~self.cond_taken))
        miss_taken_backward = int(
            np.count_nonzero(wrong & self.cond_taken & self.cond_backward)
        )
        return BranchPredictionResult(
            predictor_name=predictor.name,
            section=self.section,
            instruction_count=self.instruction_count,
            conditional_branches=self.conditional_count,
            mispredictions=mispredictions,
            mispredicted_not_taken=miss_not_taken,
            mispredicted_taken_backward=miss_taken_backward,
            mispredicted_taken_forward=(
                mispredictions - miss_not_taken - miss_taken_backward
            ),
        )

    def run_btb(self, btb: BranchTargetBuffer) -> BTBResult:
        """Run one BTB over the shared taken-branch stream."""
        addresses, targets = self._btb_stream
        misses = btb.access_sequence(addresses, targets)
        return BTBResult(
            entries=btb.entries,
            associativity=btb.associativity,
            section=self.section,
            instruction_count=self.instruction_count,
            taken_branches=int(addresses.shape[0]),
            misses=misses,
        )

    def run_icache(self, cache: InstructionCache) -> ICacheResult:
        """Run one I-cache over the shared fetched-line stream."""
        addresses, sizes = self._line_stream
        misses = cache.fetch_ranges(addresses, sizes)
        return ICacheResult(
            size_bytes=cache.size_bytes,
            line_bytes=cache.line_bytes,
            associativity=cache.associativity,
            section=self.section,
            instruction_count=self.instruction_count,
            accesses=cache.accesses,
            misses=misses,
        )


def simulate_components(
    trace: Trace,
    components: Iterable[Component],
    section: CodeSection = CodeSection.TOTAL,
) -> Dict[Component, ComponentResult]:
    """Results of predictor/BTB/I-cache geometries over one trace section.

    Each result comes from the trace's component-result table, keyed by
    ``(section, component)``.  A miss decodes the section's streams
    (once per call) and runs the kernel on a fresh simulator, so every
    distinct geometry is simulated once per trace and section however
    many sweeps, chunks or figures ask for it.  The table lives on the
    trace, so it is freed with the trace-cache entry.  Results are
    frozen and shared by every caller.

    Returns ``component -> result`` for each distinct component.
    """
    table = trace._component_results
    streams: Optional[_SectionStreams] = None
    results: Dict[Component, ComponentResult] = {}
    misses = 0
    for component in components:
        if component in results:
            continue
        key = (section, component)
        result = table.get(key)
        if result is None:
            if streams is None:
                streams = _SectionStreams(trace, section)
            result = table[key] = streams.run(component)
            misses += 1
        results[component] = result
    with _COMPONENT_STATS_LOCK:
        _COMPONENT_STATS["hits"] += len(results) - misses
        _COMPONENT_STATS["misses"] += misses
    return results


def simulate_frontend_many(
    trace: Trace,
    configs: Sequence[FrontEndConfig],
    sections: Sequence[CodeSection] = (CodeSection.TOTAL,),
) -> Dict[Tuple[str, CodeSection], FrontEndResult]:
    """Simulate many front-end configurations over one trace, batched.

    This is the multi-configuration engine.  Each configuration's
    predictor, BTB and I-cache geometry is looked up in the trace's
    component-result table (:func:`simulate_components`), so a geometry
    is simulated once per (trace, section) in the process -- across
    calls, explore chunks, sweep plans and the Section V profile --
    and front-ends sharing a geometry share its result object.  On a
    miss the section's branch and fetched-line streams are decoded once
    per call and the kernels run over the shared columnar views.

    Returns ``(config.name, section) -> FrontEndResult``; every result
    is bit-identical to a fresh instance-based
    :func:`simulate_branch_predictor`/:func:`simulate_btb`/
    :func:`simulate_icache` run (asserted in the test suite).
    """
    results: Dict[Tuple[str, CodeSection], FrontEndResult] = {}
    for section in sections:
        parts = simulate_components(
            trace,
            (
                part
                for config in configs
                for part in (config.predictor, config.btb, config.icache)
            ),
            section,
        )
        for config in configs:
            results[(config.name, section)] = FrontEndResult(
                config_name=config.name,
                section=section,
                branch=parts[config.predictor],
                btb=parts[config.btb],
                icache=parts[config.icache],
            )
    return results


def component_table_info() -> Dict[str, int]:
    """Hit/miss counters of the per-trace component-result tables.

    A hit is a (trace, section, geometry) result served without running
    a kernel; a miss ran one.  Counted once per distinct geometry per
    call, over every trace of the process.
    """
    with _COMPONENT_STATS_LOCK:
        return dict(_COMPONENT_STATS)


def _reset_component_stats() -> None:
    with _COMPONENT_STATS_LOCK:
        for counter in _COMPONENT_STATS:
            _COMPONENT_STATS[counter] = 0


# The tables live on the traces, so clearing the trace cache drops them
# and zeroes their counters with the trace counters.
register_cache_clearer(_reset_component_stats)
register_stats_provider("components", component_table_info)
