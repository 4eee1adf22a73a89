"""RuntimeConfig resolution: explicit kwarg > environment > default.

Every field of :class:`repro.api.runtime_config.RuntimeConfig` is
checked through the full precedence chain, including the ``none``-
disables-cache semantics of both cache directories and the activation
scoping the Session layer builds on.
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
import re
import subprocess
import sys
import textwrap

import pytest

from repro.api import runtime_config as rc


class TestPrecedence:
    """Explicit argument beats environment variable beats default."""

    def test_defaults_with_clean_environment(self, monkeypatch):
        for name in rc.ENVIRONMENT_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        config = rc.RuntimeConfig.from_environment()
        assert config.trace_engine == "compiled"
        assert config.trace_cache_dir is None
        assert config.result_cache_dir is None
        assert config.parallel is False
        assert config.processes is None
        assert config.instructions == rc.DEFAULT_INSTRUCTIONS

    def test_trace_engine(self, monkeypatch):
        monkeypatch.delenv(rc.TRACE_ENGINE_VARIABLE, raising=False)
        assert rc.RuntimeConfig.from_environment().trace_engine == "compiled"
        monkeypatch.setenv(rc.TRACE_ENGINE_VARIABLE, "reference")
        assert rc.RuntimeConfig.from_environment().trace_engine == "reference"
        # Explicit beats the environment.
        assert (
            rc.RuntimeConfig.from_environment(trace_engine="compiled").trace_engine
            == "compiled"
        )
        # Unknown *environment* spellings resolve to the default engine
        # (lenient, the historical env-var contract) ...
        monkeypatch.setenv(rc.TRACE_ENGINE_VARIABLE, "warp-drive")
        assert rc.RuntimeConfig.from_environment().trace_engine == "compiled"
        # ... but an unknown *explicit* engine raises: the typed API
        # must not swallow typos.
        with pytest.raises(ValueError):
            rc.RuntimeConfig.from_environment(trace_engine="referense")
        with pytest.raises(ValueError):
            rc.RuntimeConfig(trace_engine="bogus")
        with pytest.raises(ValueError):
            rc.RuntimeConfig().replace(trace_engine="bogus")

    @pytest.mark.parametrize(
        "field,variable",
        [
            ("trace_cache_dir", rc.TRACE_CACHE_DIR_VARIABLE),
            ("result_cache_dir", rc.RESULT_CACHE_DIR_VARIABLE),
        ],
    )
    def test_cache_dirs(self, monkeypatch, tmp_path, field, variable):
        env_dir = str(tmp_path / "from-env")
        explicit_dir = str(tmp_path / "explicit")

        monkeypatch.delenv(variable, raising=False)
        assert getattr(rc.RuntimeConfig.from_environment(), field) is None

        monkeypatch.setenv(variable, env_dir)
        assert getattr(rc.RuntimeConfig.from_environment(), field) == env_dir
        # Explicit path beats the environment path.
        config = rc.RuntimeConfig.from_environment(**{field: explicit_dir})
        assert getattr(config, field) == explicit_dir
        # Explicit None (and every disable spelling) disables even when
        # the environment names a directory.
        config = rc.RuntimeConfig.from_environment(**{field: None})
        assert getattr(config, field) is None
        for spelling in ("none", "NONE", "off", "0", "", "disabled"):
            config = rc.RuntimeConfig.from_environment(**{field: spelling})
            assert getattr(config, field) is None, spelling

        # Environment disable spellings resolve to None too.
        monkeypatch.setenv(variable, "none")
        assert getattr(rc.RuntimeConfig.from_environment(), field) is None
        # ... and an explicit path still beats an environment disable.
        config = rc.RuntimeConfig.from_environment(**{field: explicit_dir})
        assert getattr(config, field) == explicit_dir

    def test_parallel_defaults_the_shared_trace_cache(self, monkeypatch, tmp_path):
        """Parallel with a fully unset trace cache auto-enables the
        per-user shared directory (the legacy run_sweep behaviour);
        explicit or environment settings still win."""
        monkeypatch.delenv(rc.TRACE_CACHE_DIR_VARIABLE, raising=False)
        config = rc.RuntimeConfig.from_environment(parallel=True)
        assert config.trace_cache_dir == rc.default_trace_cache_dir()
        # An environment disable wins over the parallel default.
        monkeypatch.setenv(rc.TRACE_CACHE_DIR_VARIABLE, "none")
        assert (
            rc.RuntimeConfig.from_environment(parallel=True).trace_cache_dir is None
        )
        # So does an explicit disable or an explicit directory.
        monkeypatch.delenv(rc.TRACE_CACHE_DIR_VARIABLE, raising=False)
        config = rc.RuntimeConfig.from_environment(
            parallel=True, trace_cache_dir=None
        )
        assert config.trace_cache_dir is None
        config = rc.RuntimeConfig.from_environment(
            parallel=True, trace_cache_dir=str(tmp_path)
        )
        assert config.trace_cache_dir == str(tmp_path)

    def test_parallel(self, monkeypatch):
        monkeypatch.delenv(rc.PARALLEL_VARIABLE, raising=False)
        assert rc.RuntimeConfig.from_environment().parallel is False
        for truthy in ("1", "true", "YES", "on"):
            monkeypatch.setenv(rc.PARALLEL_VARIABLE, truthy)
            assert rc.RuntimeConfig.from_environment().parallel is True, truthy
        monkeypatch.setenv(rc.PARALLEL_VARIABLE, "0")
        assert rc.RuntimeConfig.from_environment().parallel is False
        monkeypatch.setenv(rc.PARALLEL_VARIABLE, "1")
        assert rc.RuntimeConfig.from_environment(parallel=False).parallel is False

    def test_processes(self, monkeypatch):
        monkeypatch.delenv(rc.PROCESSES_VARIABLE, raising=False)
        assert rc.RuntimeConfig.from_environment().processes is None
        monkeypatch.setenv(rc.PROCESSES_VARIABLE, "4")
        assert rc.RuntimeConfig.from_environment().processes == 4
        assert rc.RuntimeConfig.from_environment(processes=2).processes == 2
        assert rc.RuntimeConfig.from_environment(processes=None).processes is None
        # Garbage in the environment falls back to the default.
        monkeypatch.setenv(rc.PROCESSES_VARIABLE, "many")
        assert rc.RuntimeConfig.from_environment().processes is None

    def test_instructions(self, monkeypatch):
        monkeypatch.delenv(rc.INSTRUCTIONS_VARIABLE, raising=False)
        assert (
            rc.RuntimeConfig.from_environment().instructions
            == rc.DEFAULT_INSTRUCTIONS
        )
        monkeypatch.setenv(rc.INSTRUCTIONS_VARIABLE, "60000")
        assert rc.RuntimeConfig.from_environment().instructions == 60000
        assert (
            rc.RuntimeConfig.from_environment(instructions=12345).instructions
            == 12345
        )
        # A non-positive budget is rejected when explicit ...
        for bad in (0, -100):
            with pytest.raises(ValueError, match="instructions must be positive"):
                rc.RuntimeConfig.from_environment(instructions=bad)
            with pytest.raises(ValueError, match="instructions must be positive"):
                rc.RuntimeConfig(instructions=bad)
        with pytest.raises(ValueError, match="instructions must be positive"):
            rc.RuntimeConfig().replace(instructions=0)
        # ... and falls back to the default from the environment, like
        # every other lenient environment knob.
        for bad in ("0", "-5", "lots"):
            monkeypatch.setenv(rc.INSTRUCTIONS_VARIABLE, bad)
            assert (
                rc.RuntimeConfig.from_environment().instructions
                == rc.DEFAULT_INSTRUCTIONS
            )

    def test_executor(self, monkeypatch):
        monkeypatch.delenv(rc.EXECUTOR_VARIABLE, raising=False)
        assert rc.RuntimeConfig.from_environment().executor == "auto"
        monkeypatch.setenv(rc.EXECUTOR_VARIABLE, " Queue ")
        assert rc.RuntimeConfig.from_environment().executor == "queue"
        # Explicit beats the environment.
        config = rc.RuntimeConfig.from_environment(executor="serial")
        assert config.executor == "serial"
        assert rc.RuntimeConfig(executor="  ").executor == "auto"
        assert rc.EXECUTORS == ("auto", "serial", "queue")

    def test_unknown_executor_is_validated_at_construction(self, monkeypatch):
        # Explicit values are strict, like trace_engine ...
        for bad in ("processes", "warp-drive"):
            with pytest.raises(ValueError, match="unknown executor"):
                rc.RuntimeConfig(executor=bad)
            with pytest.raises(ValueError, match="unknown executor"):
                rc.RuntimeConfig.from_environment(executor=bad)
            with pytest.raises(ValueError, match="unknown executor"):
                rc.RuntimeConfig().replace(executor=bad)
        # ... and environment values fall back to the default.
        for bad in ("processes", "warp-drive"):
            monkeypatch.setenv(rc.EXECUTOR_VARIABLE, bad)
            assert rc.RuntimeConfig.from_environment().executor == "auto"

    def test_retries(self, monkeypatch):
        monkeypatch.delenv(rc.RETRIES_VARIABLE, raising=False)
        assert rc.RuntimeConfig.from_environment().retries == rc.DEFAULT_RETRIES
        monkeypatch.setenv(rc.RETRIES_VARIABLE, "5")
        assert rc.RuntimeConfig.from_environment().retries == 5
        assert rc.RuntimeConfig.from_environment(retries=0).retries == 0
        # Garbage or negative environment values fall back to the
        # default; an explicit negative raises.
        monkeypatch.setenv(rc.RETRIES_VARIABLE, "lots")
        assert rc.RuntimeConfig.from_environment().retries == rc.DEFAULT_RETRIES
        monkeypatch.setenv(rc.RETRIES_VARIABLE, "-1")
        assert rc.RuntimeConfig.from_environment().retries == rc.DEFAULT_RETRIES
        with pytest.raises(ValueError):
            rc.RuntimeConfig(retries=-1)

    def test_item_timeout(self, monkeypatch):
        monkeypatch.delenv(rc.ITEM_TIMEOUT_VARIABLE, raising=False)
        assert rc.RuntimeConfig.from_environment().item_timeout is None
        monkeypatch.setenv(rc.ITEM_TIMEOUT_VARIABLE, "2.5")
        assert rc.RuntimeConfig.from_environment().item_timeout == 2.5
        assert rc.RuntimeConfig.from_environment(item_timeout=1).item_timeout == 1.0
        # A zero/negative *environment* timeout stays lenient ("no
        # timeout", matching the unset state); explicit ones raise.
        monkeypatch.setenv(rc.ITEM_TIMEOUT_VARIABLE, "0")
        assert rc.RuntimeConfig.from_environment().item_timeout is None
        monkeypatch.setenv(rc.ITEM_TIMEOUT_VARIABLE, "-3")
        assert rc.RuntimeConfig.from_environment().item_timeout is None
        with pytest.raises(ValueError):
            rc.RuntimeConfig(item_timeout=0)
        with pytest.raises(ValueError):
            rc.RuntimeConfig(item_timeout=-3)

    def test_retry_delay(self, monkeypatch):
        monkeypatch.delenv(rc.RETRY_DELAY_VARIABLE, raising=False)
        assert (
            rc.RuntimeConfig.from_environment().retry_delay == rc.DEFAULT_RETRY_DELAY
        )
        monkeypatch.setenv(rc.RETRY_DELAY_VARIABLE, "0.2")
        assert rc.RuntimeConfig.from_environment().retry_delay == 0.2
        # A zero/negative *environment* delay falls back to the default;
        # explicit ones raise instead of silently clamping.
        monkeypatch.setenv(rc.RETRY_DELAY_VARIABLE, "0")
        assert (
            rc.RuntimeConfig.from_environment().retry_delay == rc.DEFAULT_RETRY_DELAY
        )
        with pytest.raises(ValueError):
            rc.RuntimeConfig.from_environment(retry_delay=0)
        with pytest.raises(ValueError):
            rc.RuntimeConfig(retry_delay=-1.0)

    def test_queue_dir(self, monkeypatch):
        monkeypatch.delenv(rc.QUEUE_DIR_VARIABLE, raising=False)
        assert rc.RuntimeConfig.from_environment().queue_dir is None
        monkeypatch.setenv(rc.QUEUE_DIR_VARIABLE, "/tmp/queue")
        assert rc.RuntimeConfig.from_environment().queue_dir == "/tmp/queue"
        assert rc.RuntimeConfig.from_environment(queue_dir=None).queue_dir is None
        monkeypatch.setenv(rc.QUEUE_DIR_VARIABLE, "none")
        assert rc.RuntimeConfig.from_environment().queue_dir is None
        assert rc.RuntimeConfig(queue_dir="off").queue_dir is None

    def test_lease_ttl_and_heartbeat(self, monkeypatch):
        monkeypatch.delenv(rc.LEASE_TTL_VARIABLE, raising=False)
        monkeypatch.delenv(rc.HEARTBEAT_INTERVAL_VARIABLE, raising=False)
        config = rc.RuntimeConfig.from_environment()
        assert config.lease_ttl == rc.DEFAULT_LEASE_TTL
        assert config.heartbeat_interval == rc.DEFAULT_HEARTBEAT_INTERVAL
        monkeypatch.setenv(rc.LEASE_TTL_VARIABLE, "12")
        monkeypatch.setenv(rc.HEARTBEAT_INTERVAL_VARIABLE, "3")
        config = rc.RuntimeConfig.from_environment()
        assert config.lease_ttl == 12.0
        assert config.heartbeat_interval == 3.0
        # Garbage or non-positive environment values fall back.
        monkeypatch.setenv(rc.LEASE_TTL_VARIABLE, "soon")
        monkeypatch.setenv(rc.HEARTBEAT_INTERVAL_VARIABLE, "-1")
        config = rc.RuntimeConfig.from_environment()
        assert config.lease_ttl == rc.DEFAULT_LEASE_TTL
        assert config.heartbeat_interval == rc.DEFAULT_HEARTBEAT_INTERVAL
        # An env-only heartbeat >= TTL is resolved to the default ratio.
        monkeypatch.setenv(rc.LEASE_TTL_VARIABLE, "6")
        monkeypatch.setenv(rc.HEARTBEAT_INTERVAL_VARIABLE, "30")
        config = rc.RuntimeConfig.from_environment()
        assert config.heartbeat_interval == 1.0
        # Explicit knobs are strict: non-positive values raise, and an
        # explicit heartbeat must stay below the TTL.
        with pytest.raises(ValueError):
            rc.RuntimeConfig(lease_ttl=0)
        with pytest.raises(ValueError):
            rc.RuntimeConfig(heartbeat_interval=-2)
        with pytest.raises(ValueError):
            rc.RuntimeConfig(lease_ttl=5.0, heartbeat_interval=6.0)
        # Lowering only the TTL keeps the untouched default heartbeat
        # usable by scaling it down at the default ratio.
        config = rc.RuntimeConfig(lease_ttl=3.0)
        assert config.heartbeat_interval == pytest.approx(0.5)

    def test_fault_plan(self, monkeypatch):
        monkeypatch.delenv(rc.FAULT_PLAN_VARIABLE, raising=False)
        assert rc.RuntimeConfig.from_environment().fault_plan is None
        document = '{"faults": [{"kind": "raise", "index": 0}]}'
        monkeypatch.setenv(rc.FAULT_PLAN_VARIABLE, document)
        assert rc.RuntimeConfig.from_environment().fault_plan == document
        assert rc.RuntimeConfig.from_environment(fault_plan=None).fault_plan is None

    def test_execution_knobs_stay_out_of_semantic(self):
        config = rc.RuntimeConfig(
            executor="queue",
            retries=7,
            item_timeout=3.0,
            retry_delay=0.2,
            fault_plan='{"faults": []}',
        )
        # Execution policy can never change the numbers, so it can
        # never change a result key either.
        assert config.semantic() == rc.RuntimeConfig().semantic()


class TestConfigBehaviour:
    def test_replace_normalizes_cache_dirs_and_engine(self):
        config = rc.RuntimeConfig()
        assert config.replace(trace_cache_dir="none").trace_cache_dir is None
        assert config.replace(result_cache_dir="off").result_cache_dir is None
        assert config.replace(trace_engine="REFERENCE").trace_engine == "reference"
        kept = config.replace(trace_cache_dir="/tmp/somewhere")
        assert kept.trace_cache_dir == "/tmp/somewhere"

    def test_direct_construction_normalizes_too(self):
        config = rc.RuntimeConfig(
            trace_engine="Reference", trace_cache_dir="NONE", result_cache_dir=""
        )
        assert config.trace_engine == "reference"
        assert config.trace_cache_dir is None
        assert config.result_cache_dir is None

    def test_semantic_excludes_execution_details(self):
        config = rc.RuntimeConfig(parallel=True, processes=8, instructions=1)
        assert config.semantic() == {"trace_engine": "compiled"}

    def test_describe_covers_every_field(self):
        described = rc.RuntimeConfig().describe()
        assert set(described) == {
            "trace_engine",
            "trace_cache_dir",
            "result_cache_dir",
            "parallel",
            "processes",
            "instructions",
            "executor",
            "retries",
            "item_timeout",
            "retry_delay",
            "fault_plan",
            "cache_namespace",
            "queue_dir",
            "lease_ttl",
            "heartbeat_interval",
            "serve_host",
            "serve_port",
        }


class TestCacheNamespace:
    """One path component isolating concurrent sessions' disk caches."""

    def test_precedence_and_normalization(self, monkeypatch):
        monkeypatch.delenv(rc.CACHE_NAMESPACE_VARIABLE, raising=False)
        assert rc.RuntimeConfig.from_environment().cache_namespace is None
        monkeypatch.setenv(rc.CACHE_NAMESPACE_VARIABLE, "ci-run-7")
        assert rc.RuntimeConfig.from_environment().cache_namespace == "ci-run-7"
        # Explicit beats the environment; blank means "no namespace".
        config = rc.RuntimeConfig.from_environment(cache_namespace="mine")
        assert config.cache_namespace == "mine"
        assert (
            rc.RuntimeConfig.from_environment(cache_namespace="  ").cache_namespace
            is None
        )
        assert (
            rc.RuntimeConfig.from_environment(cache_namespace=None).cache_namespace
            is None
        )

    def test_explicit_invalid_namespace_raises(self):
        for bad in ("a/b", "a\\b", "..", "."):
            with pytest.raises(ValueError):
                rc.RuntimeConfig(cache_namespace=bad)

    def test_invalid_environment_namespace_is_ignored(self, monkeypatch):
        monkeypatch.setenv(rc.CACHE_NAMESPACE_VARIABLE, "../escape")
        assert rc.RuntimeConfig.from_environment().cache_namespace is None

    def test_namespace_stays_out_of_semantic(self):
        # The namespace relocates cache files; it cannot change numbers,
        # so it must not invalidate content-addressed results.
        config = rc.RuntimeConfig(cache_namespace="elsewhere")
        assert config.semantic() == rc.RuntimeConfig().semantic()

    def test_accessors_join_the_namespace(self, monkeypatch, tmp_path):
        import os

        config = rc.RuntimeConfig(
            trace_cache_dir=str(tmp_path / "traces"),
            result_cache_dir=str(tmp_path / "results"),
            cache_namespace="ns",
        )
        with rc.activated(config):
            assert rc.current_trace_cache_dir() == os.path.join(
                str(tmp_path / "traces"), "ns"
            )
            assert rc.current_result_cache_dir() == os.path.join(
                str(tmp_path / "results"), "ns"
            )
        # Legacy mode joins the environment namespace the same way.
        monkeypatch.setenv(rc.TRACE_CACHE_DIR_VARIABLE, str(tmp_path / "traces"))
        monkeypatch.setenv(rc.RESULT_CACHE_DIR_VARIABLE, str(tmp_path / "results"))
        monkeypatch.setenv(rc.CACHE_NAMESPACE_VARIABLE, "env-ns")
        assert rc.current_trace_cache_dir() == os.path.join(
            str(tmp_path / "traces"), "env-ns"
        )
        assert rc.current_result_cache_dir() == os.path.join(
            str(tmp_path / "results"), "env-ns"
        )
        # A namespace without an enabled disk layer stays disabled.
        monkeypatch.setenv(rc.TRACE_CACHE_DIR_VARIABLE, "none")
        assert rc.current_trace_cache_dir() is None

    def test_two_namespaces_resolve_to_distinct_paths(self, tmp_path):
        shared = str(tmp_path / "shared")
        first = rc.RuntimeConfig(trace_cache_dir=shared, cache_namespace="a")
        second = rc.RuntimeConfig(trace_cache_dir=shared, cache_namespace="b")
        with rc.activated(first):
            dir_a = rc.current_trace_cache_dir()
        with rc.activated(second):
            dir_b = rc.current_trace_cache_dir()
        assert dir_a != dir_b
        assert dir_a.startswith(shared) and dir_b.startswith(shared)


class TestActivation:
    """An activated config wins over the environment, scoped."""

    def test_activated_config_overrides_environment(self, monkeypatch, tmp_path):
        monkeypatch.setenv(rc.TRACE_CACHE_DIR_VARIABLE, str(tmp_path / "env"))
        monkeypatch.setenv(rc.TRACE_ENGINE_VARIABLE, "reference")
        config = rc.RuntimeConfig(
            trace_engine="compiled", trace_cache_dir=str(tmp_path / "mine")
        )
        assert rc.current_trace_cache_dir() == str(tmp_path / "env")
        assert rc.current_trace_engine() == "reference"
        with rc.activated(config):
            assert rc.active_config() is config
            assert rc.current_trace_cache_dir() == str(tmp_path / "mine")
            assert rc.current_trace_engine() == "compiled"
            assert rc.current_config() is config
        assert rc.active_config() is None
        assert rc.current_trace_cache_dir() == str(tmp_path / "env")
        assert rc.current_trace_engine() == "reference"

    def test_activation_nests_and_restores_on_error(self):
        outer = rc.RuntimeConfig(trace_engine="reference")
        inner = rc.RuntimeConfig(trace_engine="compiled")
        with rc.activated(outer):
            with rc.activated(inner):
                assert rc.current_trace_engine() == "compiled"
            assert rc.current_trace_engine() == "reference"
            with pytest.raises(RuntimeError):
                with rc.activated(inner):
                    raise RuntimeError("boom")
            assert rc.active_config() is outer
        assert rc.active_config() is None

    def test_export_environment_default(self, monkeypatch):
        monkeypatch.delenv(rc.PROCESSES_VARIABLE, raising=False)
        rc.export_environment_default(rc.PROCESSES_VARIABLE, "3")
        assert rc.read_environment(rc.PROCESSES_VARIABLE) == "3"
        # An already-set variable is left untouched.
        rc.export_environment_default(rc.PROCESSES_VARIABLE, "9")
        assert rc.read_environment(rc.PROCESSES_VARIABLE) == "3"
        monkeypatch.delenv(rc.PROCESSES_VARIABLE, raising=False)


#: A sweep driver run in a fresh interpreter under the ``spawn`` start
#: method: workers inherit neither the parent's contextvars (no fork)
#: nor anything it could export, so they see the session's config only
#: if it is handed to them.  ``probe`` reports what one worker saw; the
#: ``prime`` run sweeps two workloads so the trace-priming pool stores
#: their traces, which the parent must then load from disk.
_SPAWN_SWEEP_SCRIPT = textwrap.dedent(
    '''
    import json
    import multiprocessing
    import os
    import sys

    from repro.api import Session
    from repro.api import runtime_config as rc
    from repro.workloads import get_workload
    from repro.workloads.trace_cache import trace_cache_info


    def repro_environment():
        return sorted(
            [name, value]
            for name, value in os.environ.items()
            if name.startswith("REPRO_")
        )


    def probe(item):
        config = rc.current_config()
        return {
            "item": item,
            "pid": os.getpid(),
            "trace_engine": config.trace_engine,
            "trace_cache_dir": rc.current_trace_cache_dir(),
            "environment": repro_environment(),
        }


    def probe_workload(args):
        return probe(args[0].name)


    if __name__ == "__main__":
        multiprocessing.set_start_method("spawn")
        before = repro_environment()
        runs = {}
        for executor in ("auto", "queue"):
            session = Session(
                trace_engine="reference",
                cache_namespace="ns",
                trace_cache_dir=sys.argv[1],
                parallel=True,
                processes=2,
                executor=executor,
            )
            runs[executor] = session.map(probe, list(range(4)))
        # Workload-shaped items make the (queue) session prime first.
        arguments = [(get_workload(name), 2_000) for name in ("FT", "LU")]
        runs["prime"] = session.map(probe_workload, arguments)
        print(json.dumps({
            "traces": trace_cache_info(),
            "trace_files": sorted(os.listdir(os.path.join(sys.argv[1], "ns"))),
            "parent": os.getpid(),
            "before": before,
            "after": repro_environment(),
            "runs": runs,
        }))
    '''
)


class TestWorkerConfigHandoff:
    """Workers get the session's config as an argument, not by inheritance."""

    def test_spawned_workers_see_the_session_config(self, tmp_path):
        script = tmp_path / "spawn_sweep.py"
        script.write_text(_SPAWN_SWEEP_SCRIPT)
        trace_dir = str(tmp_path / "traces")
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        env = {
            name: value
            for name, value in os.environ.items()
            if not name.startswith("REPRO_")
        }
        env.update(
            PYTHONPATH=os.pathsep.join([src, env.get("PYTHONPATH", "")]),
            # Environment values the session overrides: a worker that
            # fell back to the environment would report these instead.
            REPRO_TRACE_ENGINE="compiled",
            REPRO_CACHE_NAMESPACE="parent-ns",
            REPRO_RESULT_CACHE_DIR="none",
        )
        done = subprocess.run(
            [sys.executable, str(script), trace_dir],
            env=env,
            cwd=str(tmp_path),
            capture_output=True,
            text=True,
            timeout=110,
        )
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout.strip().splitlines()[-1])
        expected_environment = sorted(
            [name, value] for name, value in env.items() if name.startswith("REPRO_")
        )
        assert report["before"] == expected_environment
        assert report["after"] == report["before"]
        assert [row["item"] for row in report["runs"]["prime"]] == ["FT", "LU"]
        # The priming workers stored both traces under the namespaced
        # directory; the parent only loaded them.
        assert report["trace_files"] == ["FT-2000-0.npz", "LU-2000-0.npz"]
        assert report["traces"]["disk_hits"] == 2
        assert report["traces"]["disk_stores"] == 0
        for executor in ("auto", "queue"):
            assert [row["item"] for row in report["runs"][executor]] == [0, 1, 2, 3]
        for executor in ("auto", "queue", "prime"):
            for row in report["runs"][executor]:
                assert row["pid"] != report["parent"], executor
                assert row["trace_engine"] == "reference", executor
                # The namespace is joined exactly once.
                assert row["trace_cache_dir"] == os.path.join(trace_dir, "ns")
                assert row["environment"] == report["before"], executor


#: Source root of the package, scanned by :class:`TestOneEnvironmentReader`.
_PACKAGE_ROOT = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: ``os.environ`` methods that mutate the environment.
_ENVIRONMENT_WRITE_METHODS = frozenset(
    {"update", "pop", "popitem", "setdefault", "clear", "__setitem__", "__delitem__"}
)


def _is_os_environ(node) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "environ"
        and isinstance(node.value, ast.Name)
        and node.value.id == "os"
    )


def _environment_writes(tree) -> list:
    """``(enclosing top-level name, line)`` of every environment write."""
    writes = []
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            targets = []
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            if any(
                isinstance(target, ast.Subscript) and _is_os_environ(target.value)
                for target in targets
            ):
                writes.append((owner, node.lineno))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                function = node.func
                if (
                    _is_os_environ(function.value)
                    and function.attr in _ENVIRONMENT_WRITE_METHODS
                ) or (
                    isinstance(function.value, ast.Name)
                    and function.value.id == "os"
                    and function.attr in ("putenv", "unsetenv")
                ):
                    writes.append((owner, node.lineno))
    return writes


class TestOneEnvironmentReader:
    """Only ``api/runtime_config.py`` touches the process environment."""

    def test_no_other_module_touches_the_environment(self):
        pattern = re.compile(
            r"os\.(environ|getenv|putenv|unsetenv)\b"
            r"|from\s+os\s+import\s+[^\n]*\b(environ|getenv|putenv|unsetenv)\b"
        )
        owner = _PACKAGE_ROOT / "api" / "runtime_config.py"
        offenders = []
        for path in sorted(_PACKAGE_ROOT.rglob("*.py")):
            if path == owner:
                continue
            for number, line in enumerate(path.read_text().splitlines(), 1):
                if pattern.search(line):
                    offenders.append(f"{path.relative_to(_PACKAGE_ROOT)}:{number}")
        assert offenders == []

    def test_runtime_config_writes_only_in_export_environment_default(self):
        source = (_PACKAGE_ROOT / "api" / "runtime_config.py").read_text()
        writes = _environment_writes(ast.parse(source))
        assert writes, "the scan should see export_environment_default's write"
        assert {owner for owner, _ in writes} == {"export_environment_default"}

    def test_write_scan_catches_every_spelling(self):
        source = textwrap.dedent(
            """
            import os
            os.environ["A"] = "1"
            def one():
                os.environ.update(A="1")
            def two():
                del os.environ["A"]
            def three():
                os.putenv("A", "1")
            def four():
                os.environ.setdefault("A", "1")
            """
        )
        owners = [owner for owner, _ in _environment_writes(ast.parse(source))]
        assert owners == ["<module>", "one", "two", "three", "four"]
