"""Fixture tests for the reprolint static-analysis engine (``tools/reprolint``).

Every rule gets at least one *positive* fixture (a seeded violation the rule
must flag) and one *negative* fixture (the sanctioned idiom it must pass).
The mutation-regression class replays the real violations this checker found
in the tree — reintroducing any of those patterns must fail CI again.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
TOOLS = REPO / "tools"
if str(TOOLS) not in sys.path:
    sys.path.insert(0, str(TOOLS))

from reprolint import Config, iter_rules, lint_paths, lint_source  # noqa: E402

#: A path inside both the determinism scope and the api scope.
DET_PATH = "src/repro/experiments/fixture.py"
#: A path outside the determinism scope but inside the api scope.
API_PATH = "src/repro/analysis/fixture.py"


def rules_of(violations) -> set[str]:
    return {violation.rule for violation in violations}


def assert_flags(source: str, rule: str, path: str = DET_PATH) -> list:
    violations = lint_source(source, path=path)
    assert rule in rules_of(violations), (
        f"expected {rule} on fixture, got {sorted(rules_of(violations))}"
    )
    return [violation for violation in violations if violation.rule == rule]


def assert_clean(source: str, rule: str, path: str = DET_PATH) -> None:
    violations = lint_source(source, path=path)
    assert rule not in rules_of(violations), (
        f"{rule} fired on sanctioned idiom: "
        f"{[violation.render() for violation in violations]}"
    )


# ---------------------------------------------------------------------------
# determinism family
# ---------------------------------------------------------------------------


class TestDeterminismRandomModule:
    def test_flags_stdlib_random_draw(self):
        assert_flags(
            "import random\n"
            "def pick(items):\n"
            "    return random.choice(items)\n",
            "determinism-random",
        )

    def test_flags_from_import_alias(self):
        assert_flags(
            "from random import shuffle\n"
            "def scramble(items):\n"
            "    shuffle(items)\n"
            "    return items\n",
            "determinism-random",
        )

    def test_passes_seeded_stream_facade(self):
        assert_clean(
            "def pick(items, stream):\n"
            "    return stream.choice(items)\n",
            "determinism-random",
        )

    def test_out_of_scope_module_is_ignored(self):
        assert_clean(
            "import random\n"
            "def pick(items):\n"
            "    return random.choice(items)\n",
            "determinism-random",
            path="tools/somewhere/fixture.py",
        )


class TestDeterminismNumpyGlobal:
    def test_flags_legacy_global_generator(self):
        assert_flags(
            "import numpy as np\n"
            "def draw(n):\n"
            "    return np.random.rand(n)\n",
            "determinism-np-random",
        )

    def test_passes_seeded_constructor(self):
        assert_clean(
            "import numpy as np\n"
            "def make(seed):\n"
            "    return np.random.default_rng(seed)\n",
            "determinism-np-random",
        )


class TestDeterminismUnseededRng:
    def test_flags_argless_default_rng(self):
        assert_flags(
            "import numpy as np\n"
            "def make():\n"
            "    return np.random.default_rng()\n",
            "determinism-unseeded-rng",
        )

    def test_flags_explicit_none_seed(self):
        assert_flags(
            "import numpy as np\n"
            "def make():\n"
            "    return np.random.default_rng(None)\n",
            "determinism-unseeded-rng",
        )

    def test_passes_seeded_default_rng(self):
        assert_clean(
            "import numpy as np\n"
            "def make(seed):\n"
            "    return np.random.default_rng(seed)\n",
            "determinism-unseeded-rng",
        )


class TestDeterminismWallclock:
    def test_flags_time_time(self):
        assert_flags(
            "import time\n"
            "def stamp():\n"
            "    return time.time()\n",
            "determinism-wallclock",
        )

    def test_flags_os_urandom(self):
        assert_flags(
            "import os\n"
            "def entropy():\n"
            "    return os.urandom(8)\n",
            "determinism-wallclock",
        )

    def test_passes_measurement_clocks(self):
        assert_clean(
            "import time\n"
            "def measure():\n"
            "    start = time.monotonic()\n"
            "    return time.perf_counter() - start\n",
            "determinism-wallclock",
        )


class TestDeterminismSetOrder:
    def test_flags_list_built_from_set_iteration(self):
        assert_flags(
            "def collect(items):\n"
            "    return [item for item in set(items)]\n",
            "determinism-set-order",
        )

    def test_flags_set_typed_local(self):
        assert_flags(
            "def collect(items):\n"
            "    seen = set(items)\n"
            "    return list(seen)\n",
            "determinism-set-order",
        )

    def test_flags_keys_feeding_derive_seed(self):
        assert_flags(
            "from repro.utils.rng import derive_seed\n"
            "def seeds(seed, table):\n"
            "    return derive_seed(seed, *table.keys())\n",
            "determinism-set-order",
        )

    def test_passes_sorted_set(self):
        assert_clean(
            "def collect(items):\n"
            "    return [item for item in sorted(set(items))]\n",
            "determinism-set-order",
        )


class TestDeterminismIdComparison:
    def test_flags_id_ordering(self):
        assert_flags(
            "def before(a, b):\n"
            "    return id(a) < id(b)\n",
            "determinism-id-comparison",
        )

    def test_flags_sort_key_id(self):
        assert_flags(
            "def order(items):\n"
            "    return sorted(items, key=id)\n",
            "determinism-id-comparison",
        )

    def test_passes_identity_check_and_value_sort(self):
        assert_clean(
            "def same(a, b):\n"
            "    return a is b\n"
            "def order(items):\n"
            "    return sorted(items, key=str)\n",
            "determinism-id-comparison",
        )


#: A path inside the scheduling kernel, where float reductions are checked.
CORE_PATH = "src/repro/core/fixture.py"


class TestDeterminismFloatReduction:
    def test_flags_blas_products(self):
        violations = assert_flags(
            "import numpy as np\n"
            "def scores(a, b):\n"
            "    return np.matmul(a, b) + a @ b + np.dot(a, b)"
            " + np.einsum('ij,jk', a, b)\n",
            "determinism-float-reduction",
            path=CORE_PATH,
        )
        assert len(violations) == 4

    def test_flags_pairwise_and_compensated_sums(self):
        violations = assert_flags(
            "import math\n"
            "import numpy as np\n"
            "from math import fsum\n"
            "def mean(values, matrix):\n"
            "    return (np.sum(matrix) + matrix.sum(axis=1) + matrix.mean()\n"
            "            + sum(values) + math.fsum(values) + fsum(values))\n",
            "determinism-float-reduction",
            path=CORE_PATH,
        )
        assert len(violations) == 6

    def test_passes_left_to_right_loop_and_integer_counts(self):
        assert_clean(
            "import numpy as np\n"
            "def total(values, mask, groups):\n"
            "    out = 0.0\n"
            "    for value in values:\n"
            "        out += value\n"
            "    return out, np.count_nonzero(mask, axis=1), groups.count(0)\n",
            "determinism-float-reduction",
            path=CORE_PATH,
        )

    def test_only_the_scheduling_kernel_is_in_scope(self):
        assert_clean(
            "import numpy as np\n"
            "def mean(matrix):\n"
            "    return matrix.sum() / matrix.size\n",
            "determinism-float-reduction",
        )


# ---------------------------------------------------------------------------
# resource lifecycle family (applies to every path)
# ---------------------------------------------------------------------------

_SHM_IMPORT = "from multiprocessing import shared_memory\n"


class TestResourceLifecycle:
    def test_flags_never_released_block(self):
        assert_flags(
            _SHM_IMPORT
            + "def leak():\n"
            "    block = shared_memory.SharedMemory(create=True, size=16)\n"
            "    block.buf[0] = 1\n",
            "resource-lifecycle",
            path="src/repro/runtime/fixture.py",
        )

    def test_passes_returned_ownership_transfer(self):
        assert_clean(
            _SHM_IMPORT
            + "def make():\n"
            "    block = shared_memory.SharedMemory(create=True, size=16)\n"
            "    return block\n",
            "resource-lifecycle",
            path="src/repro/runtime/fixture.py",
        )

    def test_passes_context_manager(self):
        assert_clean(
            "import socket\n"
            "def probe(addr):\n"
            "    with socket.create_connection(addr) as sock:\n"
            "        sock.sendall(b'x')\n",
            "resource-lifecycle",
            path="src/repro/runtime/fixture.py",
        )


class TestResourceReleaseGuard:
    def test_flags_release_on_happy_path_only(self):
        assert_flags(
            _SHM_IMPORT
            + "def risky(payload):\n"
            "    block = shared_memory.SharedMemory(create=True, size=16)\n"
            "    block.buf[: len(payload)] = payload\n"
            "    block.close()\n"
            "    block.unlink()\n",
            "resource-release-guard",
            path="src/repro/runtime/fixture.py",
        )

    def test_passes_try_finally(self):
        assert_clean(
            _SHM_IMPORT
            + "def safe(payload):\n"
            "    block = shared_memory.SharedMemory(create=True, size=16)\n"
            "    try:\n"
            "        block.buf[: len(payload)] = payload\n"
            "    finally:\n"
            "        block.close()\n"
            "        block.unlink()\n",
            "resource-release-guard",
            path="src/repro/runtime/fixture.py",
        )

    def test_call_argument_transfers_ownership(self):
        assert_clean(
            _SHM_IMPORT
            + "def handoff(consume):\n"
            "    block = shared_memory.SharedMemory(create=True, size=16)\n"
            "    consume(block)\n",
            "resource-lifecycle",
            path="src/repro/runtime/fixture.py",
        )


# ---------------------------------------------------------------------------
# lock discipline
# ---------------------------------------------------------------------------

# The marker is split across adjacent literals so reprolint's *textual* scan
# of this test file does not register _LOCK_HEADER itself as a guarded name.
_LOCK_HEADER = (
    "import threading\n"
    "class Pool:\n"
    "    def __init__(self):\n"
    "        self._lock = threading.Lock()\n"
    "        self._jobs = {}  # guarded-" "by: _lock\n"
)


class TestLockGuardedBy:
    def test_flags_unguarded_access(self):
        violations = assert_flags(
            _LOCK_HEADER
            + "    def count(self):\n"
            "        return len(self._jobs)\n",
            "lock-guarded-by",
            path="src/repro/runtime/fixture.py",
        )
        assert "_lock" in violations[0].message

    def test_passes_access_under_lock(self):
        assert_clean(
            _LOCK_HEADER
            + "    def count(self):\n"
            "        with self._lock:\n"
            "            return len(self._jobs)\n",
            "lock-guarded-by",
            path="src/repro/runtime/fixture.py",
        )

    def test_passes_holds_marked_helper(self):
        assert_clean(
            _LOCK_HEADER
            + "    def _count_locked(self):  # holds: _lock\n"
            "        return len(self._jobs)\n",
            "lock-guarded-by",
            path="src/repro/runtime/fixture.py",
        )

    def test_init_is_exempt(self):
        assert_clean(_LOCK_HEADER, "lock-guarded-by", path="src/repro/runtime/f.py")


# ---------------------------------------------------------------------------
# API hygiene
# ---------------------------------------------------------------------------

_DOCUMENTED_DRIVER = (
    "def run_fixture_study(workers=None, executor=None, pool=None):\n"
    '    """Run the fixture study.\n'
    "\n"
    "    ``workers`` defaults to ``REPRO_WORKERS``; ``executor`` defaults to\n"
    "    ``REPRO_EXECUTOR`` and the remote lane reads ``REPRO_HOSTS``.\n"
    '    """\n'
    "    return workers, executor, pool\n"
)


class TestApiExecutorParam:
    def test_flags_workers_without_lane_params(self):
        assert_flags(
            "def run_fixture_study(workers=None):\n"
            '    """Run it; ``workers`` defaults to ``REPRO_WORKERS``."""\n'
            "    return workers\n",
            "api-executor-param",
            path=API_PATH,
        )

    def test_passes_full_lane_surface(self):
        assert_clean(_DOCUMENTED_DRIVER, "api-executor-param", path=API_PATH)

    def test_private_and_non_driver_functions_exempt(self):
        assert_clean(
            "def _run_helper(workers=None):\n"
            "    return workers\n"
            "def compute_stuff(workers=None):\n"
            "    return workers\n",
            "api-executor-param",
            path=API_PATH,
        )


class TestApiEnvDoc:
    def test_flags_undocumented_fallbacks(self):
        violations = assert_flags(
            "def run_fixture_study(workers=None, executor=None, pool=None):\n"
            '    """Run the fixture study."""\n'
            "    return workers, executor, pool\n",
            "api-env-doc",
            path=API_PATH,
        )
        mentioned = " ".join(violation.message for violation in violations)
        assert "REPRO_" in mentioned

    def test_passes_documented_driver(self):
        assert_clean(_DOCUMENTED_DRIVER, "api-env-doc", path=API_PATH)

    def test_a_deleted_per_study_variable_does_not_count(self):
        # Only REPRO_WORKERS sets a worker count; a docstring that names a
        # per-study variable instead documents a fallback that is not there.
        violations = assert_flags(
            _DOCUMENTED_DRIVER.replace("REPRO_WORKERS", "REPRO_MC_WORKERS"),
            "api-env-doc",
            path=API_PATH,
        )
        assert "REPRO_WORKERS" in violations[0].message


# ---------------------------------------------------------------------------
# suppression comments, selection, engine surface
# ---------------------------------------------------------------------------


class TestSuppression:
    SOURCE = (
        "import random\n"
        "def pick(items):\n"
        "    return random.choice(items)  # reprolint: disable=determinism-random\n"
    )

    def test_trailing_comment_suppresses_own_line(self):
        assert_clean(self.SOURCE, "determinism-random")

    def test_own_line_comment_suppresses_next_line(self):
        assert_clean(
            "import random\n"
            "def pick(items):\n"
            "    # reprolint: disable=determinism-random\n"
            "    return random.choice(items)\n",
            "determinism-random",
        )

    def test_disable_all(self):
        assert_clean(
            "import random\n"
            "def pick(items):\n"
            "    return random.choice(items)  # reprolint: disable=all\n",
            "determinism-random",
        )

    def test_unrelated_rule_name_does_not_suppress(self):
        assert_flags(
            "import random\n"
            "def pick(items):\n"
            "    return random.choice(items)  # reprolint: disable=api-env-doc\n",
            "determinism-random",
        )


class TestEngineSurface:
    def test_syntax_error_becomes_parse_error_violation(self):
        violations = lint_source("def broken(:\n", path=DET_PATH)
        assert rules_of(violations) == {"parse-error"}

    def test_select_restricts_rules(self):
        source = (
            "import random, time\n"
            "def f():\n"
            "    return random.random() + time.time()\n"
        )
        only = lint_source(source, path=DET_PATH, select=["determinism-wallclock"])
        assert rules_of(only) == {"determinism-wallclock"}

    def test_every_registered_rule_has_identity(self):
        rules = list(iter_rules())
        names = [rule.id for rule in rules]
        assert len(names) == len(set(names)) and len(names) >= 11
        for rule in rules:
            assert rule.family and rule.summary

    def test_violation_as_dict_round_trips_through_json(self):
        violation = lint_source(
            "import time\ndef f():\n    return time.time()\n", path=DET_PATH
        )[0]
        decoded = json.loads(json.dumps(violation.as_dict()))
        assert decoded["rule"] == "determinism-wallclock"
        assert decoded["path"] == DET_PATH
        assert decoded["line"] == 3

    def test_lint_paths_counts_files(self, tmp_path):
        (tmp_path / "clean.py").write_text("x = 1\n")
        (tmp_path / "skipme.txt").write_text("import random\n")
        violations, files_checked = lint_paths([tmp_path], config=Config())
        assert files_checked == 1 and violations == []


class TestCommandLine:
    def _run(self, *argv: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(TOOLS)
        return subprocess.run(
            [sys.executable, "-m", "reprolint", *argv],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO,
        )

    def test_clean_tree_exits_zero(self, tmp_path):
        (tmp_path / "clean.py").write_text("def f():\n    return 1\n")
        result = self._run(str(tmp_path))
        assert result.returncode == 0, result.stderr

    def test_violations_exit_one_with_json_report(self, tmp_path):
        bad = tmp_path / "repro" / "experiments" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\ndef f():\n    return random.random()\n")
        result = self._run(str(tmp_path), "--format", "json")
        assert result.returncode == 1
        report = json.loads(result.stdout)
        assert report["files_checked"] == 1
        assert [v["rule"] for v in report["violations"]] == ["determinism-random"]

    def test_unknown_rule_name_is_usage_error(self, tmp_path):
        (tmp_path / "clean.py").write_text("x = 1\n")
        result = self._run(str(tmp_path), "--select", "no-such-rule")
        assert result.returncode == 2

    def test_repository_tree_is_clean(self):
        result = self._run("src", "tests")
        assert result.returncode == 0, result.stdout + result.stderr


# ---------------------------------------------------------------------------
# mutation regressions: the violations this checker found in the tree.
# Reintroducing any of these patterns must fail CI again.
# ---------------------------------------------------------------------------


class TestMutationRegressions:
    def test_unguarded_shm_probe_fails_again(self):
        # transport.shared_memory_available() before the fix: close/unlink
        # ran only on the exception-free path.
        assert_flags(
            _SHM_IMPORT
            + "def shared_memory_available():\n"
            "    probe = shared_memory.SharedMemory(create=True, size=16)\n"
            "    probe.close()\n"
            "    probe.unlink()\n"
            "    return True\n",
            "resource-release-guard",
            path="src/repro/runtime/transport.py",
        )

    def test_unsorted_needed_set_fails_again(self):
        # simulator/batch.py before the fix: a dict comprehension iterating a
        # set of indices decided compilation order.
        assert_flags(
            "def plan(metas, needed):\n"
            "    unique = set(needed)\n"
            "    return {index: metas[index] for index in unique}\n",
            "determinism-set-order",
            path="src/repro/simulator/batch.py",
        )

    def test_lane_blind_driver_fails_again(self):
        # experiments/hit_rate.py before the fix: workers= with no
        # executor=/pool= lane surface.
        assert_flags(
            "def run_hit_rate_study(workers=None):\n"
            '    """Sweep; ``workers`` defaults to ``REPRO_MC_WORKERS``."""\n'
            "    return workers\n",
            "api-executor-param",
            path="src/repro/experiments/hit_rate.py",
        )

    def test_unguarded_agent_roster_read_fails_again(self):
        # runtime/remote.py before the fix: the workers property summed
        # agent capacities without taking pool._lock.
        assert_flags(
            "import threading\n"
            "class RemoteStudyPool:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.RLock()\n"
            "        self._agents = []  # guarded-" "by: _lock\n"
            "    @property\n"
            "    def workers(self):\n"
            "        return sum(link.capacity for link in self._agents)\n",
            "lock-guarded-by",
            path="src/repro/runtime/remote.py",
        )

    def test_blas_average_lookahead_fails_again(self):
        # core/batch.py before the ordered sums: the average lookahead
        # column reduced with BLAS, and the row-group count used sum().
        violations = assert_flags(
            "import numpy as np\n"
            "def _average_latency(transfer, informed, pending):\n"
            "    sums = np.matmul(transfer, pending[:, :, None])[:, :, 0]\n"
            "    others = pending.sum(axis=1) - 1.0\n"
            "    return sums / others[:, None]\n"
            "def _group_ends(specs, groups):\n"
            "    return [sum(s[0] == g for s in specs) for g in range(groups)]\n",
            "determinism-float-reduction",
            path="src/repro/core/batch.py",
        )
        assert [violation.line for violation in violations] == [3, 4, 7]

    def test_unseeded_rng_fails_again(self):
        # The rule the whole rng facade exists to make unnecessary.
        assert_flags(
            "import numpy as np\n"
            "def jitter():\n"
            "    return np.random.default_rng().normal()\n",
            "determinism-unseeded-rng",
            path="src/repro/simulator/fixture.py",
        )
