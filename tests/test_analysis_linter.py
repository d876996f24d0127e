"""Tests for the RPR project linter (repro.analysis)."""

from pathlib import Path

import pytest

from repro.analysis import ALL_RULES, lint_source, run_linter, rule_by_code

FIXTURE = Path(__file__).parent / "fixtures" / "rule_violations.py"
ALL_CODES = (
    "RPR001",
    "RPR002",
    "RPR003",
    "RPR004",
    "RPR005",
    "RPR006",
    "RPR007",
    "RPR008",
    "RPR009",
    "RPR010",
    "RPR011",
    "RPR012",
    "RPR013",
)


def lint_fixture(**kwargs):
    source = FIXTURE.read_text(encoding="utf-8")
    return lint_source(source, "fixtures/rule_violations.py", ignore_scope=True, **kwargs)


class TestRuleRegistry:
    def test_all_rules_present(self):
        assert sorted(r.code for r in ALL_RULES) == sorted(ALL_CODES)

    def test_metadata_complete(self):
        for rule in ALL_RULES:
            assert rule.code.startswith("RPR")
            assert rule.name
            assert rule.description
            assert rule.hint, f"{rule.code} has no fixit hint"

    def test_rule_by_code(self):
        assert rule_by_code("RPR003").name == "seeded-generator-rng"
        with pytest.raises(KeyError):
            rule_by_code("RPR999")


class TestFixtureViolations:
    """The seeded fixture is flagged by every rule."""

    @pytest.mark.parametrize("code", ALL_CODES)
    def test_rule_fires(self, code):
        active, _ = lint_fixture()
        assert any(f.code == code for f in active), f"{code} did not fire"

    def test_rpr001_counts(self):
        active, _ = lint_fixture()
        assert len([f for f in active if f.code == "RPR001"]) == 3

    def test_rpr002_both_patterns(self):
        active, _ = lint_fixture()
        msgs = [f.message for f in active if f.code == "RPR002"]
        assert any("nested" in m for m in msgs)
        assert any("descending" in m for m in msgs)

    def test_rpr003_hash_seed(self):
        active, _ = lint_fixture()
        msgs = [f.message for f in active if f.code == "RPR003"]
        assert sum("hash()" in m for m in msgs) == 1

    def test_rpr003_hash_seed_sinks(self):
        source = (
            "import numpy as np\n"
            "rng = np.random.default_rng(hash('a'))\n"
            "ss = np.random.SeedSequence(entropy=hash('b'))\n"
            "run(seed=hash(('c', 1)) % 7)\n"
            "cfg.seed = hash('d')\n"
            "key = hash('e')\n"
            "rng2 = np.random.default_rng(stable_seed('f'))\n"
        )
        active, _ = lint_source(source, "benchmarks/bench_x.py")
        assert sorted(f.line for f in active if f.code == "RPR003") == [2, 3, 4, 5]

    def test_rpr005_both_contracts(self):
        active, _ = lint_fixture()
        msgs = [f.message for f in active if f.code == "RPR005"]
        assert any("missing required result field" in m for m in msgs)
        assert any("mutable default" in m for m in msgs)

    def test_rpr006_print_and_logging(self):
        active, _ = lint_fixture()
        msgs = [f.message for f in active if f.code == "RPR006"]
        assert len(msgs) == 3  # print, bound logger, logging module
        assert any("print()" in m for m in msgs)
        assert any("log.debug()" in m for m in msgs)
        assert any("logging.info()" in m for m in msgs)

    def test_rpr006_scoped_to_executors(self):
        source = "for i in range(3):\n    print(i)\n"
        active, _ = lint_source(source, "utils/plotting.py")
        assert not any(f.code == "RPR006" for f in active)
        active, _ = lint_source(source, "core/engine.py")
        assert any(f.code == "RPR006" for f in active)

    def test_rpr006_ignores_emission_outside_loops(self):
        source = "print('run header')\nfor i in range(3):\n    x = i\n"
        active, _ = lint_source(source, "core/engine.py")
        assert not any(f.code == "RPR006" for f in active)

    def test_rpr007_constructors_and_conversion(self):
        active, _ = lint_fixture()
        msgs = [f.message for f in active if f.code == "RPR007"]
        # for-loop: zeros, repeat, arange; while-loop: empty, tocsr.
        assert len(msgs) == 5
        assert any("np.zeros()" in m for m in msgs)
        assert any("np.repeat()" in m for m in msgs)
        assert any("np.arange()" in m for m in msgs)
        assert any("np.empty()" in m for m in msgs)
        assert any(".tocsr()" in m for m in msgs)

    def test_rpr007_ignores_hoisted_allocation(self):
        source = (
            "import numpy as np\n"
            "buf = np.zeros(100)\n"
            "for i in range(3):\n"
            "    buf[i] = i\n"
        )
        active, _ = lint_source(source, "core/engine.py")
        assert not any(f.code == "RPR007" for f in active)

    def test_rpr007_scoped_to_executors(self):
        source = "import numpy as np\nfor i in range(3):\n    v = np.zeros(8)\n"
        active, _ = lint_source(source, "solvers/multadd.py")
        assert not any(f.code == "RPR007" for f in active)
        active, _ = lint_source(source, "distributed/simulator.py")
        assert any(f.code == "RPR007" for f in active)

    def test_rpr007_tracks_numpy_alias(self):
        source = "import numpy\nwhile True:\n    v = numpy.empty(8)\n"
        active, _ = lint_source(source, "core/threaded.py")
        assert any(f.code == "RPR007" for f in active)

    def test_rpr008_counts(self):
        active, _ = lint_fixture()
        msgs = [f.message for f in active if f.code == "RPR008"]
        # grid_down subscript, mm.alive subscript, mm.rank_state
        # attribute rebind, mm.last_heard augmented subscript.
        assert len(msgs) == 4
        assert any("'grid_down'" in m for m in msgs)
        assert any("'rank_state'" in m for m in msgs)

    def test_rpr008_allows_manager_internals(self):
        source = (
            "class MembershipManager:\n"
            "    def mark_grid_down(self, g):\n"
            "        self.grid_down[g] = True\n"
        )
        active, _ = lint_source(source, "distributed/elastic.py")
        assert not any(f.code == "RPR008" for f in active)

    def test_rpr008_scoped_to_distributed(self):
        source = "def f(mm):\n    mm.alive[0] = False\n"
        active, _ = lint_source(source, "core/engine.py")
        assert not any(f.code == "RPR008" for f in active)
        active, _ = lint_source(source, "distributed/simulator.py")
        assert any(f.code == "RPR008" for f in active)

    def test_rpr009_counts_and_interprocedural_reach(self):
        active, _ = lint_fixture()
        msgs = [f.message for f in active if f.code == "RPR009"]
        # The raw write inside the escaping worker closure, plus the
        # write inside the helper the worker hands the array to.
        assert len(msgs) == 2
        assert any("'resid'" in m and "escaping array" in m for m in msgs)
        assert any("'iterate'" in m and "shared argument" in m for m in msgs)

    def test_rpr010_cycle_both_directions(self):
        active, _ = lint_fixture()
        msgs = [f.message for f in active if f.code == "RPR010"]
        assert len(msgs) == 2
        assert all("opposite order" in m for m in msgs)

    def test_rpr011_counts_and_kinds(self):
        active, _ = lint_fixture()
        msgs = [f.message for f in active if f.code == "RPR011"]
        # on_snapshot_blocking: sleep, open, .write, .sendall, .acquire;
        # FixtureStallDetector.update: open, .readline; _check: sleep.
        assert len(msgs) == 8
        assert any("time.sleep()" in m for m in msgs)
        assert any("open()" in m for m in msgs)
        assert any(".write()" in m for m in msgs)
        assert any(".sendall()" in m for m in msgs)
        assert any(".acquire()" in m for m in msgs)
        assert any(".readline()" in m for m in msgs)

    def test_rpr011_scoped_to_observe_live_modules(self):
        source = "import time\ndef on_snapshot(s):\n    time.sleep(1)\n"
        active, _ = lint_source(source, "core/engine.py")
        assert not any(f.code == "RPR011" for f in active)
        active, _ = lint_source(source, "observe/live.py")
        assert any(f.code == "RPR011" for f in active)

    def test_rpr011_ignores_pure_detectors_and_plain_defs(self):
        source = (
            "import time\n"
            "class QuietDetector:\n"
            "    def update(self, snap):\n"
            "        return max(snap)\n"
            "def writer_thread(fh):\n"
            "    # not a callback: I/O is allowed in the sinks.\n"
            "    fh.write('x')\n"
            "    time.sleep(0.1)\n"
        )
        active, _ = lint_source(source, "observe/live.py")
        assert not any(f.code == "RPR011" for f in active)

    def test_rpr011_bare_sleep_import(self):
        source = "from time import sleep\ndef _on_alert(a):\n    sleep(0.5)\n"
        active, _ = lint_source(source, "observe/alerts.py")
        msgs = [f.message for f in active if f.code == "RPR011"]
        assert len(msgs) == 1
        assert "sleep()" in msgs[0]

    def test_rpr012_module_state_and_rogue_views(self):
        active, _ = lint_fixture()
        msgs = [f.message for f in active if f.code == "RPR012"]
        # Module-level: the _locks listcomp, three bare Lock()s, the
        # RPR012 block's dict/list/Lock/np.zeros; plus one rogue
        # np.frombuffer outside SharedVectors.
        assert len(msgs) == 9
        assert sum("synchronization primitive" in m for m in msgs) == 4
        assert any("np.zeros()" in m for m in msgs)
        assert sum("np.frombuffer outside SharedVectors" in m for m in msgs) == 1

    def test_rpr012_scoped_to_parallel_module(self):
        source = "_cache = {}\n"
        active, _ = lint_source(source, "core/threaded.py")
        assert not any(f.code == "RPR012" for f in active)
        active, _ = lint_source(source, "core/parallel.py")
        assert any(f.code == "RPR012" for f in active)

    def test_rpr012_allows_immutable_constants_and_local_state(self):
        source = (
            "import numpy as np\n"
            "_COUNTERS = ('a', 'b')\n"
            "_EXIT = 17\n"
            "class SharedVectors:\n"
            "    def __init__(self, buf):\n"
            "        self.x = np.frombuffer(buf)\n"
            "def worker():\n"
            "    local = {}\n"
            "    buf = np.zeros(4)\n"
            "    return local, buf\n"
        )
        active, _ = lint_source(source, "core/parallel.py")
        assert not any(f.code == "RPR012" for f in active)

    def test_rpr013_queues_and_blocking_calls(self):
        active, _ = lint_fixture()
        msgs = [f.message for f in active if f.code == "RPR013"]
        # 6 unbounded constructions + 4 unbounded blocking calls in
        # the RPR013 blocks, plus the bare .acquire() seeded for
        # RPR011 (double-flagged here under ignore_scope).
        assert len(msgs) == 11
        assert sum("SimpleQueue() cannot be bounded" in m for m in msgs) == 1
        assert sum("unbounded deque()" in m for m in msgs) == 1
        assert sum("unbounded Queue()" in m for m in msgs) == 1
        assert sum("unbounded LifoQueue()" in m for m in msgs) == 1
        assert sum("unbounded PriorityQueue()" in m for m in msgs) == 1
        assert sum("unbounded JoinableQueue()" in m for m in msgs) == 1
        assert any(".get() with no timeout" in m for m in msgs)
        assert any(".join() with no timeout" in m for m in msgs)
        assert any(".wait() with no timeout" in m for m in msgs)

    def test_rpr013_allows_bounded_and_nonblocking(self):
        source = (
            "import collections, queue\n"
            "def f(q, t, lock, d, parts):\n"
            "    good = queue.Queue(maxsize=64)\n"
            "    ring = collections.deque(parts, 8)\n"
            "    item = q.get(timeout=0.5)\n"
            "    t.join(2.0)\n"
            "    lock.acquire(blocking=False)\n"
            "    return good, ring, item, d.get('key'), ', '.join(parts)\n"
        )
        active, _ = lint_source(source, "repro/serve/admission.py")
        assert not any(f.code == "RPR013" for f in active)

    def test_rpr013_scoped_to_serve(self):
        source = "import queue\nq = queue.Queue()\n"
        active, _ = lint_source(source, "core/engine.py")
        assert not any(f.code == "RPR013" for f in active)
        active, _ = lint_source(source, "repro/serve/server.py")
        assert any(f.code == "RPR013" for f in active)

    def test_findings_carry_hint_and_location(self):
        active, _ = lint_fixture()
        for f in active:
            assert f.line > 0
            assert f.path == "fixtures/rule_violations.py"
            formatted = f.format()
            assert f.code in formatted


class TestScope:
    def test_rpr001_scoped_to_executors(self):
        source = "def f(x, e):\n    x += e\n"
        active, _ = lint_source(source, "some/other/module.py")
        assert not any(f.code == "RPR001" for f in active)
        active, _ = lint_source(source, "core/threaded.py")
        assert any(f.code == "RPR001" for f in active)


class TestSuppression:
    SRC = "import time\nt = time.time()  # repro: noqa[RPR004] {just}\n"

    def test_justified_noqa_suppresses(self):
        active, suppressed = lint_source(
            self.SRC.format(just="boot banner, not a duration"), "m.py", strict=True
        )
        assert not any(f.code == "RPR004" for f in active)
        sup = [f for f in suppressed if f.code == "RPR004"]
        assert len(sup) == 1
        assert sup[0].justification == "boot banner, not a duration"

    def test_bare_noqa_suppresses_all_codes_non_strict(self):
        source = "import time\nt = time.time()  # repro: noqa\n"
        active, suppressed = lint_source(source, "m.py", strict=False)
        assert not active
        assert suppressed

    def test_strict_rejects_unjustified_noqa(self):
        source = "import time\nt = time.time()  # repro: noqa[RPR004]\n"
        active, suppressed = lint_source(source, "m.py", strict=True)
        assert not suppressed
        assert len(active) == 1
        assert "suppression rejected" in active[0].message

    def test_noqa_for_other_code_does_not_suppress(self):
        source = "import time\nt = time.time()  # repro: noqa[RPR003] wrong code\n"
        active, _ = lint_source(source, "m.py", strict=True)
        assert any(f.code == "RPR004" for f in active)

    def test_noqa_on_wrapped_statement_tail(self):
        # The statement header wraps; the noqa sits on its last
        # physical line, not the line the finding anchors to.
        source = (
            "import time\n"
            "t = time.time(\n"
            ")  # repro: noqa[RPR004] boot banner, not a duration\n"
        )
        active, suppressed = lint_source(source, "m.py", strict=True)
        assert not any(f.code == "RPR004" for f in active)
        assert any(f.code == "RPR004" for f in suppressed)

    def test_noqa_on_decorator_line(self):
        # RPR005 anchors on the ClassDef; a noqa on the decorator line
        # (part of the construct) must suppress it.
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass  # repro: noqa[RPR005] legacy result shim\n"
            "class LegacyResult:\n"
            "    x: float = 0.0\n"
        )
        active, suppressed = lint_source(source, "m.py", strict=True)
        assert not any(f.code == "RPR005" for f in active)
        assert any(f.code == "RPR005" for f in suppressed)

    def test_noqa_on_class_line_of_decorated_class(self):
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class LegacyResult:  # repro: noqa[RPR005] legacy result shim\n"
            "    x: float = 0.0\n"
        )
        active, suppressed = lint_source(source, "m.py", strict=True)
        assert not any(f.code == "RPR005" for f in active)
        assert any(f.code == "RPR005" for f in suppressed)

    def test_noqa_inside_body_does_not_leak_to_header(self):
        # A noqa on a body line must not suppress a finding anchored
        # to the construct's header.
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class LegacyResult:\n"
            "    x: float = 0.0  # repro: noqa[RPR005] wrong line\n"
        )
        active, _ = lint_source(source, "m.py", strict=True)
        assert any(
            f.code == "RPR005" and "missing required" in f.message for f in active
        )


class TestRepoIsClean:
    def test_installed_tree_passes_strict(self):
        report = run_linter(strict=True)
        assert report.files_checked > 50
        assert report.ok, report.format()

    def test_every_suppression_is_justified(self):
        report = run_linter(strict=True)
        for f in report.suppressed:
            assert f.justification, f.format()

    def test_report_format_summary_line(self):
        report = run_linter(strict=True)
        assert "finding(s)" in report.format()
