"""The flow-sensitive analysis engine: CFG shapes, the fixpoint
solver, flow/field-sensitive taint witnesses, the lockset rules
(CC001–CC003), incremental ``--changed-only`` soundness, and the
regression tests for the live races those rules caught.

The CFG golden tests pin the *shape* the downstream analyses reason
over — a silent edge change is a silent soundness change, so the
renders are asserted verbatim.
"""

import ast
import pathlib
import textwrap
import threading
from dataclasses import replace

import pytest

from repro.analysis import Analyzer, Baseline
from repro.analysis.config import DEFAULT_CONFIG
from repro.analysis.flow import FlowAnalysis, build_cfg, solve_forward
from repro.analysis.incremental import IncrementalAnalyzer
from repro.analysis.model import Finding, TraceStep

ROOT = pathlib.Path(__file__).resolve().parent.parent


def write_tree(root, files):
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return root


def scan(tmp_path, files, baseline=None):
    write_tree(tmp_path, files)
    return Analyzer().run([tmp_path], baseline=baseline)


def rules_fired(report):
    return sorted({f.rule for f in report.new_findings})


def cfg_of(src):
    tree = ast.parse(textwrap.dedent(src))
    fn = tree.body[0]
    assert isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
    return build_cfg(fn.body)


# ---------------------------------------------------------------------------
# CFG construction golden tests
# ---------------------------------------------------------------------------


class TestCfgShapes:
    def test_if_elif_else(self):
        cfg = cfg_of(
            """
            def f(x):
                if x:
                    a = 1
                elif x > 2:
                    a = 2
                else:
                    a = 3
                return a
            """
        )
        assert cfg.render() == textwrap.dedent(
            """\
            B0[entry] -> B2 B3
              test@3
            B1[exit] -> -
            B2[then] -> B4
              stmt:Assign@4
            B3[else] -> B5 B6
              test@5
            B4[endif] -> B1
              stmt:Return@9
            B5[then] -> B7
              stmt:Assign@6
            B6[else] -> B7
              stmt:Assign@8
            B7[endif] -> B4
            B8[dead] -> B1"""
        )
        assert cfg.rpo()[0] == cfg.entry
        assert cfg.rpo()[-1] == cfg.exit

    def test_while_with_break_and_else(self):
        cfg = cfg_of(
            """
            def g(xs):
                total = 0
                while xs:
                    x = xs.pop()
                    if x < 0:
                        break
                    total += x
                else:
                    total = -1
                return total
            """
        )
        render = cfg.render()
        # The loop test has both a body edge and an else edge; ``break``
        # jumps past the else block straight to endloop.
        assert "B2[while] -> B3 B4" in render
        assert "B4[loop-else] -> B5" in render
        assert "B6[then] -> B5" in render  # break -> endloop
        assert "B8[endif] -> B2" in render  # back edge

    def test_try_except_finally(self):
        cfg = cfg_of(
            """
            def h(f):
                try:
                    v = f()
                except ValueError as exc:
                    v = None
                finally:
                    close()
                return v
            """
        )
        assert cfg.render() == textwrap.dedent(
            """\
            B0[entry] -> B3 B4
              stmt:Assign@4
            B1[exit] -> -
            B2[endtry] -> B1
              stmt:Return@9
            B3[except] -> B4
              except-bind@5
              stmt:Assign@6
            B4[finally] -> B2 B1
              stmt:Expr@8
            B5[dead] -> B1"""
        )

    def test_with_emits_enter_and_exit_events(self):
        cfg = cfg_of(
            """
            def w(lock):
                with lock:
                    x = 1
                return x
            """
        )
        render = cfg.render()
        assert "with-enter@3#w0" in render
        assert "with-exit@3#w0" in render

    def test_boolean_short_circuit_is_decomposed(self):
        cfg = cfg_of(
            """
            def b(p, q):
                if p and not q:
                    return 1
                return 0
            """
        )
        render = cfg.render()
        # ``p and not q`` becomes two test blocks: entry tests p and can
        # fall straight to else; the [and] block tests (not q).
        assert "B0[entry] -> B5 B3" in render
        assert "B5[and] -> B3 B2" in render

    def test_nested_function_is_a_leaf_statement(self):
        cfg = cfg_of(
            """
            def outer():
                def inner():
                    while True:
                        pass
                return inner
            """
        )
        # The nested def contributes one stmt event — its body's loop
        # must not leak blocks into the outer CFG.
        render = cfg.render()
        assert "stmt:FunctionDef@3" in render
        assert "[while]" not in render

    def test_code_after_return_is_dead(self):
        cfg = cfg_of(
            """
            def d():
                return 1
                x = 2
            """
        )
        assert "[dead]" in cfg.render()


# ---------------------------------------------------------------------------
# The generic forward solver
# ---------------------------------------------------------------------------


class _MustDefined(FlowAnalysis):
    """Toy must-analysis: which names are assigned on *every* path."""

    def initial(self):
        return frozenset()

    def copy(self, state):
        return state

    def join(self, a, b):
        return a & b

    def transfer(self, event, state):
        if event[0] == "stmt" and isinstance(event[1], ast.Assign):
            names = frozenset(
                t.id for t in event[1].targets if isinstance(t, ast.Name)
            )
            return state | names
        return state


class TestSolver:
    def test_must_definedness_joins_by_intersection(self):
        cfg = cfg_of(
            """
            def f(x):
                if x:
                    a = 1
                    b = 1
                else:
                    b = 2
                c = 3
            """
        )
        in_states = solve_forward(cfg, _MustDefined())
        at_exit = in_states[cfg.exit]
        assert "b" in at_exit and "c" in at_exit
        assert "a" not in at_exit  # only defined on one path

    def test_dead_blocks_are_never_reached(self):
        cfg = cfg_of(
            """
            def d():
                return 1
                x = 2
            """
        )
        in_states = solve_forward(cfg, _MustDefined())
        dead = [
            bid
            for bid in range(len(cfg.blocks))
            if cfg.block(bid).label == "dead"
        ]
        assert dead
        assert all(bid not in in_states for bid in dead)


# ---------------------------------------------------------------------------
# Flow-sensitive taint
# ---------------------------------------------------------------------------


class TestFlowTaint:
    def test_branch_dependent_leak_fires_with_witness(self, tmp_path):
        report = scan(
            tmp_path,
            {
                "lbs/branchy.py": """
                def relay(mpc, provider, uid, risky):
                    if risky:
                        data = mpc.locate(uid)
                    else:
                        data = "ok"
                    return provider.serve(data)
                """
            },
        )
        assert rules_fired(report) == ["PA001"]
        (finding,) = report.new_findings
        assert finding.trace, "flow findings must carry a witness"
        notes = " ".join(step.note for step in finding.trace)
        assert "mpc.locate" in " ".join(s.snippet for s in finding.trace)
        assert "sink" in notes

    def test_kill_then_use_is_clean_but_use_then_retaint_fires(
        self, tmp_path
    ):
        report = scan(
            tmp_path,
            {
                "lbs/order.py": """
                def clean(mpc, policy, provider, uid):
                    data = mpc.locate(uid)
                    data = policy.anonymize(data)
                    return provider.serve(data)

                def dirty(mpc, policy, provider, uid):
                    data = policy.anonymize(mpc.locate(uid))
                    data = mpc.locate(uid)
                    return provider.serve(data)
                """
            },
        )
        assert rules_fired(report) == ["PA001"]
        (finding,) = report.new_findings
        assert finding.symbol == "dirty"

    def test_loop_carried_taint_reaches_the_sink(self, tmp_path):
        report = scan(
            tmp_path,
            {
                "lbs/loopy.py": """
                def pump(mpc, provider, uids):
                    last = None
                    for uid in uids:
                        last = mpc.locate(uid)
                    return provider.serve(last)
                """
            },
        )
        assert "PA001" in rules_fired(report)

    def test_field_sensitive_kill(self, tmp_path):
        report = scan(
            tmp_path,
            {
                "lbs/fields.py": """
                class Clean:
                    def run(self, mpc, policy, provider, uid):
                        self.raw = mpc.locate(uid)
                        self.safe = policy.anonymize(self.raw)
                        return provider.serve(self.safe)

                class Leaky:
                    def run(self, mpc, policy, provider, uid):
                        self.raw = mpc.locate(uid)
                        self.safe = policy.anonymize(self.raw)
                        return provider.serve(self.raw)
                """
            },
        )
        (finding,) = report.new_findings
        assert finding.rule == "PA001"
        assert finding.symbol == "Leaky.run"

    def test_halving_chain_is_a_sanitizer(self, tmp_path):
        report = scan(
            tmp_path,
            {
                "streaming/chain.py": """
                def coarse(mpc, provider, uid, tree):
                    raw = mpc.locate(uid)
                    rungs = halving_chain(tree, raw)
                    return provider.serve(rungs)
                """
            },
        )
        assert rules_fired(report) == []

    @pytest.mark.parametrize("configured", [True, False])
    def test_raw_read_of_the_coordinate_column_fires(self, tmp_path, configured):
        """The location database's coordinate column is a source: by
        the configured field name, and by its own ``# taint: location``
        tag in the real module when the configuration omits it."""
        fields = DEFAULT_CONFIG.tainted_fields
        config = replace(
            DEFAULT_CONFIG,
            tainted_fields=fields if configured else fields - {"_coords"},
        )
        write_tree(
            tmp_path,
            {
                "core/locationdb.py": (
                    ROOT / "src/repro/core/locationdb.py"
                ).read_text(encoding="utf-8"),
                "lbs/leak.py": """
                def relay(db, provider, uid):
                    row = db.index()[1][uid]
                    return provider.serve(db._coords[row])
                """,
            },
        )
        report = Analyzer(config=config).run([tmp_path])
        assert rules_fired(report) == ["PA001"]
        (finding,) = report.new_findings
        assert finding.path.endswith("leak.py") and finding.symbol == "relay"


# ---------------------------------------------------------------------------
# CC001: guarded attribute access
# ---------------------------------------------------------------------------

_LOCKY = """
import threading

class Ledger:
    def __init__(self):
        self._lock = threading.Lock()
        self._rows = {}  # guarded-by: self._lock

    def put(self, k, v):
        with self._lock:
            self._rows[k] = v

    def size(self):
        return len(self._rows)
"""


class TestLocksetCC001:
    def test_unguarded_read_fires_with_witness(self, tmp_path):
        report = scan(tmp_path, {"serving/locky.py": _LOCKY})
        assert rules_fired(report) == ["CC001"]
        (finding,) = report.new_findings
        assert finding.symbol == "Ledger.size"
        assert "_rows" in finding.message
        assert len(finding.trace) == 2
        assert "enter size()" in finding.trace[0].note
        assert "held locks: none" in finding.trace[1].note

    def test_locked_access_and_ctor_store_are_clean(self, tmp_path):
        report = scan(
            tmp_path,
            {
                "serving/locky.py": """
                import threading

                class Ledger:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._rows = {}  # guarded-by: self._lock

                    def put(self, k, v):
                        with self._lock:
                            self._rows[k] = v
                """
            },
        )
        assert rules_fired(report) == []

    def test_locked_suffix_and_def_line_guard_are_exempt(self, tmp_path):
        report = scan(
            tmp_path,
            {
                "serving/conv.py": """
                import threading

                class Ledger:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._rows = {}  # guarded-by: self._lock

                    def drain_locked(self):
                        return dict(self._rows)

                    def view(self):  # guarded-by: self._lock
                        return dict(self._rows)
                """
            },
        )
        assert rules_fired(report) == []

    def test_receiver_relative_spec_follows_the_receiver(self, tmp_path):
        report = scan(
            tmp_path,
            {
                "serving/slots.py": """
                import threading

                class Slot:
                    def __init__(self):
                        self.lock = threading.Lock()
                        self.pending = {}  # guarded-by: self.lock

                def flush(slot):
                    with slot.lock:
                        slot.pending.clear()

                def peek(slot):
                    return len(slot.pending)
                """
            },
        )
        (finding,) = report.new_findings
        assert finding.rule == "CC001"
        assert finding.symbol == "peek"
        assert "`with slot.lock:`" in finding.message

    def test_verbatim_spec_names_the_foreign_lock(self, tmp_path):
        report = scan(
            tmp_path,
            {
                "serving/cv.py": """
                import threading

                class Fleet:
                    def __init__(self):
                        self._cv = threading.Condition()
                        self.acked = 0  # guarded-by: =self._cv

                    def bump(self):
                        with self._cv:
                            self.acked += 1

                    def read(self):
                        return self.acked
                """
            },
        )
        (finding,) = report.new_findings
        assert finding.rule == "CC001"
        assert finding.symbol == "Fleet.read"
        assert "`with self._cv:`" in finding.message

    def test_must_join_one_armed_acquire_still_fires(self, tmp_path):
        report = scan(
            tmp_path,
            {
                "serving/maybe.py": """
                import threading

                class Ledger:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._rows = {}  # guarded-by: self._lock

                    def maybe(self, flag):
                        if flag:
                            self._lock.acquire()
                        self._rows.clear()
                """
            },
        )
        assert rules_fired(report) == ["CC001"]

    def test_acquire_release_calls_move_the_held_set(self, tmp_path):
        report = scan(
            tmp_path,
            {
                "serving/manual.py": """
                import threading

                class Ledger:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._rows = {}  # guarded-by: self._lock

                    def explicit(self):
                        self._lock.acquire()
                        n = len(self._rows)
                        self._lock.release()
                        return n
                """
            },
        )
        assert rules_fired(report) == []

    def test_suppression_comment_is_honoured(self, tmp_path):
        report = scan(
            tmp_path,
            {
                "serving/supp.py": """
                import threading

                class Ledger:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._rows = {}  # guarded-by: self._lock

                    def boot(self):
                        # analysis: ok[CC001] pre-publication setup
                        self._rows = {}
                """
            },
        )
        assert rules_fired(report) == []
        assert report.suppressed == 1


# ---------------------------------------------------------------------------
# CC002: global lock-order consistency
# ---------------------------------------------------------------------------


class TestLockOrderCC002:
    FWD = """
    import threading

    class Pool:
        def __init__(self):
            self.alpha_lock = threading.Lock()
            self.beta_lock = threading.Lock()

        def forward(self):
            with self.alpha_lock:
                with self.beta_lock:
                    return 1
    """

    def test_reversed_order_across_modules_fires_once(self, tmp_path):
        report = scan(
            tmp_path,
            {
                "serving/ab.py": self.FWD,
                "serving/ba.py": """
                class Pool:
                    def reverse(self):
                        with self.beta_lock:
                            with self.alpha_lock:
                                return 2
                """,
            },
        )
        cc2 = [f for f in report.new_findings if f.rule == "CC002"]
        assert len(cc2) == 1  # one side of the cycle, not both
        (finding,) = cc2
        assert finding.path.endswith("ba.py")
        assert "potential deadlock" in finding.message
        assert len(finding.trace) == 2
        assert finding.trace[1].path.endswith("ab.py")

    def test_consistent_order_is_clean(self, tmp_path):
        report = scan(
            tmp_path,
            {
                "serving/ab.py": self.FWD,
                "serving/ab2.py": """
                class Pool:
                    def also_forward(self):
                        with self.alpha_lock:
                            with self.beta_lock:
                                return 3
                """,
            },
        )
        assert "CC002" not in rules_fired(report)

    def test_multi_item_with_counts_as_a_nesting(self, tmp_path):
        report = scan(
            tmp_path,
            {
                "serving/multi.py": """
                class Pool:
                    def one(self):
                        with self.alpha_lock, self.beta_lock:
                            return 1

                    def two(self):
                        with self.beta_lock:
                            with self.alpha_lock:
                                return 2
                """
            },
        )
        assert "CC002" in rules_fired(report)


# ---------------------------------------------------------------------------
# CC003: lost-update write-backs
# ---------------------------------------------------------------------------


class TestLostUpdateCC003:
    def test_write_back_in_a_later_region_fires(self, tmp_path):
        report = scan(
            tmp_path,
            {
                "serving/count.py": """
                import threading

                class Counter:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._total = 0  # guarded-by: self._lock

                    def bump(self, delta):
                        with self._lock:
                            snapshot = self._total
                        with self._lock:
                            self._total = snapshot + delta
                """
            },
        )
        assert rules_fired(report) == ["CC003"]
        (finding,) = report.new_findings
        assert "lost" in finding.message
        assert finding.trace

    def test_same_region_update_is_clean(self, tmp_path):
        report = scan(
            tmp_path,
            {
                "serving/count.py": """
                import threading

                class Counter:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._total = 0  # guarded-by: self._lock

                    def bump(self, delta):
                        with self._lock:
                            snapshot = self._total
                            self._total = snapshot + delta
                """
            },
        )
        assert rules_fired(report) == []

    def test_unlocked_write_back_fires_both_rules(self, tmp_path):
        report = scan(
            tmp_path,
            {
                "serving/count.py": """
                import threading

                class Counter:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._total = 0  # guarded-by: self._lock

                    def racy(self, delta):
                        with self._lock:
                            snapshot = self._total
                        self._total = snapshot + delta
                """
            },
        )
        assert rules_fired(report) == ["CC001", "CC003"]


# ---------------------------------------------------------------------------
# Witnesses, fingerprints, baseline drift
# ---------------------------------------------------------------------------


class TestWitnessesAndFingerprints:
    def test_render_includes_the_witness_block(self, tmp_path):
        report = scan(tmp_path, {"serving/locky.py": _LOCKY})
        (finding,) = report.new_findings
        rendered = finding.render()
        assert "witness:" in rendered
        lines = rendered.splitlines()
        assert lines[0].startswith(f"{finding.path}:{finding.line}:")
        assert any("enter size()" in line for line in lines[1:])

    def test_fingerprint_ignores_trace_and_severity(self):
        base = dict(
            rule="CC001",
            path="a.py",
            line=10,
            col=4,
            message="m",
            symbol="S.f",
            snippet="x = 1",
        )
        plain = Finding(**base)
        traced = Finding(
            **base,
            severity="warning",
            trace=(TraceStep(path="a.py", line=1, snippet="s", note="n"),),
        )
        assert plain.fingerprint == traced.fingerprint

    def test_moving_code_keeps_fingerprints_stable(self, tmp_path):
        report_a = scan(tmp_path / "a", {"serving/locky.py": _LOCKY})
        shifted = "\n\n# a comment pushing everything down\n" + textwrap.dedent(
            _LOCKY
        )
        report_b = scan(tmp_path / "b", {"serving/locky.py": shifted})
        fps_a = sorted(f.fingerprint for f in report_a.new_findings)
        fps_b = sorted(f.fingerprint for f in report_b.new_findings)
        assert fps_a == fps_b
        lines_a = [f.line for f in report_a.new_findings]
        lines_b = [f.line for f in report_b.new_findings]
        assert lines_a != lines_b  # the move really happened

    def test_baseline_survives_the_move(self, tmp_path):
        write_tree(tmp_path / "a", {"serving/locky.py": _LOCKY})
        report_a = Analyzer().run([tmp_path / "a"])
        baseline = Baseline.from_findings(report_a.findings)
        shifted = "\n\n# pushed down\n" + textwrap.dedent(_LOCKY)
        report_b = scan(
            tmp_path / "b", {"serving/locky.py": shifted}, baseline=baseline
        )
        assert report_b.new_findings == []
        assert report_b.exit_code("new") == 0


# ---------------------------------------------------------------------------
# Incremental --changed-only
# ---------------------------------------------------------------------------

_INC_TREE = {
    "serving/locky.py": _LOCKY,
    "lbs/branchy.py": """
    def relay(mpc, provider, uid, risky):
        if risky:
            data = mpc.locate(uid)
        else:
            data = "ok"
        return provider.serve(data)
    """,
    "core/quiet.py": """
    def add(a, b):
        return a + b
    """,
}


def _report_key(report):
    return [
        (f.rule, f.path, f.line, f.col, f.message, f.fingerprint)
        for f in report.findings
    ]


class TestIncremental:
    def test_changed_only_matches_cold_after_an_edit(self, tmp_path):
        tree = write_tree(tmp_path / "tree", dict(_INC_TREE))
        cache = tmp_path / "cache.json"
        driver = IncrementalAnalyzer()
        driver.run_cold([tree], cache_path=cache)

        # Touch one file in a finding-relevant way: un-lock the put().
        edited = textwrap.dedent(_LOCKY).replace(
            "        with self._lock:\n            self._rows[k] = v",
            "        self._rows[k] = v",
        )
        assert edited != textwrap.dedent(_LOCKY)
        (tree / "serving/locky.py").write_text(edited, encoding="utf-8")

        warm = IncrementalAnalyzer()
        incremental = warm.run_changed_only([tree], cache_path=cache)
        assert warm.fallback_reason is None
        assert warm.reused == 2 and warm.analyzed == 1
        cold = IncrementalAnalyzer().run_cold([tree])
        assert _report_key(incremental) == _report_key(cold)
        assert {
            f.symbol for f in incremental.findings if f.rule == "CC001"
        } == {"Ledger.put", "Ledger.size"}

    def test_noop_rerun_reuses_everything(self, tmp_path):
        tree = write_tree(tmp_path / "tree", dict(_INC_TREE))
        cache = tmp_path / "cache.json"
        driver = IncrementalAnalyzer()
        cold = driver.run_cold([tree], cache_path=cache)
        warm = IncrementalAnalyzer()
        incremental = warm.run_changed_only([tree], cache_path=cache)
        assert warm.fallback_reason is None
        assert warm.reused == 3 and warm.analyzed == 0
        assert _report_key(incremental) == _report_key(cold)

    def test_import_graph_change_falls_back_cold(self, tmp_path):
        tree = write_tree(tmp_path / "tree", dict(_INC_TREE))
        cache = tmp_path / "cache.json"
        IncrementalAnalyzer().run_cold([tree], cache_path=cache)
        quiet = tree / "core/quiet.py"
        quiet.write_text(
            "import json\n" + quiet.read_text(encoding="utf-8"),
            encoding="utf-8",
        )
        warm = IncrementalAnalyzer()
        report = warm.run_changed_only([tree], cache_path=cache)
        assert warm.fallback_reason is not None
        assert "import graph changed" in warm.fallback_reason
        assert _report_key(report) == _report_key(
            IncrementalAnalyzer().run_cold([tree])
        )

    def test_missing_cache_falls_back_cold(self, tmp_path):
        tree = write_tree(tmp_path / "tree", dict(_INC_TREE))
        warm = IncrementalAnalyzer()
        warm.run_changed_only([tree], cache_path=tmp_path / "nope.json")
        assert warm.fallback_reason == "no usable cache"

    def test_guard_annotation_change_falls_back_cold(self, tmp_path):
        tree = write_tree(tmp_path / "tree", dict(_INC_TREE))
        cache = tmp_path / "cache.json"
        IncrementalAnalyzer().run_cold([tree], cache_path=cache)
        locky = tree / "serving/locky.py"
        locky.write_text(
            locky.read_text(encoding="utf-8").replace(
                "# guarded-by: self._lock", "# guarded-by: self._mu"
            ),
            encoding="utf-8",
        )
        warm = IncrementalAnalyzer()
        report = warm.run_changed_only([tree], cache_path=cache)
        assert warm.fallback_reason is not None
        assert "guards changed" in warm.fallback_reason
        assert _report_key(report) == _report_key(
            IncrementalAnalyzer().run_cold([tree])
        )


# ---------------------------------------------------------------------------
# Regressions for the live races the lockset gate caught
# ---------------------------------------------------------------------------


class TestLiveRaceRegressions:
    def test_ledger_queries_are_safe_under_concurrent_records(self):
        from repro.core.geometry import Rect
        from repro.trajectory.ledger import TrajectoryLedger

        ledger = TrajectoryLedger(window=4)
        rect = Rect(0, 0, 1, 1)
        errors = []
        stop = threading.Event()

        def writer(base):
            for i in range(400):
                ledger.record(
                    f"u{base}-{i}",
                    rect,
                    [f"u{base}-{i}", "other"],
                    widened=bool(i % 2),
                )

        def reader():
            while not stop.is_set():
                try:
                    ledger.widened_count()
                    ledger.users()
                    len(ledger)
                except RuntimeError as exc:  # pragma: no cover — the bug
                    errors.append(exc)
                    return

        writers = [
            threading.Thread(target=writer, args=(b,)) for b in range(3)
        ]
        readers = [threading.Thread(target=reader) for __ in range(2)]
        for t in readers + writers:
            t.start()
        for t in writers:
            t.join()
        stop.set()
        for t in readers:
            t.join()
        assert errors == []
        assert len(ledger) == 3 * 400
        assert ledger.widened_count() == 3 * 400 // 2

    def test_breaker_counters_survive_concurrent_failures(self):
        from repro.robustness.retry import CircuitBreaker

        breaker = CircuitBreaker(failure_threshold=100_000)
        threads = [
            threading.Thread(
                target=lambda: [breaker.record_failure() for __ in range(2000)]
            )
            for __ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Below threshold and fully locked: every increment must land.
        assert breaker._consecutive_failures == 4 * 2000
        assert breaker.state == "closed"

    def test_breaker_opens_exactly_once_under_contention(self):
        from repro.robustness.retry import CircuitBreaker

        breaker = CircuitBreaker(failure_threshold=5, reset_timeout=3600.0)
        threads = [
            threading.Thread(
                target=lambda: [breaker.record_failure() for __ in range(50)]
            )
            for __ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert breaker.opened_times == 1
        assert breaker.state == "open"

    def test_accumulator_stats_snapshot_is_consistent(self):
        from repro.core.geometry import Point
        from repro.streaming.ingest import DirtyAccumulator

        acc = DirtyAccumulator()
        acc.add("u1", Point(1, 1))
        acc.add("u1", Point(2, 2))
        acc.add("u2", Point(3, 3))
        stats = acc.stats()
        assert stats == {
            "ingested": 3,
            "coalesced": 1,
            "batches": 0,
            "pending": 2,
        }

    def test_epoch_stats_does_not_deadlock(self):
        from repro.core.geometry import Rect
        from repro.data import uniform_users
        from repro.streaming import EpochManager

        region = Rect(0, 0, 1024, 1024)
        manager = EpochManager(region, 4, uniform_users(48, region, seed=5))
        try:
            stats = manager.stats()
            assert stats["staleness"] == 0
            assert stats["ingested"] == 0
            assert manager.active.serial == stats["active_serial"]
        finally:
            manager.close()

    def test_fleet_mirror_folds_race_routing_rebuilds(self):
        from repro.core.geometry import Rect
        from repro.data import uniform_users
        from repro.lbs import LBSProvider, generate_pois
        from repro.serving import FleetConfig, FleetDispatcher

        region = Rect(0, 0, 2048, 2048)
        db = uniform_users(96, region, seed=9)
        pois = generate_pois(region, {"rest": 20}, seed=10)
        dispatcher = FleetDispatcher(
            region,
            4,
            db,
            LBSProvider(pois),
            FleetConfig(n_workers=2, mode="simulated", trajectory=True),
        )
        try:
            uids = db.user_ids()[:16]
            cloaks = {uid: dispatcher._cloaks[uid] for uid in uids}
            errors = []

            def folder():
                try:
                    for __ in range(40):
                        for uid in uids:
                            dispatcher._record_mirror(
                                uid, Rect(*cloaks[uid])
                            )
                except RuntimeError as exc:  # pragma: no cover — the bug
                    errors.append(exc)

            def rebuilder():
                try:
                    for __ in range(40):
                        dispatcher._routing = dispatcher._build_routing()
                except RuntimeError as exc:  # pragma: no cover — the bug
                    errors.append(exc)

            threads = [
                threading.Thread(target=folder),
                threading.Thread(target=folder),
                threading.Thread(target=rebuilder),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert errors == []
            assert dispatcher._mirror is not None
            assert set(dispatcher._mirror.users()) == set(uids)
        finally:
            dispatcher.close()
