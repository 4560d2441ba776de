"""Lockset discipline over the CFG: the facts behind CC001–CC003.

The contract is annotation-driven.  A shared attribute declares its
lock at the assignment that creates it::

    self._traj_surviving = []   # guarded-by: self._lock

Two spec forms:

``self.<path>``  (receiver-relative)
    The lock lives on the same object as the attribute.  For an
    access ``R.attr`` the required lock is the spec with ``self``
    replaced by ``R``'s text — ``slot.outstanding`` under spec
    ``self.lock`` requires ``with slot.lock:``, and
    ``self.accumulator.ingested`` under spec ``self._lock`` requires
    ``self.accumulator._lock`` (not the *caller's* ``_lock``).

``=<expr>``  (verbatim)
    The attribute is guarded by some *other* object's lock, named
    exactly: ``# guarded-by: =self._cv`` on a worker-slot field means
    the dispatcher's condition variable must be held, whoever the
    receiver is.

A ``def`` line may carry ``# guarded-by: <expr>`` to declare the lock
held at entry (caller-holds contract); the ``*_locked`` name suffix
declares the same thing without naming the lock and additionally
skips CC001/CC003 for the whole body.  ``self.*`` stores inside
``__init__``/``__post_init__``/``__new__`` are exempt (the object is
thread-private until published).

The *held set* is a must-analysis: at a join point a lock counts as
held only if every predecessor path holds it.  Held locks carry the
region id of their acquisition site so CC003 can tell "same ``with``
block" from "re-acquired later" — the lost-update window is a value
read under region 1 and written back under region 2 (or no region).

Known approximations (DESIGN.md §14): lock *identity* is the source
text of the acquiring expression (aliasing a lock through a local
defeats it), and an exception escaping a ``with`` still shows the
lock held on the handler edge — both err toward missed findings,
never false ones.
"""

from __future__ import annotations

import ast
import re
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from ..config import AnalysisConfig
from ..model import TraceStep
from .cfg import CFG, build_cfg
from .solver import FlowAnalysis, solve_forward

__all__ = [
    "collect_guards",
    "collect_lock_pairs",
    "LockPair",
    "LocksetChecker",
]

#: ``# guarded-by: <spec>`` on an attribute-creating line.
_GUARD_LINE_RE = re.compile(
    r"^\s*(?:self|cls)?\.?([A-Za-z_][A-Za-z0-9_]*)\s*[:=][^#]*"
    r"#\s*guarded-by:\s*(=?[A-Za-z_][A-Za-z0-9_.]*)"
)
#: ``def f(...):  # guarded-by: <expr>`` — lock assumed held at entry.
_GUARD_DEF_RE = re.compile(r"#\s*guarded-by:\s*(=?[A-Za-z_][A-Za-z0-9_.]*)")

#: Functions whose ``self.*`` stores are pre-publication by contract.
_CTOR_NAMES = frozenset({"__init__", "__post_init__", "__new__"})

#: Region id meaning "held on every path, but via different regions".
_REGION_JOINED = -1


def collect_guards(lines) -> Dict[str, str]:
    """``# guarded-by:`` attribute specs declared in one file."""
    guards: Dict[str, str] = {}
    for line in lines:
        match = _GUARD_LINE_RE.match(line)
        if match is not None:
            guards.setdefault(match.group(1), match.group(2))
    return guards


def _receiver_text(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _receiver_text(node.value)
        if base is None:
            return None
        return f"{base}.{node.attr}"
    return None


def required_lock(spec: str, receiver: Optional[str]) -> Optional[str]:
    """The lock expression an access must hold, or None if unresolvable."""
    if spec.startswith("="):
        return spec[1:]
    if receiver is None:
        return None
    if receiver == "self" or spec == "self":
        return spec
    if spec.startswith("self."):
        return f"{receiver}{spec[4:]}"
    return spec


class LockPair:
    """One syntactic nesting: ``outer`` acquired, then ``inner``."""

    __slots__ = ("outer", "inner", "path", "line", "snippet", "symbol")

    def __init__(
        self,
        outer: str,
        inner: str,
        path: str,
        line: int,
        snippet: str,
        symbol: str,
    ):
        self.outer = outer
        self.inner = inner
        self.path = path
        self.line = line
        self.snippet = snippet
        self.symbol = symbol

    def key(self) -> Tuple[str, str]:
        return (self.outer, self.inner)

    def to_dict(self) -> Dict[str, object]:
        return {
            "outer": self.outer,
            "inner": self.inner,
            "path": self.path,
            "line": self.line,
            "snippet": self.snippet,
            "symbol": self.symbol,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "LockPair":
        return cls(
            str(data["outer"]),
            str(data["inner"]),
            str(data["path"]),
            int(data["line"]),  # type: ignore[arg-type]
            str(data["snippet"]),
            str(data["symbol"]),
        )


def _lockish(text: str, config: AnalysisConfig) -> bool:
    return re.search(config.concurrency_lockish, text) is not None


def _enclosing_class(module, node: ast.AST) -> Optional[str]:
    current = module.parents.get(node)
    while current is not None:
        if isinstance(current, ast.ClassDef):
            return current.name
        current = module.parents.get(current)
    return None


def _lock_identity(module, withitem_expr: ast.expr) -> str:
    """Cross-module identity: ``self.X`` becomes ``ClassName.X``."""
    text = _receiver_text(withitem_expr) or ast.unparse(withitem_expr)
    if text.startswith("self."):
        cls = _enclosing_class(module, withitem_expr)
        if cls is not None:
            return f"{cls}.{text[5:]}"
    return text


def collect_lock_pairs(module, config: AnalysisConfig) -> List[LockPair]:
    """Every lexically nested lock acquisition in the module."""
    pairs: List[LockPair] = []

    def lock_items(stmt) -> List[ast.expr]:
        return [
            item.context_expr
            for item in stmt.items
            if _lockish(ast.unparse(item.context_expr), config)
        ]

    for node in ast.walk(module.tree):
        if not isinstance(node, (ast.With, ast.AsyncWith)):
            continue
        outer_exprs = lock_items(node)
        if not outer_exprs:
            continue
        inner_exprs: List[Tuple[ast.expr, int]] = []
        # multi-item ``with a, b:`` acquires in order — a nesting too.
        for later in outer_exprs[1:]:
            inner_exprs.append((later, later.lineno))
        for child in ast.walk(node):
            if child is node or not isinstance(
                child, (ast.With, ast.AsyncWith)
            ):
                continue
            for expr in lock_items(child):
                inner_exprs.append((expr, expr.lineno))
        outer = outer_exprs[0]
        outer_id = _lock_identity(module, outer)
        for inner, line in inner_exprs:
            inner_id = _lock_identity(module, inner)
            if inner_id == outer_id:
                continue
            pairs.append(
                LockPair(
                    outer_id,
                    inner_id,
                    module.relpath,
                    line,
                    module.snippet_at(line),
                    module.symbol_of(inner),
                )
            )
    return pairs


# -- the held-lock dataflow ----------------------------------------------------


class _LockState:
    """Held locks (text → region id) plus CC003 read origins."""

    __slots__ = ("held", "binds")

    def __init__(
        self,
        held: Optional[Dict[str, int]] = None,
        binds: Optional[Dict[str, Tuple[str, str, int]]] = None,
    ):
        self.held = held if held is not None else {}
        #: local name → (attribute cell, lock text, region id) of the
        #: guarded read that produced it.
        self.binds = binds if binds is not None else {}

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, _LockState)
            and self.held == other.held
            and self.binds == other.binds
        )


class _LockAnalysis(FlowAnalysis):
    def __init__(self, checker: "LocksetChecker", entry_held: Dict[str, int]):
        self.checker = checker
        self.entry_held = entry_held

    def initial(self) -> _LockState:
        return _LockState(dict(self.entry_held))

    def copy(self, state: _LockState) -> _LockState:
        return _LockState(dict(state.held), dict(state.binds))

    def join(self, a: _LockState, b: _LockState) -> _LockState:
        held: Dict[str, int] = {}
        for lock, region in a.held.items():
            if lock in b.held:
                held[lock] = (
                    region if b.held[lock] == region else _REGION_JOINED
                )
        binds = {
            name: origin
            for name, origin in a.binds.items()
            if b.binds.get(name) == origin
        }
        return _LockState(held, binds)

    def equals(self, a: _LockState, b: _LockState) -> bool:
        return a == b

    def transfer(self, event: tuple, state: _LockState) -> _LockState:
        self.checker._exec_event(event, state, report=False)
        return state


#: Callback: ``(rule_id, node, message, trace)``.
FindingCallback = Callable[[str, ast.AST, str, Tuple[TraceStep, ...]], None]


class LocksetChecker:
    """Drive the lockset analysis over every function of one module."""

    def __init__(
        self,
        module,  # ModuleInfo
        project,  # Project
        config: AnalysisConfig,
        on_finding: FindingCallback,
    ):
        self.module = module
        self.project = project
        self.config = config
        self.on_finding = on_finding
        self._scope_fn: Optional[ast.AST] = None

    # -- entry ---------------------------------------------------------------

    def check(self) -> None:
        for node in ast.walk(self.module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_function(node)

    def _entry_held(self, fn: ast.AST) -> Dict[str, int]:
        line = self.module.snippet_at(fn.lineno)
        match = _GUARD_DEF_RE.search(line)
        if match is None:
            return {}
        spec = match.group(1)
        return {spec.lstrip("="): _REGION_JOINED}

    def _check_function(self, fn: ast.AST) -> None:
        if fn.name.endswith("_locked"):
            return  # caller-holds contract: the call site is audited
        if fn.name in _CTOR_NAMES:
            return  # thread-private until published
        cfg = self._cfg_of(fn)
        analysis = _LockAnalysis(self, self._entry_held(fn))
        in_states = solve_forward(cfg, analysis)
        self._scope_fn = fn
        try:
            for bid in cfg.rpo():
                if bid not in in_states:
                    continue
                state = analysis.copy(in_states[bid])
                for event in cfg.block(bid).events:
                    self._exec_event(event, state, report=True)
        finally:
            self._scope_fn = None

    def _cfg_of(self, fn: ast.AST) -> CFG:
        cache = getattr(self.module, "_lock_cfg_cache", None)
        if cache is None:
            cache = {}
            self.module._lock_cfg_cache = cache
        cfg = cache.get(id(fn))
        if cfg is None:
            cfg = build_cfg(fn.body)
            cache[id(fn)] = cfg
        return cfg

    # -- transfer ------------------------------------------------------------

    def _exec_event(
        self, event: tuple, state: _LockState, report: bool
    ) -> None:
        kind = event[0]
        if kind == "with-enter":
            item, wid = event[1], event[2]
            text = ast.unparse(item.context_expr)
            if _lockish(text, self.config):
                lock = _receiver_text(item.context_expr) or text
                state.held[lock] = wid
        elif kind == "with-exit":
            item = event[1]
            text = ast.unparse(item.context_expr)
            if _lockish(text, self.config):
                lock = _receiver_text(item.context_expr) or text
                state.held.pop(lock, None)
        elif kind == "stmt":
            self._exec_stmt(event[1], state, report)
        elif kind == "test":
            if report:
                for access in self._accesses(event[1]):
                    self._check_access(access, state, is_write=False)
        elif kind == "for-bind":
            if report:
                for access in self._accesses(event[2]):
                    self._check_access(access, state, is_write=False)

    def _exec_stmt(
        self, stmt: ast.stmt, state: _LockState, report: bool
    ) -> None:
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            return  # nested scopes are their own analysis unit
        # Explicit acquire()/release() calls move the held set too.
        for call in self._calls(stmt):
            if not isinstance(call.func, ast.Attribute):
                continue
            recv = _receiver_text(call.func.value)
            if recv is None or not _lockish(recv, self.config):
                continue
            if call.func.attr == "acquire":
                region = (getattr(call, "lineno", 0) << 12) + getattr(
                    call, "col_offset", 0
                )
                state.held[recv] = region
            elif call.func.attr == "release":
                state.held.pop(recv, None)

        if report:
            self._report_stmt(stmt, state)
        self._track_binds(stmt, state)

    def _track_binds(self, stmt: ast.stmt, state: _LockState) -> None:
        """Record guarded reads into locals; used by CC003."""
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            return
        target = stmt.targets[0]
        if not isinstance(target, ast.Name):
            if isinstance(target, ast.Attribute):
                return  # handled as a write in the report pass
            return
        state.binds.pop(target.id, None)
        guarded_reads = [
            access
            for access in self._accesses(stmt.value)
            if isinstance(access.ctx, ast.Load)
        ]
        if len(guarded_reads) != 1:
            return
        access = guarded_reads[0]
        receiver = _receiver_text(access.value)
        cell = f"{receiver}.{access.attr}" if receiver else access.attr
        spec = self.project.guards.get(access.attr)
        if spec is None:
            return
        lock = required_lock(spec, receiver)
        if lock is None or lock not in state.held:
            return
        state.binds[target.id] = (cell, lock, state.held[lock])

    # -- reporting -----------------------------------------------------------

    def _report_stmt(self, stmt: ast.stmt, state: _LockState) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scopes are their own analysis unit
        for access in self._accesses(stmt):
            is_write = isinstance(access.ctx, (ast.Store, ast.Del))
            self._check_access(access, state, is_write=is_write)
        self._check_lost_update(stmt, state)

    def _check_access(
        self, access: ast.Attribute, state: _LockState, is_write: bool
    ) -> None:
        spec = self.project.guards.get(access.attr)
        if spec is None:
            return
        receiver = _receiver_text(access.value)
        lock = required_lock(spec, receiver)
        if lock is None:
            return  # unresolvable receiver: cannot name the lock
        if lock in state.held:
            return
        verb = "write to" if is_write else "read of"
        held = ", ".join(sorted(state.held)) or "none"
        fn = self._scope_fn
        trace: Tuple[TraceStep, ...] = ()
        if fn is not None:
            trace += (
                TraceStep(
                    path=self.module.relpath,
                    line=fn.lineno,
                    snippet=self.module.snippet_at(fn.lineno),
                    note=f"enter {fn.name}() — held locks: none",
                ),
            )
        trace += (
            TraceStep(
                path=self.module.relpath,
                line=access.lineno,
                snippet=self.module.snippet_at(access.lineno),
                note=f"{verb} '.{access.attr}' — held locks: {held}",
            ),
        )
        self.on_finding(
            "CC001",
            access,
            f"{verb} {access.attr!r} (guarded-by: {spec}) outside a "
            f"`with {lock}:` region (held: {held})",
            trace,
        )

    def _check_lost_update(self, stmt: ast.stmt, state: _LockState) -> None:
        if not isinstance(stmt, ast.Assign):
            return
        for target in stmt.targets:
            if not isinstance(target, ast.Attribute):
                continue
            spec = self.project.guards.get(target.attr)
            if spec is None:
                continue
            receiver = _receiver_text(target.value)
            cell = f"{receiver}.{target.attr}" if receiver else target.attr
            lock = required_lock(spec, receiver)
            if lock is None:
                continue
            write_region = state.held.get(lock)
            for name_node in ast.walk(stmt.value):
                if not isinstance(name_node, ast.Name):
                    continue
                origin = state.binds.get(name_node.id)
                if origin is None:
                    continue
                read_cell, read_lock, read_region = origin
                if read_cell != cell or read_lock != lock:
                    continue
                if (
                    write_region is not None
                    and write_region == read_region
                    and read_region != _REGION_JOINED
                ):
                    continue  # same critical section: a normal update
                trace = (
                    TraceStep(
                        path=self.module.relpath,
                        line=stmt.lineno,
                        snippet=self.module.snippet_at(stmt.lineno),
                        note=(
                            f"write-back of {name_node.id!r} "
                            f"(read from {read_cell} under {read_lock} "
                            "in an earlier region)"
                        ),
                    ),
                )
                self.on_finding(
                    "CC003",
                    target,
                    f"{cell} read under {lock} and written back via "
                    f"{name_node.id!r} outside the original region — "
                    "a concurrent update in between is lost",
                    trace,
                )
                break

    # -- ast helpers ---------------------------------------------------------

    @staticmethod
    def _calls(stmt: ast.stmt) -> Iterator[ast.Call]:
        for node in LocksetChecker._walk_shallow(stmt):
            if isinstance(node, ast.Call):
                yield node

    @staticmethod
    def _accesses(node: ast.AST) -> Iterator[ast.Attribute]:
        for child in LocksetChecker._walk_shallow(node):
            if isinstance(child, ast.Attribute):
                yield child

    @staticmethod
    def _walk_shallow(node: ast.AST) -> Iterator[ast.AST]:
        """``ast.walk`` that does not descend into nested scopes."""
        stack = [node]
        while stack:
            current = stack.pop()
            yield current
            for child in ast.iter_child_nodes(current):
                if isinstance(
                    child,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
                ):
                    continue
                stack.append(child)
