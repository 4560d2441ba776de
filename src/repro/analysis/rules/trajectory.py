"""TJ: trajectory-ledger ownership.

The :class:`~repro.trajectory.ledger.TrajectoryLedger` is the defense's
memory: the intern table (``_traj_ids``/``_traj_index``), the per-user
running intersections (``_traj_surviving``) and history-window columns
(``_traj_count``, ``_traj_serial``, ...) are exactly what the continuity
constraint consults before admitting a cloak.  Serving layers consume
decisions and hand ledger *snapshots* around (``to_state`` /
``subset_state`` / ``adopt_state``); none of them may edit the history
directly — a write from outside the owning package could erase a prior
observation and let a sub-k cloak through, which is a privacy bug the
audit would only catch after the fact.

Findings:

* ``TJ001`` — a store into (or rebind/delete/mutating call on) a
  ``_traj_*`` ledger structure outside ``trajectory/``.  History is
  append-only through :meth:`TrajectoryLedger.record` and replaced only
  through :meth:`TrajectoryLedger.adopt_state`; everywhere else the
  ledger is read-only evidence.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from ..engine import ModuleInfo, Project, Rule
from ..model import Finding

__all__ = ["TrajectoryLedgerRule"]

#: receiver methods that mutate a dict/list/deque/ndarray in place.
_MUTATORS = frozenset(
    {"clear", "pop", "popitem", "setdefault", "update", "append",
     "appendleft", "extend", "insert", "remove", "sort", "fill", "put",
     "resize"}
)


class TrajectoryLedgerRule(Rule):
    rule_id = "TJ001"
    name = "trajectory-ledger-ownership"
    description = (
        "trajectory ledger state (_traj_* structures) is mutated only "
        "inside trajectory/: serving layers consume decisions and pass "
        "state snapshots, they never edit linked-attack history"
    )

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Finding]:
        config = project.config
        if config.in_scope(module.relpath, config.trajectory_owner_scope):
            return  # the owning package: ledger + constraint + audit
        fields = config.trajectory_state_fields
        for node in ast.walk(module.tree):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = list(node.targets)
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _MUTATORS
                ):
                    receiver = func.value
                    if isinstance(receiver, ast.Subscript):
                        receiver = receiver.value
                    if (
                        isinstance(receiver, ast.Attribute)
                        and receiver.attr in fields
                    ):
                        yield module.finding(
                            "TJ001",
                            node,
                            f"mutating call `.{func.attr}(…)` on ledger "
                            f"structure `.{receiver.attr}` outside "
                            "trajectory/ — ledger history is edited only "
                            "by TrajectoryLedger itself",
                        )
                continue
            else:
                continue
            for target in targets:
                attr = None
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Attribute)
                    and target.value.attr in fields
                ):
                    attr = target.value.attr
                    shape = f"element store into `.{attr}[…]`"
                elif (
                    isinstance(target, ast.Attribute)
                    and target.attr in fields
                ):
                    attr = target.attr
                    shape = f"rebind of `.{attr}`"
                if attr is None:
                    continue
                yield module.finding(
                    "TJ001",
                    target,
                    f"{shape} outside trajectory/ — ledger history is "
                    "append-only via TrajectoryLedger.record and replaced "
                    "only via adopt_state; a direct edit could erase a "
                    "prior observation and admit a sub-k cloak",
                )
