"""RL003 — fault-guard discipline on the communicator/network hot paths.

``Network.faults`` is ``None`` on every run without a fault plan, and the
no-plan path must stay byte-identical to a network that has never heard
of faults.  Any dereference of the fault state (``self.faults.crash_time``,
``f.is_lossy(...)``) that is not dominated by a ``faults is not None``
test therefore either crashes the common case or — worse — silently
institutionalises a fault-plan dependency in the hot path.

Scope: ``comm/network.py``, ``comm/communicator.py``, ``serve/loop.py``
(the hot paths; the one serving loop skips its robustness work behind
``faults is not None`` tests) and the fast path that now runs under plans
too — ``comm/engine.py``, ``comm/fused.py`` (the schedule replay) and
``allreduce/oktopk.py`` (the split-and-reduce executor).  The rule
recognises as a *fault expression* any attribute chain
ending in ``.faults`` / ``._faults``, the bare names ``faults`` /
``_faults`` (parameters), and local aliases bound from one
(``f = net.faults``).  A dereference is an attribute access **on** a
fault expression.  Dominating guards understood:

* ``if E is not None: ...`` (deref in the body) and its ``else`` dual;
* early-exit ``if E is None: return/raise/continue`` (derefs after);
* truthiness forms ``if E:`` / ``if not E: return``;
* short-circuits ``E is not None and E.x``, ``E is None or E.x``;
* conditional expressions ``E.x if E is not None else d``;
* ``assert E is not None``.

The pass is per-function and syntactic: a guard established in one
method does not carry into another (each method must re-check or state
its contract with a suppression).
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from .core import Finding

CODE = "RL003"
NAME = "unguarded-faults-deref"

_FAULT_ATTRS = {"faults", "_faults"}
_TERMINATORS = (ast.Return, ast.Raise, ast.Continue, ast.Break)


def applies(path: str) -> bool:
    return path.endswith(("comm/network.py", "comm/communicator.py",
                          "serve/loop.py", "comm/engine.py",
                          "comm/fused.py", "allreduce/oktopk.py"))


def _key(node: ast.AST) -> Optional[str]:
    """Dotted-name key for a plain Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_none(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


class _FuncCheck:
    def __init__(self, path: str, findings: List[Finding]):
        self.path = path
        self.findings = findings
        #: local names aliased to the fault state
        self.aliases: Set[str] = set()

    # -- fault-expression recognition ----------------------------------
    def _is_fault_expr(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Attribute) and node.attr in _FAULT_ATTRS:
            return True
        if isinstance(node, ast.Name) \
                and (node.id in _FAULT_ATTRS or node.id in self.aliases):
            return True
        return False

    # -- guard extraction ----------------------------------------------
    def _guards_if_true(self, test: ast.AST) -> Set[str]:
        """Fault-expr keys proven non-None when ``test`` is truthy."""
        out: Set[str] = set()
        if isinstance(test, ast.Compare) and len(test.ops) == 1:
            left, op, right = test.left, test.ops[0], test.comparators[0]
            if isinstance(op, ast.IsNot) and _is_none(right) \
                    and self._is_fault_expr(left):
                k = _key(left)
                if k:
                    out.add(k)
        elif self._is_fault_expr(test):
            k = _key(test)
            if k:
                out.add(k)
        elif isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            out |= self._guards_if_false(test.operand)
        elif isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
            for v in test.values:
                out |= self._guards_if_true(v)
        return out

    def _guards_if_false(self, test: ast.AST) -> Set[str]:
        """Fault-expr keys proven non-None when ``test`` is falsy."""
        out: Set[str] = set()
        if isinstance(test, ast.Compare) and len(test.ops) == 1:
            left, op, right = test.left, test.ops[0], test.comparators[0]
            if isinstance(op, ast.Is) and _is_none(right) \
                    and self._is_fault_expr(left):
                k = _key(left)
                if k:
                    out.add(k)
        elif isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            out |= self._guards_if_true(test.operand)
        elif isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or):
            # Or is falsy only if *every* value is falsy
            for v in test.values:
                out |= self._guards_if_false(v)
        return out

    # -- expression checking with short-circuit awareness ---------------
    def _check_expr(self, node: ast.AST, guarded: Set[str]) -> None:
        if isinstance(node, ast.BoolOp):
            g = set(guarded)
            for v in node.values:
                self._check_expr(v, g)
                g |= (self._guards_if_true(v)
                      if isinstance(node.op, ast.And)
                      else self._guards_if_false(v))
            return
        if isinstance(node, ast.IfExp):
            self._check_expr(node.test, guarded)
            self._check_expr(node.body,
                             guarded | self._guards_if_true(node.test))
            self._check_expr(node.orelse,
                             guarded | self._guards_if_false(node.test))
            return
        if isinstance(node, ast.Attribute) \
                and self._is_fault_expr(node.value):
            k = _key(node.value)
            if k is not None and k not in guarded:
                self.findings.append(Finding(
                    self.path, node.lineno, node.col_offset + 1, CODE,
                    f"'{k}.{node.attr}' dereferences the fault state "
                    f"without a dominating '{k} is not None' guard; the "
                    f"no-plan path must not crash or diverge"))
            return  # chain head checked; nothing deeper to visit
        for child in ast.iter_child_nodes(node):
            self._check_expr(child, guarded)

    # -- statement walk -------------------------------------------------
    @staticmethod
    def _terminates(body: List[ast.stmt]) -> bool:
        for s in body:
            if isinstance(s, _TERMINATORS):
                return True
            if isinstance(s, ast.If) and s.orelse \
                    and _FuncCheck._terminates(s.body) \
                    and _FuncCheck._terminates(s.orelse):
                return True
        return False

    def run(self, body: List[ast.stmt], guarded: Set[str]) -> None:
        for stmt in body:
            self._stmt(stmt, guarded)

    def _stmt(self, stmt: ast.stmt, guarded: Set[str]) -> None:
        if isinstance(stmt, ast.If):
            self._check_expr(stmt.test, guarded)
            gt = self._guards_if_true(stmt.test)
            gf = self._guards_if_false(stmt.test)
            self.run(stmt.body, guarded | gt)
            self.run(stmt.orelse, guarded | gf)
            # early-exit guard: `if E is None: return` dominates the rest
            if self._terminates(stmt.body):
                guarded |= gf
            if stmt.orelse and self._terminates(stmt.orelse):
                guarded |= gt
        elif isinstance(stmt, ast.While):
            self._check_expr(stmt.test, guarded)
            self.run(stmt.body, guarded | self._guards_if_true(stmt.test))
            self.run(stmt.orelse, set(guarded))
        elif isinstance(stmt, ast.Assert):
            self._check_expr(stmt.test, guarded)
            guarded |= self._guards_if_true(stmt.test)
        elif isinstance(stmt, ast.Assign):
            self._check_expr(stmt.value, guarded)
            if len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name):
                name = stmt.targets[0].id
                if self._is_fault_expr(stmt.value):
                    self.aliases.add(name)
                    if _key(stmt.value) in guarded:
                        guarded.add(name)
                    else:
                        guarded.discard(name)
                else:
                    self.aliases.discard(name)
                    guarded.discard(name)
        elif isinstance(stmt, ast.For):
            self._check_expr(stmt.iter, guarded)
            self.run(stmt.body, guarded)
            self.run(stmt.orelse, guarded)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                self._check_expr(item.context_expr, guarded)
            self.run(stmt.body, guarded)
        elif isinstance(stmt, ast.Try):
            self.run(stmt.body, set(guarded))
            for handler in stmt.handlers:
                self.run(handler.body, set(guarded))
            self.run(stmt.orelse, set(guarded))
            self.run(stmt.finalbody, set(guarded))
        elif isinstance(stmt, (ast.Expr, ast.Return)):
            val = stmt.value
            if val is not None:
                self._check_expr(val, guarded)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            if getattr(stmt, "value", None) is not None:
                self._check_expr(stmt.value, guarded)
        # nested defs get their own pass from check()


def check(tree: ast.AST, src: str, path: str) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _FuncCheck(path, findings).run(node.body, set())
    findings.sort(key=lambda f: f.sort_key)
    return findings
