"""RL002 — buffer ownership: received payloads are loaned, not owned.

Under the coop runner every array delivered by ``comm.recv`` /
``comm.sendrecv`` / ``comm.waitall`` / ``request.wait`` is a *loan*:
the same object the sender posted, made read-only for the delivery
window.  A scheme that writes into it (``got += x``, ``got[lo:hi] = x``,
``np.add(a, b, out=got)``, ``got.sort()``) corrupts the sender's buffer
— exactly the SparCML-style reuse bug the sanitizer mode catches at
runtime.  This rule catches it statically, inside ``allreduce/`` scheme
code, with a per-function taint pass:

* **sources** — names bound (directly, by tuple-unpack, by indexing a
  tainted container, or as the loop variable iterating one) from a
  receive-API call;
* **sinks** — augmented assignment to a tainted name, stores into a
  tainted subscript/attribute, mutating method calls on a tainted name,
  and numpy calls that write through ``out=``/first-arg into one;
* **cleansers** — rebinding a name from an untainted expression, or
  materialising an owned copy via ``.copy()`` / ``np.copy`` /
  ``np.array`` / ``np.asarray`` / ``.astype()``.

The analysis is intra-function and flow-insensitive across branches
(taint accumulates through ``if``/``for``/``try`` arms), which is
conservative in the right direction for a lint.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from .core import Finding

CODE = "RL002"
NAME = "loaned-buffer-mutation"

#: receive-API attribute names whose results are loaned buffers
_SOURCE_METHODS = {"recv", "sendrecv", "waitall", "wait"}
#: ndarray methods that mutate in place
_MUTATING_METHODS = {
    "sort", "fill", "put", "partition", "itemset", "setfield", "setflags",
    "resize",
}
#: numpy module functions whose FIRST positional arg is the write target
_NP_FIRSTARG_WRITERS = {"copyto", "put", "putmask", "place", "fill_diagonal"}
#: constructors that hand back an owned copy (cleansers)
_COPY_CALLS = {"copy", "array", "asarray", "ascontiguousarray"}
_COPY_METHODS = {"copy", "astype", "tolist", "item", "sum", "dot"}


def applies(path: str) -> bool:
    return "allreduce/" in path


def _root_name(node: ast.AST) -> Optional[str]:
    """Peel Subscript/Attribute/Starred wrappers down to the base Name."""
    while isinstance(node, (ast.Subscript, ast.Attribute, ast.Starred)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_source_call(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _SOURCE_METHODS)


class _FuncTaint:
    """Taint pass over one function body, in statement order."""

    def __init__(self, path: str, findings: List[Finding]):
        self.path = path
        self.findings = findings
        self.tainted: Set[str] = set()

    def _emit(self, node: ast.AST, msg: str) -> None:
        self.findings.append(Finding(
            self.path, node.lineno, node.col_offset + 1, CODE, msg))

    # -- taint of expressions ------------------------------------------
    def _taints(self, node: ast.AST) -> bool:
        """Does evaluating ``node`` yield a (view of a) loaned buffer?"""
        if _is_source_call(node):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            # owned-copy cleansers: tainted.copy(), np.array(tainted), ...
            if isinstance(func, ast.Attribute) \
                    and func.attr in _COPY_METHODS:
                return False
            if isinstance(func, ast.Attribute) \
                    and func.attr in _COPY_CALLS:
                return False
            if isinstance(func, ast.Name) and func.id in ("list", "tuple"):
                # list(msgs) keeps the element loans alive
                return any(self._taints(a) for a in node.args)
            return False
        if isinstance(node, ast.Name):
            return node.id in self.tainted
        if isinstance(node, (ast.Subscript, ast.Attribute, ast.Starred)):
            return self._taints(node.value)
        if isinstance(node, (ast.Tuple, ast.List)):
            return any(self._taints(e) for e in node.elts)
        if isinstance(node, ast.IfExp):
            return self._taints(node.body) or self._taints(node.orelse)
        return False

    # -- sinks ----------------------------------------------------------
    def _check_call_sink(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr in _MUTATING_METHODS and self._taints(func.value):
                name = _root_name(func.value) or "<expr>"
                self._emit(node, f"in-place .{func.attr}() on '{name}', "
                                 f"which is a loaned receive buffer; "
                                 f"operate on an owned .copy()")
                return
            # np.add(a, b, out=tainted) and friends
            for kw in node.keywords:
                if kw.arg == "out" and self._taints(kw.value):
                    name = _root_name(kw.value) or "<expr>"
                    self._emit(node, f"out={name} writes into a loaned "
                                     f"receive buffer; allocate the "
                                     f"output or reuse an owned scratch "
                                     f"buffer")
                    return
            if func.attr in _NP_FIRSTARG_WRITERS and node.args \
                    and self._taints(node.args[0]):
                name = _root_name(node.args[0]) or "<expr>"
                self._emit(node, f"np.{func.attr}() writes into '{name}', "
                                 f"which is a loaned receive buffer")

    def _bind(self, target: ast.AST, value_tainted: bool) -> None:
        """Apply one assignment's effect on the taint set."""
        if isinstance(target, ast.Name):
            if value_tainted:
                self.tainted.add(target.id)
            else:
                self.tainted.discard(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for e in target.elts:
                self._bind(e, value_tainted)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, value_tainted)
        # stores *into* subscripts/attributes are sinks, handled separately

    # -- statement walk -------------------------------------------------
    def run(self, body: List[ast.stmt]) -> None:
        for stmt in body:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            for expr in ast.walk(stmt.value):
                if isinstance(expr, ast.Call):
                    self._check_call_sink(expr)
            vt = self._taints(stmt.value)
            for target in stmt.targets:
                if isinstance(target, (ast.Subscript, ast.Attribute)) \
                        and self._taints(target.value):
                    name = _root_name(target) or "<expr>"
                    self._emit(target, f"store into '{name}', a loaned "
                                       f"receive buffer; received arrays "
                                       f"are read-only for the loan "
                                       f"window")
                else:
                    self._bind(target, vt)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            if isinstance(stmt.target, ast.Name):
                self._bind(stmt.target, self._taints(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            root = _root_name(stmt.target)
            if self._taints(stmt.target) or (
                    isinstance(stmt.target, ast.Name)
                    and root in self.tainted):
                self._emit(stmt, f"augmented assignment mutates '{root}', "
                                 f"a loaned receive buffer; combine into "
                                 f"an owned accumulator instead")
        elif isinstance(stmt, ast.Expr):
            for expr in ast.walk(stmt.value):
                if isinstance(expr, ast.Call):
                    self._check_call_sink(expr)
        elif isinstance(stmt, ast.For):
            if self._taints(stmt.iter):
                self._bind(stmt.target, True)
            self.run(stmt.body)
            self.run(stmt.orelse)
        elif isinstance(stmt, (ast.While, ast.If)):
            self.run(stmt.body)
            self.run(stmt.orelse)
        elif isinstance(stmt, ast.With):
            self.run(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.run(stmt.body)
            for handler in stmt.handlers:
                self.run(handler.body)
            self.run(stmt.orelse)
            self.run(stmt.finalbody)
        # nested defs get their own pass from check(); other statements
        # neither source nor sink


def check(tree: ast.AST, src: str, path: str) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _FuncTaint(path, findings).run(node.body)
    findings.sort(key=lambda f: f.sort_key)
    return findings
