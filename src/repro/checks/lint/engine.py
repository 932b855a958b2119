"""AST lint engine behind ``python -m repro check``.

The engine parses each file once, collects ``# simsan:`` suppression
comments, and walks the tree with a rule-aware visitor.  Rules are
purely syntactic (no imports are executed), so linting is safe on any
tree and fast enough to gate CI.

Scoping: a file's dotted module name is derived from its path (the
longest suffix starting at a ``repro`` package component); rules then
apply per :class:`repro.checks.lint.rules.Rule.scope`.  Sources outside
a ``repro`` package only get the ``all``-scoped hygiene rules.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from .rules import (ALL_RULE_IDS, ENGINE_MODULES, HOT_ENUM_CLASSES,
                    HOT_PATH_MANIFEST, RULES, TRACE_CACHE_EXEMPT_MODULES,
                    TRACE_GENERATOR_NAMES, Rule, lookup_rule)

_SUPPRESS_RE = re.compile(
    r"#\s*simsan:\s*(?P<skipfile>skip-file\b)?(?:skip=(?P<ids>[A-Za-z0-9, ]+))?"
)
_RULE_ID_RE = re.compile(r"SS\d{3}$")
_HOT_TAG_RE = re.compile(r"#\s*hot:")

#: process-global ``random`` functions that bypass seeding
_GLOBAL_RNG_FNS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "seed", "getrandbits", "gauss", "betavariate",
    "expovariate", "normalvariate", "triangular", "vonmisesvariate",
})
_CLOCK_FNS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns", "clock",
})
_DATETIME_NOW_FNS = frozenset({"now", "utcnow", "today"})
_LOG_METHODS = frozenset({
    "debug", "info", "warning", "warn", "error", "exception", "critical",
    "log",
})
_SET_TYPE_NAMES = frozenset({
    "set", "frozenset", "Set", "FrozenSet", "MutableSet", "AbstractSet",
})
_SLOTS_EXEMPT_BASES = frozenset({
    "Exception", "BaseException", "Enum", "IntEnum", "StrEnum", "Flag",
    "IntFlag", "Protocol", "NamedTuple", "TypedDict", "ABC", "Generic",
})


@dataclass(frozen=True)
class Finding:
    """One lint violation at a specific source line."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    @property
    def rule(self) -> Rule:
        return lookup_rule(self.rule_id)


def format_finding(finding: Finding, fix_hints: bool = False) -> str:
    rule = finding.rule
    text = (f"{finding.path}:{finding.line}:{finding.col + 1}: "
            f"{finding.rule_id} [{rule.name}] {finding.message}")
    if fix_hints:
        text += f"\n    fix: {rule.hint}"
    return text


# ----------------------------------------------------------------------
# Module naming and scope resolution
# ----------------------------------------------------------------------
def module_name_for(path: Union[str, Path]) -> str:
    """Dotted module name for ``path``, anchored at a ``repro`` component.

    Files outside a ``repro`` package return their bare stem, which puts
    them out of scope for the sim/core-specific rules.
    """
    parts = Path(path).with_suffix("").parts
    for i, part in enumerate(parts):
        if part == "repro":
            dotted = list(parts[i:])
            if dotted[-1] == "__init__":
                dotted.pop()
            return ".".join(dotted)
    return Path(path).stem


def _in_deterministic_scope(module: str) -> bool:
    return module.startswith(("repro.sim", "repro.core"))


def _rule_applies(rule: Rule, module: str) -> bool:
    if rule.scope == "all":
        return True
    if rule.scope == "sim":
        return module.startswith("repro.sim")
    if rule.scope == "harness":
        return module.startswith("repro.harness")
    # "deterministic" and "hot" both live in the deterministic packages;
    # "hot" is additionally gated per-function by the visitor.
    return _in_deterministic_scope(module)


# ----------------------------------------------------------------------
# Suppression comments
# ----------------------------------------------------------------------
def _collect_suppressions(lines: Sequence[str]) -> Tuple[bool, Dict[int, Set[str]]]:
    """Parse ``# simsan:`` comments: (skip whole file, line -> rule IDs)."""
    skip_file = False
    per_line: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(lines, start=1):
        if "simsan:" not in line:
            continue
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        if match.group("skipfile"):
            skip_file = True
        ids = match.group("ids")
        if ids:
            wanted = {part.strip().upper() for part in ids.split(",")}
            # keep every SSnnn-shaped id (lint, flow, or a typo): the
            # unused-suppression audit (SS303) owns rejecting bad ones
            per_line[lineno] = {i for i in wanted if _RULE_ID_RE.match(i)}
    return skip_file, per_line


# ----------------------------------------------------------------------
# Small AST helpers
# ----------------------------------------------------------------------
def _name_of(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return _name_of(node.func) in ("set", "frozenset")
    return False


def _is_set_annotation(node: ast.AST) -> bool:
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.split("[", 1)[0].strip() in _SET_TYPE_NAMES
    name = _name_of(node)
    return name in _SET_TYPE_NAMES


def _is_dataclass_decorator(node: ast.AST) -> bool:
    if isinstance(node, ast.Call):
        node = node.func
    return _name_of(node) == "dataclass"


def _slots_exempt(node: ast.ClassDef) -> bool:
    if any(_is_dataclass_decorator(d) for d in node.decorator_list):
        return True
    for base in node.bases:
        name = _name_of(base)
        if name is None:
            continue
        if name in _SLOTS_EXEMPT_BASES:
            return True
        if name.endswith(("Error", "Exception", "Warning")):
            return True
    return False


def _has_slots(node: ast.ClassDef) -> bool:
    for stmt in node.body:
        if isinstance(stmt, ast.Assign):
            if any(isinstance(t, ast.Name) and t.id == "__slots__"
                   for t in stmt.targets):
                return True
        elif isinstance(stmt, ast.AnnAssign):
            if isinstance(stmt.target, ast.Name) and stmt.target.id == "__slots__":
                return True
    return False


class _FunctionFacts:
    """Pre-pass over one function: locals that only ever hold sets."""

    __slots__ = ("set_locals",)

    def __init__(self, node: ast.AST) -> None:
        assigned_set: Set[str] = set()
        assigned_other: Set[str] = set()
        for child in ast.walk(node):
            targets: List[ast.expr] = []
            value: Optional[ast.AST] = None
            if isinstance(child, ast.Assign):
                targets, value = child.targets, child.value
            elif isinstance(child, ast.AnnAssign):
                if _is_set_annotation(child.annotation):
                    if isinstance(child.target, ast.Name):
                        assigned_set.add(child.target.id)
                    continue
                targets, value = [child.target], child.value
            elif isinstance(child, ast.AugAssign):
                targets, value = [child.target], None
            else:
                continue
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                if value is not None and _is_set_expr(value):
                    assigned_set.add(target.id)
                else:
                    assigned_other.add(target.id)
        self.set_locals = assigned_set - assigned_other


def _class_set_attrs(node: ast.ClassDef) -> Set[str]:
    """``self.<attr>`` names that the class assigns/annotates as sets."""
    attrs: Set[str] = set()
    for child in ast.walk(node):
        target: Optional[ast.expr] = None
        if isinstance(child, ast.Assign) and len(child.targets) == 1:
            target = child.targets[0]
            is_set = _is_set_expr(child.value)
        elif isinstance(child, ast.AnnAssign):
            target = child.target
            is_set = _is_set_annotation(child.annotation) or (
                child.value is not None and _is_set_expr(child.value))
        else:
            continue
        if (is_set and isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"):
            attrs.add(target.attr)
    return attrs


# ----------------------------------------------------------------------
# The visitor
# ----------------------------------------------------------------------
class _Linter(ast.NodeVisitor):
    def __init__(self, module: str, path: str, lines: Sequence[str],
                 suppressions: Dict[int, Set[str]]) -> None:
        self.module = module
        self.path = path
        self.lines = lines
        self.suppressions = suppressions
        self.findings: List[Finding] = []
        self.used_suppressions: Set[Tuple[int, str]] = set()

        # import tracking -------------------------------------------------
        self.random_aliases: Set[str] = set()
        self.time_aliases: Set[str] = set()
        self.datetime_mod_aliases: Set[str] = set()
        self.datetime_cls_names: Set[str] = set()
        self.os_aliases: Set[str] = set()
        self.os_getenv_names: Set[str] = set()
        self.heappush_names: Set[str] = set()
        self.heapq_aliases: Set[str] = set()

        # context stacks ---------------------------------------------------
        self.func_stack: List[Tuple[ast.AST, bool, _FunctionFacts]] = []
        self.class_stack: List[str] = []
        self.class_set_attrs: List[Set[str]] = []

    # -- reporting ------------------------------------------------------
    def report(self, rule_id: str, node: ast.AST, message: str) -> None:
        rule = RULES[rule_id]
        if not _rule_applies(rule, self.module):
            return
        line = getattr(node, "lineno", 1)
        if rule_id in self.suppressions.get(line, ()):
            self.used_suppressions.add((line, rule_id))
            return
        self.findings.append(Finding(
            self.path, line, getattr(node, "col_offset", 0), rule_id, message))

    # -- context helpers ------------------------------------------------
    @property
    def at_import_time(self) -> bool:
        return not self.func_stack

    @property
    def in_hot_function(self) -> bool:
        return any(hot for _node, hot, _facts in self.func_stack)

    def _qualname(self, name: str) -> str:
        scopes = [n.name for n, _h, _f in self.func_stack
                  if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        return ".".join([self.module] + self.class_stack + scopes + [name])

    def _is_hot_def(self, node: ast.AST, name: str) -> bool:
        if self._qualname(name) in HOT_PATH_MANIFEST:
            return True
        lineno = getattr(node, "lineno", 1)
        for check in (lineno, lineno - 1):
            if 1 <= check <= len(self.lines) and _HOT_TAG_RE.search(
                    self.lines[check - 1]):
                return True
        # decorators push the def line down; scan the decorator block too
        for deco in getattr(node, "decorator_list", []):
            dline = getattr(deco, "lineno", lineno) - 1
            if 1 <= dline <= len(self.lines) and _HOT_TAG_RE.search(
                    self.lines[dline - 1]):
                return True
        return False

    # -- imports --------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name == "random":
                self.random_aliases.add(bound)
            elif alias.name == "time":
                self.time_aliases.add(bound)
            elif alias.name == "datetime":
                self.datetime_mod_aliases.add(bound)
            elif alias.name == "os":
                self.os_aliases.add(bound)
            elif alias.name == "heapq":
                self.heapq_aliases.add(bound)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            for alias in node.names:
                if alias.name != "Random":
                    self.report("SS101", node,
                                f"'from random import {alias.name}' exposes "
                                "the process-global RNG")
        elif node.module == "time":
            for alias in node.names:
                if alias.name in _CLOCK_FNS:
                    self.report("SS102", node,
                                f"'from time import {alias.name}' imports a "
                                "wall-clock source")
        elif node.module == "datetime":
            for alias in node.names:
                if alias.name in ("datetime", "date"):
                    self.datetime_cls_names.add(alias.asname or alias.name)
        elif node.module == "os":
            for alias in node.names:
                if alias.name == "getenv":
                    self.os_getenv_names.add(alias.asname or alias.name)
                elif alias.name == "environ":
                    # bare name can't be distinguished later; treat any
                    # import of environ at module scope as fine, reads are
                    # caught at call/subscript sites via the bound name
                    self.os_getenv_names.add(alias.asname or alias.name)
        elif node.module == "heapq":
            for alias in node.names:
                if alias.name in ("heappush", "heappop"):
                    self.heappush_names.add(alias.asname or alias.name)
        self.generic_visit(node)

    # -- definitions ----------------------------------------------------
    def _visit_function(self, node: ast.AST, name: str) -> None:
        hot = self._is_hot_def(node, name)
        if self.func_stack and self.in_hot_function:
            self.report("SS202", node,
                        f"nested function '{name}' allocated per call in a "
                        "hot-path function")
        self._check_defaults(node)
        self.func_stack.append((node, hot, _FunctionFacts(node)))
        self.generic_visit(node)
        self.func_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node, node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node, node.name)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        if self.in_hot_function:
            self.report("SS202", node,
                        "lambda allocated per call in a hot-path function")
        self._check_defaults(node)
        self.func_stack.append((node, False, _FunctionFacts(node)))
        self.generic_visit(node)
        self.func_stack.pop()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if (not self.func_stack and not _slots_exempt(node)
                and not _has_slots(node)):
            self.report("SS201", node,
                        f"class '{node.name}' has no __slots__")
        self.class_stack.append(node.name)
        self.class_set_attrs.append(_class_set_attrs(node))
        self.generic_visit(node)
        self.class_set_attrs.pop()
        self.class_stack.pop()

    def _check_defaults(self, node: ast.AST) -> None:
        args = getattr(node, "args", None)
        if args is None:
            return
        for default in list(args.defaults) + [
                d for d in args.kw_defaults if d is not None]:
            bad = isinstance(default, (ast.List, ast.Dict, ast.Set,
                                       ast.ListComp, ast.DictComp,
                                       ast.SetComp))
            if isinstance(default, ast.Call):
                bad = _name_of(default.func) in (
                    "list", "dict", "set", "defaultdict", "deque",
                    "OrderedDict", "Counter", "bytearray")
            if bad:
                self.report("SS301", default,
                            "mutable default argument is shared across calls")

    # -- statements / expressions ---------------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.report("SS302", node, "bare 'except:' clause")
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def _visit_comprehension_node(self, node: ast.AST) -> None:
        for gen in node.generators:  # type: ignore[attr-defined]
            self._check_iteration(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension_node
    visit_SetComp = _visit_comprehension_node
    visit_DictComp = _visit_comprehension_node
    visit_GeneratorExp = _visit_comprehension_node

    def _check_iteration(self, iter_node: ast.AST) -> None:
        if _is_set_expr(iter_node):
            self.report("SS103", iter_node,
                        "iteration over a set expression")
            return
        if isinstance(iter_node, ast.Name):
            if self.func_stack and iter_node.id in self.func_stack[-1][2].set_locals:
                self.report("SS103", iter_node,
                            f"iteration over set-typed local '{iter_node.id}'")
        elif (isinstance(iter_node, ast.Attribute)
              and isinstance(iter_node.value, ast.Name)
              and iter_node.value.id == "self"
              and self.class_set_attrs
              and iter_node.attr in self.class_set_attrs[-1]):
            self.report("SS103", iter_node,
                        f"iteration over set-typed attribute "
                        f"'self.{iter_node.attr}'")

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if self.at_import_time and self._is_environ(node.value):
            self.report("SS104", node, "os.environ[...] read at import time")
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        # SS205 — enum member lookups in hot functions -----------------
        if (self.in_hot_function and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)
                and node.value.id in HOT_ENUM_CLASSES):
            self.report("SS205", node,
                        f"{node.value.id}.{node.attr} is an enum-metaclass "
                        "lookup on every call; read a module constant")
        self.generic_visit(node)

    def _is_environ(self, node: ast.AST) -> bool:
        return (isinstance(node, ast.Attribute) and node.attr == "environ"
                and isinstance(node.value, ast.Name)
                and node.value.id in self.os_aliases)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func

        # SS101 — process-global random -------------------------------
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in self.random_aliases):
            if func.attr in _GLOBAL_RNG_FNS:
                self.report("SS101", node,
                            f"random.{func.attr}() uses the process-global "
                            "RNG")
            elif func.attr == "Random" and not node.args and not node.keywords:
                self.report("SS101", node,
                            "random.Random() without a seed")

        # SS102 — wall clock ------------------------------------------
        if isinstance(func, ast.Attribute):
            base = func.value
            if (isinstance(base, ast.Name) and base.id in self.time_aliases
                    and func.attr in _CLOCK_FNS):
                self.report("SS102", node,
                            f"time.{func.attr}() reads the wall clock")
            elif func.attr in _DATETIME_NOW_FNS:
                if (isinstance(base, ast.Name)
                        and base.id in self.datetime_cls_names):
                    self.report("SS102", node,
                                f"datetime.{func.attr}() reads the wall clock")
                elif (isinstance(base, ast.Attribute)
                      and base.attr in ("datetime", "date")
                      and isinstance(base.value, ast.Name)
                      and base.value.id in self.datetime_mod_aliases):
                    self.report("SS102", node,
                                f"datetime.{base.attr}.{func.attr}() reads "
                                "the wall clock")

        # SS104 — import-time environment reads -----------------------
        if self.at_import_time:
            if (isinstance(func, ast.Attribute) and func.attr == "get"
                    and self._is_environ(func.value)):
                self.report("SS104", node,
                            "os.environ.get() read at import time")
            elif (isinstance(func, ast.Attribute) and func.attr == "getenv"
                    and isinstance(func.value, ast.Name)
                    and func.value.id in self.os_aliases):
                self.report("SS104", node, "os.getenv() read at import time")
            elif (isinstance(func, ast.Name)
                  and func.id in self.os_getenv_names):
                self.report("SS104", node,
                            f"{func.id}() read at import time")

        # SS203 — eager logging in hot functions ----------------------
        if self.in_hot_function:
            is_log_call = (
                (isinstance(func, ast.Attribute) and func.attr in _LOG_METHODS)
                or (isinstance(func, ast.Name) and func.id == "print"))
            if is_log_call:
                formatted = [a for a in list(node.args)
                             + [kw.value for kw in node.keywords]
                             if isinstance(a, ast.JoinedStr)]
                for arg in formatted:
                    self.report("SS203", arg,
                                "f-string formatted eagerly in a hot-path "
                                "logging call")

        # SS401 — trace generation bypassing the TraceCache -----------
        if self.module not in TRACE_CACHE_EXEMPT_MODULES:
            gen_name = _name_of(func)
            if gen_name in TRACE_GENERATOR_NAMES:
                self.report("SS401", node,
                            f"{gen_name}() regenerates a trace the "
                            "TraceCache already fingerprints")

        # SS204 — scheduling around the engine ------------------------
        if self.module not in ENGINE_MODULES:
            is_heappush = (
                (isinstance(func, ast.Name)
                 and func.id in self.heappush_names)
                or (isinstance(func, ast.Attribute)
                    and func.attr in ("heappush", "heappop")
                    and isinstance(func.value, ast.Name)
                    and func.value.id in self.heapq_aliases))
            if is_heappush:
                self.report("SS204", node,
                            "direct heap push/pop bypasses Engine.post/at "
                            "scheduling")

        self.generic_visit(node)


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
@dataclass
class LintResult:
    """Per-file lint outcome, including suppression bookkeeping.

    ``suppressions`` maps line -> rule IDs suppressed there; ``used``
    holds the ``(line, rule_id)`` pairs that actually swallowed a lint
    finding.  The difference feeds the SS303 unused-suppression audit
    (:func:`audit_suppressions`), which also credits suppressions
    consumed by the flow analysis (``repro.checks.flow``).
    """

    path: str
    module: str
    skip_file: bool
    findings: List[Finding]
    suppressions: Dict[int, Set[str]]
    used: Set[Tuple[int, str]]


def lint_source_detailed(source: str, module: str = "<string>",
                         path: str = "<string>") -> LintResult:
    """Lint a source string, returning findings plus suppression usage."""
    lines = source.splitlines()
    skip_file, suppressions = _collect_suppressions(lines)
    if skip_file:
        return LintResult(path, module, True, [], suppressions, set())
    tree = ast.parse(source, filename=path)
    linter = _Linter(module, path, lines, suppressions)
    linter.visit(tree)
    linter.findings.sort(key=lambda f: (f.line, f.col, f.rule_id))
    return LintResult(path, module, False, linter.findings, suppressions,
                      linter.used_suppressions)


def lint_source(source: str, module: str = "<string>",
                path: str = "<string>") -> List[Finding]:
    """Lint a source string as if it were module ``module``."""
    return lint_source_detailed(source, module=module, path=path).findings


def lint_file_detailed(path: Union[str, Path],
                       module: Optional[str] = None) -> LintResult:
    path = Path(path)
    if module is None:
        module = module_name_for(path)
    source = path.read_text(encoding="utf-8")
    return lint_source_detailed(source, module=module, path=str(path))


def lint_file(path: Union[str, Path],
              module: Optional[str] = None) -> List[Finding]:
    return lint_file_detailed(path, module=module).findings


def _iter_python_files(paths: Iterable[Union[str, Path]]) -> List[Path]:
    files: List[Path] = []
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            files.extend(
                p for p in sorted(entry.rglob("*.py"))
                if "egg-info" not in str(p) and "__pycache__" not in str(p))
        elif entry.suffix == ".py":
            files.append(entry)
        else:
            raise FileNotFoundError(f"not a python file or directory: {entry}")
    return files


def run_lint_detailed(paths: Iterable[Union[str, Path]]) -> List[LintResult]:
    """Lint every ``.py`` file under ``paths``, keeping per-file results."""
    return [lint_file_detailed(path) for path in _iter_python_files(paths)]


def run_lint(paths: Iterable[Union[str, Path]]) -> List[Finding]:
    """Lint every ``.py`` file under ``paths`` (files or directories)."""
    findings: List[Finding] = []
    for result in run_lint_detailed(paths):
        findings.extend(result.findings)
    return findings


def audit_suppressions(
    results: Iterable[LintResult],
    flow_used: Optional[Set[Tuple[str, int, str]]] = None,
    flow_ran: bool = False,
) -> List[Finding]:
    """Emit SS303 findings for suppression comments that suppress nothing.

    ``flow_used`` is ``FlowReport.used_suppressions`` — ``(path, line,
    rule_id)`` triples the flow analysis consumed.  When the flow pass
    did not run (``flow_ran=False``) suppressions naming flow rule IDs
    are given the benefit of the doubt; IDs in neither catalogue
    (typos) are flagged unconditionally.  Skip-file files are exempt:
    their suppressions are unreachable by construction.
    """
    from ..flow.rules import FLOW_RULE_IDS  # lazy: flow imports this package

    flow_used = flow_used or set()
    findings: List[Finding] = []
    for res in results:
        if res.skip_file:
            continue
        for line in sorted(res.suppressions):
            ids = res.suppressions[line]
            if "SS303" in ids:
                continue  # the audit itself is suppressed at this line
            for rule_id in sorted(ids):
                if (line, rule_id) in res.used:
                    continue
                if (res.path, line, rule_id) in flow_used:
                    continue
                if rule_id in FLOW_RULE_IDS and not flow_ran:
                    continue
                known = rule_id in ALL_RULE_IDS or rule_id in FLOW_RULE_IDS
                detail = ("suppresses nothing on this line" if known
                          else "names an unknown rule ID")
                findings.append(Finding(
                    res.path, line, 0, "SS303",
                    f"suppression 'skip={rule_id}' {detail}"))
    findings.sort(key=lambda f: (f.path, f.line, f.message))
    return findings
