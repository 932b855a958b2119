"""Per-module AST fact extraction for the flow analyzer.

One parse per file, producing a :class:`ModuleFacts` that records — in
*descriptor* form, unresolved — everything the graph builder
(:mod:`repro.checks.flow.graph`) needs: function/class definitions,
call and function-reference sites, local/attribute type hints,
determinism sources, environment reads, module-global writes, and
import-time calls.  Descriptors are plain tuples so the extraction has
no knowledge of other modules; all cross-module resolution happens in
the graph builder.

Descriptor grammar (``desc``)::

    ("name", n)            bare name:             f(...)     /  f
    ("self", m)            method on self:        self.m(...)/  self.m
    ("self_attr", a, m)    via an instance attr:  self.a.m
    ("var_attr", v, m)     via a local/param:     v.m
    ("name_attr", n, m)    via a module/class:    n.m
    ("unknown",)           anything deeper

Nested functions and lambdas are attributed to their enclosing
function: for whole-program reachability what matters is which *body*
executes, not Python's scoping.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Union

from ..lint.engine import (_collect_suppressions, _CLOCK_FNS,
                           _DATETIME_NOW_FNS, _GLOBAL_RNG_FNS, _HOT_TAG_RE,
                           module_name_for)

Desc = Tuple[Any, ...]

#: container/str mutators that count as writing through a name
_MUTATOR_METHODS = frozenset({
    "append", "appendleft", "add", "update", "setdefault", "pop",
    "popitem", "popleft", "clear", "remove", "discard", "extend",
    "insert", "move_to_end", "sort", "reverse",
})


@dataclass
class CallSite:
    """One call expression inside a function body."""
    desc: Desc
    line: int
    scheduled: bool = False      # appears inside *.post/at/after args
    nested: bool = False         # inside a nested def/lambda (closure)


@dataclass
class RefSite:
    """One non-call function-reference candidate (callback escape)."""
    desc: Desc
    line: int
    scheduled: bool = False
    nested: bool = False


@dataclass
class Source:
    """One nondeterminism source expression."""
    kind: str      # clock | rng | urandom | env | id | set-iter
    detail: str
    line: int
    nested: bool = False


@dataclass
class GlobalWrite:
    """A write to a module-level name from inside a function."""
    name: str
    line: int
    how: str       # assign | augassign | mutate | setitem | setattr


@dataclass
class FunctionFacts:
    qualname: str
    name: str
    module: str
    path: str
    line: int
    class_name: Optional[str] = None
    hot_tagged: bool = False
    returns: Optional[str] = None      # return-annotation class name
    decorators: List[Desc] = field(default_factory=list)
    is_property: bool = False
    calls: List[CallSite] = field(default_factory=list)
    refs: List[RefSite] = field(default_factory=list)
    sources: List[Source] = field(default_factory=list)
    global_writes: List[GlobalWrite] = field(default_factory=list)
    var_types: Dict[str, Desc] = field(default_factory=dict)
    var_funcs: Dict[str, Desc] = field(default_factory=dict)

    @property
    def is_dunder(self) -> bool:
        return self.name.startswith("__") and self.name.endswith("__")


@dataclass
class ClassFacts:
    qualname: str
    name: str
    module: str
    path: str
    line: int
    bases: List[Desc] = field(default_factory=list)
    decorators: List[Desc] = field(default_factory=list)
    decorator_args: List[Tuple[Desc, List[str]]] = field(default_factory=list)
    methods: Dict[str, FunctionFacts] = field(default_factory=dict)
    attr_types: Dict[str, List[Desc]] = field(default_factory=dict)
    stored_methods: Dict[str, List[str]] = field(default_factory=dict)


@dataclass
class ModuleFacts:
    module: str
    path: str
    imports: Dict[str, Tuple[str, Optional[str]]] = field(default_factory=dict)
    functions: Dict[str, FunctionFacts] = field(default_factory=dict)
    classes: Dict[str, ClassFacts] = field(default_factory=dict)
    global_vars: Dict[str, int] = field(default_factory=dict)
    module_level: Optional[FunctionFacts] = None   # import-time pseudo-fn
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    suppression_lines: Dict[int, Set[str]] = field(default_factory=dict)
    skip_file: bool = False

    def all_functions(self) -> List[FunctionFacts]:
        out = list(self.functions.values())
        for cls in self.classes.values():
            out.extend(cls.methods.values())
        return out


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _descriptor(node: ast.AST) -> Desc:
    """Classify a callee / reference expression into the desc grammar."""
    if isinstance(node, ast.Name):
        return ("name", node.id)
    if isinstance(node, ast.Attribute):
        base = node.value
        if isinstance(base, ast.Name):
            if base.id == "self":
                return ("self", node.attr)
            return ("name_attr", base.id, node.attr)
        if (isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id == "self"):
            return ("self_attr", base.attr, node.attr)
    return ("unknown",)


def _var_descriptor(node: ast.AST) -> Desc:
    """Descriptor for a reference where the base may be a local var."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        if node.value.id != "self":
            return ("var_attr", node.value.id, node.attr)
    return _descriptor(node)


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _annotation_name(node: Optional[ast.AST]) -> Optional[str]:
    """Class name from an annotation (handles strings and Optional[X])."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value.strip().strip("'\"")
        for wrapper in ("Optional[", "Optional ["):
            if text.startswith(wrapper) and text.endswith("]"):
                text = text[len(wrapper):-1].strip()
        return text.split("[", 1)[0].strip() or None
    if isinstance(node, ast.Subscript):
        outer = node.value
        if isinstance(outer, ast.Name) and outer.id == "Optional":
            inner = node.slice
            if isinstance(inner, ast.Index):   # py38 compat shape
                inner = inner.value  # type: ignore[attr-defined]
            return _annotation_name(inner)
        return None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


class _ImportScan:
    """Module import aliases relevant to source detection."""

    __slots__ = ("random", "time", "os", "datetime_mod", "datetime_cls",
                 "environ_names", "getenv_names", "from_time",
                 "from_random")

    def __init__(self) -> None:
        self.random: Set[str] = set()
        self.time: Set[str] = set()
        self.os: Set[str] = set()
        self.datetime_mod: Set[str] = set()
        self.datetime_cls: Set[str] = set()
        self.environ_names: Set[str] = set()
        self.getenv_names: Set[str] = set()
        self.from_time: Set[str] = set()
        self.from_random: Set[str] = set()


# ----------------------------------------------------------------------
# The function-body walker
# ----------------------------------------------------------------------
class _BodyWalker:
    """Collect calls, refs, sources, and global writes for one body."""

    def __init__(self, facts: FunctionFacts, scan: _ImportScan,
                 module_funcs: Set[str], imported: Set[str]) -> None:
        self.facts = facts
        self.scan = scan
        self.module_funcs = module_funcs
        self.imported = imported
        self.locals: Set[str] = set()
        self.globals_decl: Set[str] = set()
        self.scheduled_depth = 0
        self.nested_depth = 0

    # -- pre-pass: locals, types, function-valued locals ---------------
    def prepass(self, node: ast.AST, args: Optional[ast.arguments]) -> None:
        if args is not None:
            for arg in (list(args.args) + list(args.kwonlyargs)
                        + list(getattr(args, "posonlyargs", []))):
                self.locals.add(arg.arg)
                ann = _annotation_name(arg.annotation)
                if ann:
                    self.facts.var_types[arg.arg] = ("name", ann)
            for extra in (args.vararg, args.kwarg):
                if extra is not None:
                    self.locals.add(extra.arg)
        for child in ast.walk(node):
            if isinstance(child, ast.Global):
                self.globals_decl.update(child.names)
            elif isinstance(child, (ast.For, ast.comprehension)):
                target = child.target
                for t in ast.walk(target):
                    if isinstance(t, ast.Name):
                        self.locals.add(t.id)
            elif isinstance(child, ast.withitem):
                if child.optional_vars is not None:
                    for t in ast.walk(child.optional_vars):
                        if isinstance(t, ast.Name):
                            self.locals.add(t.id)
            elif isinstance(child, ast.ExceptHandler):
                if child.name:
                    self.locals.add(child.name)
            elif isinstance(child, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (child.targets if isinstance(child, ast.Assign)
                           else [child.target])
                for target in targets:
                    for t in ast.walk(target):
                        if isinstance(t, ast.Name):
                            if t.id not in self.globals_decl:
                                self.locals.add(t.id)
                value = getattr(child, "value", None)
                if (isinstance(child, (ast.Assign, ast.AnnAssign))
                        and value is not None and len(targets) == 1
                        and isinstance(targets[0], ast.Name)):
                    var = targets[0].id
                    if isinstance(value, ast.Call):
                        # v = Foo(...) / v = mod.Foo(...) / v = C.make(...)
                        desc = _descriptor(value.func)
                        if desc[0] in ("name", "name_attr"):
                            self.facts.var_types[var] = desc
                    else:
                        desc = _var_descriptor(value)
                        if desc[0] in ("self", "self_attr", "name",
                                       "name_attr"):
                            self.facts.var_funcs[var] = desc
                if (isinstance(child, ast.AnnAssign)
                        and isinstance(child.target, ast.Name)):
                    ann = _annotation_name(child.annotation)
                    if ann:
                        self.facts.var_types[child.target.id] = ("name", ann)

    # -- main recursive walk -------------------------------------------
    def walk(self, node: ast.AST) -> None:
        for stmt in ast.iter_child_nodes(node):
            self._visit(stmt)

    def _visit(self, node: ast.AST) -> None:
        if isinstance(node, ast.Call):
            self._visit_call(node)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            # nested body attributed to the enclosing function, but
            # marked: it does NOT execute when the encloser is called
            body = node.body if isinstance(node.body, list) else [node.body]
            self.nested_depth += 1
            for stmt in body:
                self._visit(stmt)
            self.nested_depth -= 1
            return
        if isinstance(node, ast.Attribute):
            self._maybe_ref(node)
            return   # don't descend: desc covered the chain
        if isinstance(node, ast.Name):
            self._visit_name(node)
            return
        if isinstance(node, ast.For):
            self._check_set_iter(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for gen in node.generators:
                self._check_set_iter(gen.iter)
        elif isinstance(node, ast.Subscript):
            self._visit_subscript(node)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            self._visit_assign(node)
        for child in ast.iter_child_nodes(node):
            self._visit(child)

    # -- pieces ---------------------------------------------------------
    def _visit_name(self, node: ast.Name) -> None:
        if not isinstance(node.ctx, ast.Load):
            return
        if (node.id in self.facts.var_funcs
                or ((node.id in self.module_funcs or node.id in self.imported)
                    and node.id not in self.locals)):
            self._add_ref(("name", node.id), node.lineno)

    def _maybe_ref(self, node: ast.Attribute) -> None:
        desc = self._site_desc(node)
        if desc[0] != "unknown":
            self._add_ref(desc, node.lineno)

    def _site_desc(self, node: ast.AST) -> Desc:
        desc = _var_descriptor(node)
        if desc[0] == "var_attr" and desc[1] not in self.locals:
            # not a local: treat the base as a module-level name
            desc = ("name_attr", desc[1], desc[2])
        return desc

    def _add_ref(self, desc: Desc, line: int) -> None:
        self.facts.refs.append(
            RefSite(desc, line, scheduled=self.scheduled_depth > 0,
                    nested=self.nested_depth > 0))

    def _add_source(self, kind: str, detail: str, line: int) -> None:
        self.facts.sources.append(
            Source(kind, detail, line, nested=self.nested_depth > 0))

    def _visit_call(self, node: ast.Call) -> None:
        desc = self._site_desc(node.func)
        self.facts.calls.append(
            CallSite(desc, node.lineno, scheduled=self.scheduled_depth > 0,
                     nested=self.nested_depth > 0))
        self._detect_call_source(node, desc)
        scheduler = (len(desc) >= 2 and desc[0] in
                     ("self", "self_attr", "var_attr", "name_attr")
                     and desc[-1] in _SCHEDULER_METHODS)
        if scheduler:
            self.scheduled_depth += 1
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            self._visit(arg)
        if scheduler:
            self.scheduled_depth -= 1

    def _detect_call_source(self, node: ast.Call, desc: Desc) -> None:
        scan = self.scan
        line = node.lineno
        add = self._add_source
        if desc[0] == "name_attr":
            base, attr = desc[1], desc[2]
            if base in scan.time and attr in _CLOCK_FNS:
                add("clock", f"time.{attr}()", line)
            elif base in scan.random and attr in _GLOBAL_RNG_FNS:
                add("rng", f"random.{attr}()", line)
            elif (base in scan.random and attr == "Random"
                    and not node.args and not node.keywords):
                add("rng", "random.Random() without a seed", line)
            elif base in scan.os and attr == "urandom":
                add("urandom", "os.urandom()", line)
            elif base in scan.os and attr == "getenv":
                add("env", "os.getenv()", line)
            elif (base in scan.datetime_mod.union(scan.datetime_cls)
                    and attr in _DATETIME_NOW_FNS):
                add("clock", f"datetime.{attr}()", line)
        elif desc[0] == "name":
            name = desc[1]
            if name in self.locals:
                return
            if name in scan.from_time:
                add("clock", f"{name}()", line)
            elif name in scan.from_random:
                add("rng", f"{name}()", line)
            elif name in scan.getenv_names:
                add("env", f"{name}()", line)
            elif name == "id" and len(node.args) == 1:
                add("id", "id()", line)
        elif desc[0] == "unknown":
            # os.environ.get(...): Attribute(Attribute(os, environ), get)
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and func.attr in ("get", "pop", "setdefault", "items",
                                      "keys", "values", "copy")
                    and self._is_environ(func.value)):
                add("env", f"os.environ.{func.attr}()", line)

    def _is_environ(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self.scan.environ_names
        return (isinstance(node, ast.Attribute) and node.attr == "environ"
                and isinstance(node.value, ast.Name)
                and node.value.id in self.scan.os)

    def _visit_subscript(self, node: ast.Subscript) -> None:
        if self._is_environ(node.value):
            how = ("os.environ[...] write"
                   if isinstance(node.ctx, (ast.Store, ast.Del))
                   else "os.environ[...] read")
            self._add_source("env", how, node.lineno)

    def _check_set_iter(self, iter_node: ast.AST) -> None:
        if _is_set_expr(iter_node):
            self._add_source("set-iter", "iteration over a set expression",
                             iter_node.lineno)

    def _visit_assign(self, node: Union[ast.Assign, ast.AugAssign,
                                        ast.AnnAssign]) -> None:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target])
        how = "augassign" if isinstance(node, ast.AugAssign) else "assign"
        for target in targets:
            if isinstance(target, ast.Name):
                if target.id in self.globals_decl:
                    self.facts.global_writes.append(
                        GlobalWrite(target.id, node.lineno, how))
            elif isinstance(target, ast.Subscript):
                base = target.value
                if (isinstance(base, ast.Name) and base.id not in self.locals
                        and base.id != "self"):
                    self.facts.global_writes.append(
                        GlobalWrite(base.id, node.lineno, "setitem"))
            elif isinstance(target, ast.Attribute):
                base = target.value
                if (isinstance(base, ast.Name) and base.id not in self.locals
                        and base.id != "self"
                        and base.id not in ("cls",)):
                    self.facts.global_writes.append(
                        GlobalWrite(base.id, node.lineno, "setattr"))


_SCHEDULER_METHODS = frozenset({"post", "at", "after"})


# ----------------------------------------------------------------------
# Module extraction
# ----------------------------------------------------------------------
def _scan_imports(tree: ast.Module,
                  facts: ModuleFacts) -> Tuple[_ImportScan, Set[str]]:
    scan = _ImportScan()
    imported: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                facts.imports[bound] = (alias.name, None)
                if alias.name == "random":
                    scan.random.add(bound)
                elif alias.name == "time":
                    scan.time.add(bound)
                elif alias.name == "os":
                    scan.os.add(bound)
                elif alias.name == "datetime":
                    scan.datetime_mod.add(bound)
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                # relative import: resolve against this module's package
                base_parts = facts.module.split(".")
                level = node.level or 0
                if level:
                    base_parts = base_parts[:-level]
                mod = ".".join(base_parts + (node.module.split(".")
                                             if node.module else []))
            else:
                mod = node.module
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                facts.imports[bound] = (mod, alias.name)
                imported.add(bound)
                if mod == "time" and alias.name in _CLOCK_FNS:
                    scan.from_time.add(bound)
                elif mod == "random" and alias.name != "Random":
                    scan.from_random.add(bound)
                elif mod == "os" and alias.name == "getenv":
                    scan.getenv_names.add(bound)
                elif mod == "os" and alias.name == "environ":
                    scan.environ_names.add(bound)
                elif mod == "datetime" and alias.name in ("datetime", "date"):
                    scan.datetime_cls.add(bound)
    return scan, imported


def _mutating_calls(facts: FunctionFacts) -> None:
    """Post-pass: X.mutator(...) on non-local names = global writes."""
    locals_and_params = set(facts.var_types) | set(facts.var_funcs)
    for site in facts.calls:
        desc = site.desc
        if (desc[0] == "name_attr" and desc[2] in _MUTATOR_METHODS
                and desc[1] not in locals_and_params):
            facts.global_writes.append(
                GlobalWrite(desc[1], site.line, "mutate"))


def _hot_tagged(node: ast.AST, lines: Sequence[str]) -> bool:
    lineno = getattr(node, "lineno", 1)
    for check in (lineno, lineno - 1):
        if 1 <= check <= len(lines) and _HOT_TAG_RE.search(lines[check - 1]):
            return True
    for deco in getattr(node, "decorator_list", []):
        dline = getattr(deco, "lineno", lineno) - 1
        if 1 <= dline <= len(lines) and _HOT_TAG_RE.search(lines[dline - 1]):
            return True
    return False


def _extract_function(node: Union[ast.FunctionDef, ast.AsyncFunctionDef],
                      module: str, path: str, lines: Sequence[str],
                      scan: _ImportScan, module_funcs: Set[str],
                      imported: Set[str],
                      class_name: Optional[str] = None) -> FunctionFacts:
    qual = ".".join([module] + ([class_name] if class_name else [])
                    + [node.name])
    facts = FunctionFacts(qualname=qual, name=node.name, module=module,
                          path=path, line=node.lineno,
                          class_name=class_name,
                          hot_tagged=_hot_tagged(node, lines),
                          returns=_annotation_name(node.returns))
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        desc = _descriptor(target)
        facts.decorators.append(desc)
        if desc == ("name", "property"):
            facts.is_property = True
    walker = _BodyWalker(facts, scan, module_funcs, imported)
    walker.prepass(node, node.args)
    for stmt in node.body:
        walker._visit(stmt)
    _mutating_calls(facts)
    return facts


def _extract_class(node: ast.ClassDef, module: str, path: str,
                   lines: Sequence[str], scan: _ImportScan,
                   module_funcs: Set[str], imported: Set[str]) -> ClassFacts:
    cls = ClassFacts(qualname=f"{module}.{node.name}", name=node.name,
                     module=module, path=path, line=node.lineno)
    for base in node.bases:
        cls.bases.append(_descriptor(base))
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        desc = _descriptor(target)
        cls.decorators.append(desc)
        args = []
        if isinstance(deco, ast.Call):
            args = [a.value for a in deco.args
                    if isinstance(a, ast.Constant)
                    and isinstance(a.value, str)]
        cls.decorator_args.append((desc, args))
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            method = _extract_function(stmt, module, path, lines, scan,
                                       module_funcs, imported,
                                       class_name=node.name)
            cls.methods[stmt.name] = method
            _mine_param_assigns(stmt, cls)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target,
                                                            ast.Name):
            ann = _annotation_name(stmt.annotation)
            if ann:
                cls.attr_types.setdefault(stmt.target.id, []).append(
                    ("name", ann))
    return cls


def _mine_param_assigns(node: Union[ast.FunctionDef, ast.AsyncFunctionDef],
                        cls: ClassFacts) -> None:
    """``self.x = param`` gives ``x`` the type of ``param``'s annotation
    (``Cache.__init__(..., policy: "ReplacementPolicy")`` types
    ``self.policy``)."""
    args = node.args
    params = {arg.arg: _annotation_name(arg.annotation)
              for arg in args.posonlyargs + args.args + args.kwonlyargs}
    for child in ast.walk(node):
        if not (isinstance(child, ast.Assign)
                and isinstance(child.value, ast.Name)):
            continue
        ann = params.get(child.value.id)
        if not ann:
            continue
        for target in child.targets:
            if (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                cls.attr_types.setdefault(target.attr, []).append(
                    ("name", ann))


def _mine_self_assigns(node: ast.ClassDef, cls: ClassFacts) -> None:
    """Mine ``self.x = Foo(...)`` / ``self.x = self.m`` patterns."""
    for child in ast.walk(node):
        if not isinstance(child, (ast.Assign, ast.AnnAssign)):
            continue
        targets = (child.targets if isinstance(child, ast.Assign)
                   else [child.target])
        value = child.value
        if isinstance(child, ast.AnnAssign):
            ann = _annotation_name(child.annotation)
            for target in targets:
                if (ann and isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    cls.attr_types.setdefault(target.attr, []).append(
                        ("name", ann))
        if value is None:
            continue
        for target in targets:
            if not (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                continue
            if isinstance(value, ast.Call):
                desc = _descriptor(value.func)
                if desc[0] in ("name", "name_attr"):
                    cls.attr_types.setdefault(target.attr, []).append(desc)
            elif (isinstance(value, ast.Attribute)
                    and isinstance(value.value, ast.Name)
                    and value.value.id == "self"):
                cls.stored_methods.setdefault(target.attr, []).append(
                    value.attr)


def extract_module(path: Union[str, Path],
                   module: Optional[str] = None) -> ModuleFacts:
    """Parse ``path`` and extract all flow facts."""
    path = Path(path)
    source = path.read_text(encoding="utf-8")
    return extract_source(source, module=module or module_name_for(path),
                          path=str(path))


def _is_main_guard(node: ast.stmt) -> bool:
    """``if __name__ == "__main__":`` — not import-time code."""
    if not isinstance(node, ast.If):
        return False
    test = node.test
    return (isinstance(test, ast.Compare)
            and isinstance(test.left, ast.Name)
            and test.left.id == "__name__"
            and len(test.ops) == 1 and isinstance(test.ops[0], ast.Eq)
            and len(test.comparators) == 1
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value == "__main__")


def extract_source(source: str, module: str,
                   path: str = "<string>") -> ModuleFacts:
    lines = source.splitlines()
    tree = ast.parse(source, filename=path)
    facts = ModuleFacts(module=module, path=path)
    facts.skip_file, facts.suppressions = _collect_suppressions(lines)
    facts.suppression_lines = {line: set(ids)
                               for line, ids in facts.suppressions.items()}
    scan, imported = _scan_imports(tree, facts)
    module_funcs = {n.name for n in tree.body
                    if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}
    # module-level pseudo-function for import-time facts
    mod_fn = FunctionFacts(qualname=f"{module}.<module>", name="<module>",
                           module=module, path=path, line=1)
    walker = _BodyWalker(mod_fn, scan, module_funcs, imported)
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = _extract_function(stmt, module, path, lines, scan,
                                   module_funcs, imported)
            facts.functions[stmt.name] = fn
        elif isinstance(stmt, ast.ClassDef):
            cls = _extract_class(stmt, module, path, lines, scan,
                                 module_funcs, imported)
            _mine_self_assigns(stmt, cls)
            facts.classes[stmt.name] = cls
        elif _is_main_guard(stmt):
            continue
        else:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target])
                for target in targets:
                    if isinstance(target, ast.Name):
                        facts.global_vars[target.id] = stmt.lineno
            walker._visit(stmt)
    facts.module_level = mod_fn
    return facts
