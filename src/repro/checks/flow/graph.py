"""Whole-program call-graph construction for SimSan-Flow.

Takes the per-module facts from :mod:`repro.checks.flow.extract` and
resolves their descriptors into edges between function qualnames:

* direct calls and module-function references,
* ``self.m()`` through the class MRO (bases resolved by name within
  the project) plus every subclass override,
* calls through *stored bound methods* (``self._cb = self._fill`` then
  ``self._cb(...)`` — the PR 2 hot-path callback idiom),
* attribute calls through inferred receiver types (constructor
  assignments ``self.x = Foo(...)``, parameter/attribute annotations,
  ``self.x = param`` of an annotated parameter, ``v = Foo(...)`` and
  ``v = self.x`` locals, and ``v = Cls.from_dict(...)`` classmethod
  constructors), linked to the MRO hit plus every project subclass
  override, since the receiver may be any subclass,
* registry indirection: decorator registries (via the
  ``REGISTRY_RESOLVERS`` manifest),
* a capped *name fallback* for attribute calls whose receiver type is
  unknown (``obj.on_hit(...)`` links to every project method named
  ``on_hit`` unless the name is a generic container method).

References scheduled onto an engine (``*.post/at/after`` arguments)
produce ``sched`` edges and their targets are recorded separately —
the event loop invokes them directly, so they are reachability roots.
"""

from __future__ import annotations

from typing import (Any, Dict, Iterable, List, Optional,
                    Sequence, Set, Tuple)

from .extract import ClassFacts, Desc, FunctionFacts, ModuleFacts

#: generic container/string/IO methods excluded from name fallback —
#: they would fan out to unrelated classes without telling us anything
_GENERIC_METHODS = frozenset({
    "get", "items", "keys", "values", "update", "append", "add", "pop",
    "popitem", "popleft", "appendleft", "clear", "copy", "extend",
    "insert", "remove", "discard", "setdefault", "sort", "reverse",
    "join", "split", "rsplit", "strip", "lstrip", "rstrip",
    "startswith", "endswith", "format", "encode", "decode", "write",
    "read", "readline", "readlines", "close", "flush", "seek", "tell",
    "group", "groups", "search", "match", "fullmatch", "sub",
    "findall", "finditer", "lower", "upper", "replace", "count",
    "index", "exists", "mkdir", "unlink", "resolve", "put", "send",
    "recv", "poll", "join_thread", "terminate", "start", "wait",
    "acquire", "release", "hexdigest", "digest", "most_common",
})

#: name fallback gives up beyond this many candidate methods
_FALLBACK_CAP = 12


class Edge:
    """A resolved edge in the call graph."""

    __slots__ = ("src", "dst", "kind", "line", "fallback", "nested")

    def __init__(self, src: str, dst: str, kind: str, line: int,
                 fallback: bool = False, nested: bool = False) -> None:
        self.src = src
        self.dst = dst
        self.kind = kind        # call | ref | sched | registry
        self.line = line
        self.fallback = fallback   # resolved only by method-name match
        self.nested = nested       # site inside a nested def/lambda

    def __repr__(self) -> str:   # pragma: no cover - debug aid
        return f"Edge({self.src} -[{self.kind}]-> {self.dst} @{self.line})"


class ProjectIndex:
    """Cross-module lookup tables over a set of extracted modules."""

    def __init__(self, modules: Iterable[ModuleFacts]) -> None:
        self.modules: Dict[str, ModuleFacts] = {}
        self.by_path: Dict[str, ModuleFacts] = {}
        self.functions: Dict[str, FunctionFacts] = {}
        self.classes: Dict[str, ClassFacts] = {}
        self.methods_by_name: Dict[str, List[str]] = {}
        for mod in modules:
            self.modules[mod.module] = mod
            self.by_path[mod.path] = mod
            for fn in mod.functions.values():
                self.functions[fn.qualname] = fn
            if mod.module_level is not None:
                self.functions[mod.module_level.qualname] = mod.module_level
            for cls in mod.classes.values():
                self.classes[cls.qualname] = cls
                for name, meth in cls.methods.items():
                    self.functions[meth.qualname] = meth
                    self.methods_by_name.setdefault(
                        name, []).append(meth.qualname)
        #: class qualname -> the project classes that list it as a base
        self.subclasses: Dict[str, List[ClassFacts]] = {}
        for cls in self.classes.values():
            for base_desc in cls.bases:
                base = self.resolve_class_desc(base_desc,
                                               self.modules[cls.module])
                if base is not None:
                    self.subclasses.setdefault(base.qualname, []).append(cls)

    # -- class / method resolution --------------------------------------
    def resolve_class_desc(self, desc: Desc,
                           mod: ModuleFacts) -> Optional[ClassFacts]:
        """Class named by ``desc`` as seen from module ``mod``."""
        if desc[0] == "name":
            name = desc[1]
            if name in mod.classes:
                return mod.classes[name]
            target = self._chase_import(mod, name)
            if target is not None and target in self.classes:
                return self.classes[target]
        elif desc[0] == "name_attr":
            base, attr = desc[1], desc[2]
            bound = mod.imports.get(base)
            if bound is not None and bound[1] is None:
                # module alias: base.attr names a class in that module
                target = self._chase_qualname(f"{bound[0]}.{attr}")
                if target is not None and target in self.classes:
                    return self.classes[target]
            # classmethod constructor: Cls.from_dict(...) builds a Cls
            owner = self.resolve_class_desc(("name", base), mod)
            if owner is not None:
                return owner
        return None

    def _chase_import(self, mod: ModuleFacts, name: str,
                      depth: int = 0) -> Optional[str]:
        """Qualname that ``name`` is bound to in ``mod`` (re-exports ok)."""
        bound = mod.imports.get(name)
        if bound is None or depth > 4:
            return None
        source_mod, attr = bound
        if attr is None:
            return None
        return self._chase_qualname(f"{source_mod}.{attr}", depth)

    def _chase_qualname(self, qualname: str,
                        depth: int = 0) -> Optional[str]:
        """Follow ``pkg.name`` through package re-exports to a def."""
        if qualname in self.functions or qualname in self.classes:
            return qualname
        head, _, tail = qualname.rpartition(".")
        via = self.modules.get(head)
        if via is not None and tail in via.imports:
            return self._chase_import(via, tail, depth + 1)
        return None

    def resolve_method(self, cls: ClassFacts, name: str,
                       _seen: Optional[Set[str]] = None) -> Optional[str]:
        """Qualname of method ``name`` on ``cls``, walking the MRO."""
        seen = _seen if _seen is not None else set()
        if cls.qualname in seen:
            return None
        seen.add(cls.qualname)
        if name in cls.methods:
            return cls.methods[name].qualname
        mod = self.modules.get(cls.module)
        if mod is None:
            return None
        for base_desc in cls.bases:
            base = self.resolve_class_desc(base_desc, mod)
            if base is not None:
                found = self.resolve_method(base, name, seen)
                if found is not None:
                    return found
        return None

    def overrides(self, cls: ClassFacts, name: str) -> List[str]:
        """Qualnames of method ``name`` in every project subclass of
        ``cls`` that defines it (a call on a ``cls``-typed value may
        dispatch to any of them)."""
        found: List[str] = []
        seen = {cls.qualname}
        frontier = [cls]
        while frontier:
            for sub in self.subclasses.get(frontier.pop().qualname, ()):
                if sub.qualname in seen:
                    continue
                seen.add(sub.qualname)
                frontier.append(sub)
                if name in sub.methods:
                    found.append(sub.methods[name].qualname)
        return sorted(found)

    def constructor_targets(self, cls: ClassFacts) -> List[str]:
        init = self.resolve_method(cls, "__init__")
        return [init] if init is not None else []


class CallGraph:
    """Resolved call graph: function qualnames and typed edges."""

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        self.nodes: Dict[str, FunctionFacts] = dict(index.functions)
        self.out: Dict[str, List[Edge]] = {}
        self.sched_targets: Set[str] = set()

    def add_edge(self, src: str, dst: str, kind: str, line: int,
                 fallback: bool = False, nested: bool = False) -> None:
        self.out.setdefault(src, []).append(
            Edge(src, dst, kind, line, fallback=fallback, nested=nested))
        if kind == "sched":
            self.sched_targets.add(dst)

    def successors(self, qualname: str) -> List[Edge]:
        return self.out.get(qualname, [])

    def predecessors(self) -> Dict[str, List[Edge]]:
        rev: Dict[str, List[Edge]] = {}
        for edges in self.out.values():
            for edge in edges:
                rev.setdefault(edge.dst, []).append(edge)
        return rev

    def reachable(self, roots: Iterable[str],
                  domain: Optional[Sequence[str]] = None) -> Set[str]:
        """Closure over all edge kinds, optionally restricted to
        functions whose module starts with a ``domain`` prefix."""
        def in_domain(qualname: str) -> bool:
            if domain is None:
                return True
            fn = self.nodes.get(qualname)
            return fn is not None and fn.module.startswith(tuple(domain))

        frontier = [q for q in roots if q in self.nodes and in_domain(q)]
        seen: Set[str] = set(frontier)
        while frontier:
            current = frontier.pop()
            for edge in self.out.get(current, ()):
                dst = edge.dst
                if dst in seen or dst not in self.nodes:
                    continue
                if not in_domain(dst):
                    continue
                seen.add(dst)
                frontier.append(dst)
        return seen

    # -- export ---------------------------------------------------------
    def to_json(self, hot: Optional[Set[str]] = None,
                worker: Optional[Set[str]] = None) -> Dict[str, Any]:
        hot = hot or set()
        worker = worker or set()
        nodes = [{
            "qualname": q,
            "module": fn.module,
            "path": fn.path,
            "line": fn.line,
            "hot": q in hot,
            "worker": q in worker,
        } for q, fn in sorted(self.nodes.items())]
        edges = [{
            "src": e.src, "dst": e.dst, "kind": e.kind, "line": e.line,
            "fallback": e.fallback, "nested": e.nested,
        } for edges in self.out.values() for e in edges]
        edges.sort(key=lambda e: (e["src"], e["dst"], e["line"]))
        return {
            "schema": "repro.flow.call-graph/v1",
            "nodes": nodes,
            "edges": edges,
            "scheduled_targets": sorted(self.sched_targets),
        }

    def to_dot(self, hot: Optional[Set[str]] = None) -> str:
        hot = hot or set()
        lines = ["digraph simsan_flow {", "  rankdir=LR;",
                 '  node [shape=box, fontsize=9];']
        by_module: Dict[str, List[str]] = {}
        for q, fn in sorted(self.nodes.items()):
            if fn.name == "<module>" and q not in self.out:
                continue
            by_module.setdefault(fn.module, []).append(q)
        for i, (module, quals) in enumerate(sorted(by_module.items())):
            lines.append(f'  subgraph cluster_{i} {{')
            lines.append(f'    label="{module}"; color=gray;')
            for q in quals:
                label = q[len(module) + 1:] if q.startswith(module) else q
                style = ', style=filled, fillcolor="#ffd8a8"' if q in hot \
                    else ""
                lines.append(f'    "{q}" [label="{label}"{style}];')
            lines.append("  }")
        for edges in self.out.values():
            for e in edges:
                if e.dst not in self.nodes:
                    continue
                attr = {"sched": ' [color=red]',
                        "registry": ' [style=dashed]',
                        "ref": ' [color=gray]'}.get(e.kind, "")
                lines.append(f'  "{e.src}" -> "{e.dst}"{attr};')
        lines.append("}")
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Descriptor resolution
# ----------------------------------------------------------------------
class _Resolver:
    """Resolves site descriptors to ``(qualname, via_fallback)`` pairs."""

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index

    def targets(self, desc: Desc, fn: FunctionFacts, mod: ModuleFacts,
                cls: Optional[ClassFacts], allow_fallback: bool,
                _seen: Optional[Set[Desc]] = None,
                ) -> List[Tuple[str, bool]]:
        seen = _seen if _seen is not None else set()
        if desc in seen:
            return []
        seen.add(desc)
        index = self.index
        kind = desc[0]

        if kind == "name":
            name = desc[1]
            if name in fn.var_funcs:
                return self.targets(fn.var_funcs[name], fn, mod, cls,
                                    allow_fallback, seen)
            if name in mod.functions:
                return [(mod.functions[name].qualname, False)]
            if name in mod.classes:
                return _exact(index.constructor_targets(mod.classes[name]))
            target = index._chase_import(mod, name)
            if target is not None:
                if target in index.functions:
                    return [(target, False)]
                if target in index.classes:
                    return _exact(
                        index.constructor_targets(index.classes[target]))
            return []

        if kind == "self":
            if cls is None:
                return []
            method = desc[1]
            out = self._dispatch(cls, method)
            for stored in cls.stored_methods.get(method, ()):
                hit = index.resolve_method(cls, stored)
                if hit is not None:
                    out.append((hit, False))
            if not out and allow_fallback:
                return self._fallback(method)
            return out

        if kind == "self_attr":
            if cls is None:
                return []
            attr, method = desc[1], desc[2]
            out = []
            for type_desc in cls.attr_types.get(attr, ()):
                owner = self._value_class(type_desc, mod)
                if owner is not None:
                    out.extend(self._dispatch(owner, method))
            if not out and allow_fallback:
                return self._fallback(method)
            return out

        if kind == "var_attr":
            var, method = desc[1], desc[2]
            out = []
            type_desc = fn.var_types.get(var)
            alias = fn.var_funcs.get(var)
            if type_desc is not None:
                owner = self._value_class(type_desc, mod)
                if owner is not None:
                    out.extend(self._dispatch(owner, method))
            elif alias is not None and alias[0] == "self":
                # ``policy = self.policy`` then ``policy.on_fill(...)``
                return self.targets(("self_attr", alias[1], method), fn,
                                    mod, cls, allow_fallback, seen)
            if not out and allow_fallback:
                return self._fallback(method)
            return out

        if kind == "name_attr":
            base, method = desc[1], desc[2]
            if base in mod.classes:
                hit = index.resolve_method(mod.classes[base], method)
                return [(hit, False)] if hit is not None else []
            bound = mod.imports.get(base)
            if bound is not None:
                source_mod, attr = bound
                prefix = source_mod if attr is None else \
                    f"{source_mod}.{attr}"
                if attr is None or prefix in index.modules:
                    target = index._chase_qualname(f"{prefix}.{method}")
                    if target is not None:
                        if target in index.functions:
                            return [(target, False)]
                        if target in index.classes:
                            return _exact(index.constructor_targets(
                                index.classes[target]))
                elif attr is not None:
                    target = index._chase_qualname(prefix)
                    if target is not None and target in index.classes:
                        hit = index.resolve_method(
                            index.classes[target], method)
                        if hit is not None:
                            return [(hit, False)]
            if allow_fallback:
                return self._fallback(method)
            return []

        return []

    def _dispatch(self, owner: ClassFacts,
                  method: str) -> List[Tuple[str, bool]]:
        """Exact targets of ``method`` on an ``owner``-typed value: the
        MRO hit plus every subclass override."""
        targets = self.index.overrides(owner, method)
        hit = self.index.resolve_method(owner, method)
        if hit is not None:
            targets = [hit] + targets
        return _exact(targets)

    def _value_class(self, type_desc: Desc,
                     mod: ModuleFacts) -> Optional[ClassFacts]:
        """Class a value of ``type_desc`` has: direct class reference,
        or a factory function's return annotation."""
        index = self.index
        owner = index.resolve_class_desc(type_desc, mod)
        if owner is not None:
            return owner
        target: Optional[str] = None
        if type_desc[0] == "name":
            if type_desc[1] in mod.functions:
                target = mod.functions[type_desc[1]].qualname
            else:
                target = index._chase_import(mod, type_desc[1])
        elif type_desc[0] == "name_attr":
            bound = mod.imports.get(type_desc[1])
            if bound is not None and bound[1] is None:
                target = index._chase_qualname(
                    f"{bound[0]}.{type_desc[2]}")
        if target is not None and target in index.functions:
            factory = index.functions[target]
            factory_mod = index.modules.get(factory.module)
            if factory.returns and factory_mod is not None:
                return index.resolve_class_desc(
                    ("name", factory.returns), factory_mod)
        return None

    def _fallback(self, method: str) -> List[Tuple[str, bool]]:
        if method in _GENERIC_METHODS or method.startswith("__"):
            return []
        candidates = self.index.methods_by_name.get(method, [])
        if 0 < len(candidates) <= _FALLBACK_CAP:
            return [(q, True) for q in candidates]
        return []


def _exact(qualnames: List[str]) -> List[Tuple[str, bool]]:
    return [(q, False) for q in qualnames]


# ----------------------------------------------------------------------
# Graph construction
# ----------------------------------------------------------------------
def build_graph(modules: Sequence[ModuleFacts],
                registry_resolvers: Optional[Dict[str, str]] = None,
                ) -> Tuple[CallGraph, ProjectIndex]:
    """Resolve every call/ref site and return the finished graph."""
    index = ProjectIndex(modules)
    graph = CallGraph(index)
    resolver = _Resolver(index)

    for mod in modules:
        functions: List[Tuple[FunctionFacts, Optional[ClassFacts]]] = []
        for fn in mod.functions.values():
            functions.append((fn, None))
        if mod.module_level is not None:
            functions.append((mod.module_level, None))
        for cls in mod.classes.values():
            for meth in cls.methods.values():
                functions.append((meth, cls))

        for fn, cls in functions:
            for site in fn.calls:
                for dst, fb in resolver.targets(site.desc, fn, mod, cls,
                                                allow_fallback=True):
                    kind = "sched" if site.scheduled else "call"
                    graph.add_edge(fn.qualname, dst, kind, site.line,
                                   fallback=fb, nested=site.nested)
            for site in fn.refs:
                for dst, fb in resolver.targets(
                        site.desc, fn, mod, cls,
                        allow_fallback=site.scheduled):
                    kind = "sched" if site.scheduled else "ref"
                    graph.add_edge(fn.qualname, dst, kind, site.line,
                                   fallback=fb, nested=site.nested)

    _link_decorator_registries(graph, index, registry_resolvers or {})
    return graph, index


def _link_decorator_registries(graph: CallGraph, index: ProjectIndex,
                               resolvers: Dict[str, str]) -> None:
    """For each resolver -> decorator pair, link the resolver to every
    def the decorator registered (``make_policy`` -> policy ctors)."""
    for resolver_q, decorator_q in resolvers.items():
        if resolver_q not in index.functions:
            continue
        resolver_fn = index.functions[resolver_q]
        for mod in index.modules.values():
            for cls in mod.classes.values():
                if _decorated_by(index, mod, cls.decorators, decorator_q):
                    for ctor in index.constructor_targets(cls):
                        graph.add_edge(resolver_q, ctor, "registry",
                                       resolver_fn.line)
            for target_fn in mod.functions.values():
                if _decorated_by(index, mod, target_fn.decorators,
                                 decorator_q):
                    graph.add_edge(resolver_q, target_fn.qualname,
                                   "registry", resolver_fn.line)


def _decorated_by(index: ProjectIndex, mod: ModuleFacts,
                  decorators: Sequence[Desc], decorator_q: str) -> bool:
    for desc in decorators:
        if desc[0] == "name":
            if mod.functions.get(desc[1]) is not None \
                    and mod.functions[desc[1]].qualname == decorator_q:
                return True
            if index._chase_import(mod, desc[1]) == decorator_q:
                return True
        elif desc[0] == "name_attr":
            bound = mod.imports.get(desc[1])
            if bound is not None and bound[1] is None:
                if index._chase_qualname(
                        f"{bound[0]}.{desc[2]}") == decorator_q:
                    return True
    return False
