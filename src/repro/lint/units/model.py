"""Symbol-table model for the unit checker.

Pass 1 of the analysis turns every module into a :class:`ModuleSummary`
— a picklable, AST-free description of its functions, classes,
attribute units, and imports.  Summaries from the whole file set are
then stitched into a :class:`UnitIndex`, which is what makes the
checker *inter-procedural*: a call site in one module resolves to the
parameter/return units of a callee summarized from another.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.lint.config import repro_path
from repro.lint.units.algebra import Unit
from repro.lint.units.catalog import name_unit, signature


@dataclass
class ParamInfo:
    """One parameter of a summarized function."""

    name: str
    unit: Optional[Unit]          # declared by suffix or catalog
    annotation: Optional[str]     # best-effort class name for typing


@dataclass
class FunctionInfo:
    """Unit signature of one function or method."""

    name: str
    qualname: str                 # "Link.set_rate" / "wired_path"
    module: str                   # dotted module name
    line: int
    params: List[ParamInfo] = field(default_factory=list)
    declared_return: Optional[Unit] = None   # from name suffix / catalog
    inferred_return: Optional[Unit] = None   # filled by the infer round
    is_method: bool = False

    @property
    def return_unit(self) -> Optional[Unit]:
        return (self.declared_return if self.declared_return is not None
                else self.inferred_return)

    def param(self, name: str) -> Optional[ParamInfo]:
        for p in self.params:
            if p.name == name:
                return p
        return None


@dataclass
class ClassInfo:
    """Unit-relevant view of one class."""

    name: str
    module: str
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: units of *unsuffixed* attributes inferred from ``__init__``
    #: (suffixed attributes resolve through the catalog instead).
    attr_units: Dict[str, Unit] = field(default_factory=dict)
    #: best-effort attribute -> class-name typing for receiver lookup.
    attr_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleSummary:
    """Everything the cross-module pass needs to know about one file."""

    path: str
    module: str                   # dotted name ("repro.netsim.link")
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: local name -> dotted target; a target may be a module
    #: ("repro.netsim.link") or a symbol ("repro.netsim.link.Link").
    imports: Dict[str, str] = field(default_factory=dict)


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

def module_name_for(path: str) -> str:
    """Dotted module name from a file path.

    A file under ``repro/`` is named from there (``repro.netsim.link``);
    any other file by its bare stem (which is what the test fixtures
    rely on).
    """
    parts = repro_path(path).removesuffix(".py").split("/")
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts) if parts[0] == "repro" else parts[-1]


def annotation_class(node: Optional[ast.AST]) -> Optional[str]:
    """Extract a class name from an annotation, best effort.

    Handles ``Link``, ``mod.Link``, ``Optional[Link]``, ``Link | None``
    and string annotations of those shapes; returns None otherwise.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Name):
        return node.id if node.id[:1].isupper() else None
    if isinstance(node, ast.Attribute):
        return node.attr if node.attr[:1].isupper() else None
    if isinstance(node, ast.Subscript):
        base = node.value
        base_name = base.id if isinstance(base, ast.Name) else (
            base.attr if isinstance(base, ast.Attribute) else "")
        if base_name in ("Optional", "Final", "ClassVar", "Annotated",
                         "List", "Sequence", "Iterable", "Tuple"):
            inner = node.slice
            if isinstance(inner, ast.Tuple) and inner.elts:
                inner = inner.elts[0]
            return annotation_class(inner)
        return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return annotation_class(node.left) or annotation_class(node.right)
    return None


def _function_info(node: ast.AST, qualprefix: str, module: str,
                   is_method: bool) -> FunctionInfo:
    qualname = f"{qualprefix}{node.name}"
    args = node.args
    positional = list(args.posonlyargs) + list(args.args)
    if is_method and positional:
        positional = positional[1:]            # drop self/cls
    catalog = signature(qualname) or ({}, None)
    cat_params, cat_return = catalog
    params: List[ParamInfo] = []
    for arg in positional + list(args.kwonlyargs):
        unit = name_unit(arg.arg)
        if unit is None:
            unit = cat_params.get(arg.arg)
        params.append(ParamInfo(arg.arg, unit, annotation_class(arg.annotation)))
    declared = name_unit(node.name)
    if declared is None:
        declared = cat_return
    return FunctionInfo(
        name=node.name, qualname=qualname, module=module,
        line=node.lineno, params=params, declared_return=declared,
        is_method=is_method,
    )


def _collect_attrs(cls: ClassInfo, node: ast.ClassDef) -> None:
    """Light attribute inference: suffixed params assigned in methods,
    constructor calls, and class-name annotations."""
    for item in node.body:
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            klass = annotation_class(item.annotation)
            if klass:
                cls.attr_types.setdefault(item.target.id, klass)
    for method in node.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        param_units = {p.name: p.unit
                       for p in cls.methods[method.name].params} \
            if method.name in cls.methods else {}
        param_types = {p.name: p.annotation
                       for p in cls.methods[method.name].params} \
            if method.name in cls.methods else {}
        for stmt in ast.walk(method):
            targets: List[ast.AST] = []
            value: Optional[ast.AST] = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                targets, value = [stmt.target], stmt.value
                klass = annotation_class(stmt.annotation)
                if (klass and isinstance(stmt.target, ast.Attribute)
                        and isinstance(stmt.target.value, ast.Name)
                        and stmt.target.value.id == "self"):
                    cls.attr_types.setdefault(stmt.target.attr, klass)
            for target in targets:
                if not (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    continue
                attr = target.attr
                if name_unit(attr) is not None:
                    continue                    # the suffix rules
                if isinstance(value, ast.Name):
                    unit = param_units.get(value.id)
                    if unit is None:
                        unit = name_unit(value.id)
                    if unit is not None and attr not in cls.attr_units:
                        cls.attr_units[attr] = unit
                    klass = param_types.get(value.id)
                    if klass:
                        cls.attr_types.setdefault(attr, klass)
                elif isinstance(value, ast.Call):
                    callee = value.func
                    name = (callee.id if isinstance(callee, ast.Name)
                            else callee.attr if isinstance(callee, ast.Attribute)
                            else "")
                    if name[:1].isupper():
                        cls.attr_types.setdefault(attr, name)


def build_summary(tree: ast.AST, path: str) -> ModuleSummary:
    """Pass 1: summarize one parsed module (no body dataflow yet)."""
    module = module_name_for(path)
    summary = ModuleSummary(path=path, module=module)
    package = module.rpartition(".")[0]

    for node in tree.body if isinstance(tree, ast.Module) else []:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.partition(".")[0]
                target = alias.name if alias.asname else alias.name.partition(".")[0]
                summary.imports[local] = target
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                prefix = module if path.endswith("__init__.py") else package
                for _ in range(node.level - 1):
                    prefix = prefix.rpartition(".")[0]
                base = f"{prefix}.{base}" if base else prefix
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                summary.imports[local] = f"{base}.{alias.name}" if base \
                    else alias.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info = _function_info(node, "", module, is_method=False)
            summary.functions[node.name] = info
        elif isinstance(node, ast.ClassDef):
            cls = ClassInfo(name=node.name, module=module)
            for base in node.bases:
                if isinstance(base, ast.Name):
                    cls.bases.append(base.id)
                elif isinstance(base, ast.Attribute):
                    cls.bases.append(base.attr)
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    cls.methods[item.name] = _function_info(
                        item, f"{node.name}.", module, is_method=True)
            _collect_attrs(cls, node)
            summary.classes[node.name] = cls
    return summary


@dataclass
class UnitIndex:
    """The project-wide symbol table the checker resolves against."""

    modules: Dict[str, ModuleSummary] = field(default_factory=dict)

    def add(self, summary: ModuleSummary) -> None:
        self.modules[summary.module] = summary

    # ------------------------------------------------------------------
    def find_module(self, dotted: str) -> Optional[ModuleSummary]:
        if dotted in self.modules:
            return self.modules[dotted]
        tail = "." + dotted
        matches = sorted(name for name in self.modules if name.endswith(tail))
        if matches:
            return self.modules[matches[0]]
        # The inverse: a bare-stem module ("producer") requested through
        # its package-qualified spelling ("pkg.producer").  Prefer the
        # longest known name that is a dotted suffix of the request.
        reverse = sorted((name for name in self.modules
                          if dotted.endswith("." + name)),
                         key=lambda n: (-len(n), n))
        return self.modules[reverse[0]] if reverse else None

    def resolve_import(self, summary: ModuleSummary,
                       name: str) -> Optional[Tuple[ModuleSummary, str]]:
        """Resolve a local *name* through the module's imports.

        Returns ``(defining module, symbol name)`` for symbol imports
        or ``(module, "")`` for module imports; None when unresolved.
        """
        target = summary.imports.get(name)
        if target is None:
            return None
        mod = self.find_module(target)
        if mod is not None:
            return (mod, "")
        head, _, leaf = target.rpartition(".")
        if head:
            mod = self.find_module(head)
            if mod is not None and (leaf in mod.functions
                                    or leaf in mod.classes
                                    or leaf in mod.imports):
                if leaf in mod.imports and leaf not in mod.functions \
                        and leaf not in mod.classes:
                    # re-export: chase one hop (enough for __init__.py).
                    return self.resolve_import(mod, leaf)
                return (mod, leaf)
        return None

    def resolve_class(self, summary: ModuleSummary,
                      name: str) -> Optional[ClassInfo]:
        if name in summary.classes:
            return summary.classes[name]
        resolved = self.resolve_import(summary, name)
        if resolved is not None:
            mod, leaf = resolved
            if leaf and leaf in mod.classes:
                return mod.classes[leaf]
        # last resort: unique class of that name anywhere in the index
        owners = sorted(m for m in self.modules
                        if name in self.modules[m].classes)
        if len(owners) == 1:
            return self.modules[owners[0]].classes[name]
        return None

    def resolve_function(self, summary: ModuleSummary,
                         name: str) -> Optional[FunctionInfo]:
        if name in summary.functions:
            return summary.functions[name]
        resolved = self.resolve_import(summary, name)
        if resolved is not None:
            mod, leaf = resolved
            if leaf and leaf in mod.functions:
                return mod.functions[leaf]
        return None

    def method_of(self, cls: Optional[ClassInfo],
                  name: str) -> Optional[FunctionInfo]:
        """Method lookup walking base classes, best effort."""
        seen = 0
        while cls is not None and seen < 8:
            if name in cls.methods:
                return cls.methods[name]
            if not cls.bases:
                return None
            base_name = cls.bases[0]
            owner = self.modules.get(cls.module)
            cls = self.resolve_class(owner, base_name) if owner else None
            seen += 1
        return None

    def class_attr_unit(self, cls: Optional[ClassInfo],
                        name: str) -> Optional[Unit]:
        seen = 0
        while cls is not None and seen < 8:
            if name in cls.attr_units:
                return cls.attr_units[name]
            owner = self.modules.get(cls.module)
            cls = (self.resolve_class(owner, cls.bases[0])
                   if owner and cls.bases else None)
            seen += 1
        return None

    def class_attr_type(self, cls: Optional[ClassInfo],
                        name: str) -> Optional[str]:
        seen = 0
        while cls is not None and seen < 8:
            if name in cls.attr_types:
                return cls.attr_types[name]
            owner = self.modules.get(cls.module)
            cls = (self.resolve_class(owner, cls.bases[0])
                   if owner and cls.bases else None)
            seen += 1
        return None
