"""Pass 2: unit dataflow over function bodies, with call-site checks.

One inference engine serves two rounds.  The *infer* round runs every
function body silently to learn return units for functions whose names
declare nothing (a ``def ppdu_airtime(...)`` returning a sum of
``_s`` terms infers ``s`` — the algebra decides).  The *check* round runs the same
dataflow again, now against the completed :class:`UnitIndex`, and
emits findings:

==========  =========================================================
REP101      mixed-unit arithmetic / comparison / ``min``-``max``
REP102      argument unit conflicts with the callee's parameter unit
REP103      return value conflicts with the function's declared unit
REP104      unit-suffixed target assigned a conflicting unit
REP105      unsuffixed parameter meets unit-carrying arithmetic
            (strict/simulation scope only)
==========  =========================================================

The lattice is deliberately shallow: a value's unit is either a
concrete :class:`Unit` or unknown (``None``), and **only provable
conflicts between two concrete units are reported** — unknown never
fires a diagnostic (except REP105, whose entire point is "this value
*should* have been attributable").  Numeric literals are wildcards
under ``+``/``-``/comparison (``rtt_s + 0.01`` is idiomatic) and
dimensionless under ``*``/``/`` (so ``1.0 / interval_s`` is ``hz``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lint.config import STRICT_PACKAGES, package_of, repro_path
from repro.lint.findings import Finding
from repro.lint.rules import dotted
from repro.lint.units.algebra import Unit
from repro.lint.units.catalog import DIMENSIONLESS_NAMES, SIGNATURES, name_unit
from repro.lint.units.model import (
    ClassInfo,
    FunctionInfo,
    ModuleSummary,
    UnitIndex,
    annotation_class,
    build_summary,
    module_name_for,
)

__all__ = ["UNIT_RULE_SUMMARIES", "analyze_units"]

UNIT_RULE_SUMMARIES: Dict[str, str] = {
    "REP101": "mixed-unit arithmetic (e.g. seconds added to bytes)",
    "REP102": "call argument unit conflicts with the callee parameter",
    "REP103": "return unit conflicts with the function's declared unit",
    "REP104": "unit-suffixed name assigned a conflicting unit",
    "REP105": "unsuffixed parameter in unit-sensitive arithmetic "
              "(simulation scope)",
}


#: Builtins whose result keeps the single argument's unit.
_PASSTHROUGH = ("abs", "float", "round")

#: Builtins whose arguments must share a unit; result keeps it.
_AGREEING = ("min", "max")


@dataclass
class Val:
    """A value during inference: its unit (None = unknown) and, when it
    is a bare reference to an unsuffixed parameter, that provenance
    (drives REP105)."""

    unit: Optional[Unit] = None
    param: Optional[str] = None
    literal: bool = False
    klass: Optional[ClassInfo] = None


_NOTHING = Val()


class _FunctionChecker:
    """Dataflow over one function body."""

    def __init__(self, engine: "_ModuleChecker", info: Optional[FunctionInfo],
                 node: ast.AST, self_class: Optional[ClassInfo],
                 emit: bool) -> None:
        self.engine = engine
        self.index = engine.index
        self.info = info
        self.node = node
        self.self_class = self_class
        self.emit_enabled = emit
        self.env: Dict[str, Optional[Unit]] = {}
        self.types: Dict[str, Optional[ClassInfo]] = {}
        self.unsuffixed_params: set = set()
        self.rep105_fired: set = set()
        self.return_units: List[Tuple[Unit, ast.AST]] = []
        self._bind_params()

    # ------------------------------------------------------------------
    def _bind_params(self) -> None:
        args = self.node.args
        names = [a for a in (list(args.posonlyargs) + list(args.args)
                             + list(args.kwonlyargs))]
        if args.vararg is not None:
            names.append(args.vararg)
        if args.kwarg is not None:
            names.append(args.kwarg)
        strict = self.engine.strict
        for i, arg in enumerate(names):
            if i == 0 and self.info is not None and self.info.is_method:
                continue                       # self/cls
            unit = name_unit(arg.arg)
            if unit is None and self.info is not None:
                p = self.info.param(arg.arg)
                if p is not None:
                    unit = p.unit
            self.env[arg.arg] = unit
            klass = None
            ann = arg.annotation
            if ann is not None:
                name = annotation_class(ann)
                if name:
                    klass = self.index.resolve_class(self.engine.summary, name)
            self.types[arg.arg] = klass
            if (unit is None and strict
                    and arg.arg not in DIMENSIONLESS_NAMES
                    and not _is_non_numeric_annotation(ann)):
                self.unsuffixed_params.add(arg.arg)

    # ------------------------------------------------------------------
    def emit(self, code: str, message: str, node: ast.AST) -> None:
        if self.emit_enabled:
            self.engine.findings.append(Finding(
                code, message, self.engine.path,
                getattr(node, "lineno", 1),
                getattr(node, "col_offset", 0)))

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def run(self) -> None:
        for stmt in self.node.body:
            self.stmt(stmt)

    def stmt(self, node: ast.AST) -> None:
        if isinstance(node, ast.Assign):
            val = self.expr(node.value)
            for target in node.targets:
                self.assign(target, val, node)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self.assign(node.target, self.expr(node.value), node)
        elif isinstance(node, ast.AugAssign):
            target_val = self.expr(node.target)
            value_val = self.expr(node.value)
            result = self._binop_value(node.op, target_val, value_val, node)
            self.assign(node.target, result, node)
        elif isinstance(node, ast.Return):
            if node.value is not None and not _is_none(node.value):
                val = self.expr(node.value)
                if val.unit is not None:
                    self.return_units.append((val.unit, node))
                    self._check_return(val.unit, node)
        elif isinstance(node, (ast.Expr, ast.Assert)):
            self.expr(node.value if isinstance(node, ast.Expr) else node.test)
            if isinstance(node, ast.Assert) and node.msg is not None:
                self.expr(node.msg)
        elif isinstance(node, (ast.If, ast.While)):
            self.expr(node.test)
            for child in node.body:
                self.stmt(child)
            for child in node.orelse:
                self.stmt(child)
        elif isinstance(node, ast.For):
            iter_val = self.expr(node.iter)
            if isinstance(node.target, ast.Name):
                declared = name_unit(node.target.id)
                self.env[node.target.id] = (declared if declared is not None
                                            else iter_val.unit)
            for child in node.body:
                self.stmt(child)
            for child in node.orelse:
                self.stmt(child)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                self.expr(item.context_expr)
            for child in node.body:
                self.stmt(child)
        elif isinstance(node, ast.Try):
            for block in (node.body, node.orelse, node.finalbody):
                for child in block:
                    self.stmt(child)
            for handler in node.handlers:
                for child in handler.body:
                    self.stmt(child)
        elif isinstance(node, ast.Raise):
            if node.exc is not None:
                self.expr(node.exc)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested = _FunctionChecker(self.engine, None, node,
                                      self.self_class, self.emit_enabled)
            nested.run()
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.env.pop(target.id, None)
        # pass/break/continue/global/import/class: nothing to learn

    # ------------------------------------------------------------------
    def assign(self, target: ast.AST, val: Val, stmt: ast.AST) -> None:
        if isinstance(target, ast.Name):
            declared = name_unit(target.id)
            if declared is not None:
                if val.unit is not None and not declared.compatible(val.unit):
                    self.emit("REP104",
                              f"`{target.id}` declares unit `{declared}` by "
                              f"suffix but is assigned a value of unit "
                              f"`{val.unit}`", target)
                self.env[target.id] = declared
            else:
                self.env[target.id] = val.unit
            self.types[target.id] = val.klass
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                if isinstance(elt, ast.Name):
                    declared = name_unit(elt.id)
                    self.env[elt.id] = declared
                    self.types[elt.id] = None
        elif isinstance(target, ast.Attribute):
            self.expr(target.value)
            declared = self._attribute_unit(target)
            if (declared is not None and val.unit is not None
                    and not declared.compatible(val.unit)):
                self.emit("REP104",
                          f"`{_render(target)}` declares unit `{declared}` "
                          f"but is assigned a value of unit `{val.unit}`",
                          target)
        elif isinstance(target, ast.Subscript):
            self.expr(target.value)
        elif isinstance(target, ast.Starred):
            self.assign(target.value, _NOTHING, stmt)

    def _check_return(self, unit: Unit, node: ast.AST) -> None:
        info = self.info
        if info is None:
            return
        if (info.declared_return is not None
                and not info.declared_return.compatible(unit)):
            self.emit("REP103",
                      f"`{info.qualname}` declares return unit "
                      f"`{info.declared_return}` but returns a value of "
                      f"unit `{unit}`", node)
        elif info.declared_return is None and self.return_units:
            first_unit, _first_node = self.return_units[0]
            if not first_unit.compatible(unit):
                self.emit("REP103",
                          f"`{info.qualname}` returns conflicting units: "
                          f"`{first_unit}` and `{unit}`", node)

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def expr(self, node: ast.AST) -> Val:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or node.value is None \
                    or isinstance(node.value, (str, bytes)):
                return _NOTHING
            return Val(literal=True)
        if isinstance(node, ast.Name):
            return self._name(node)
        if isinstance(node, ast.Attribute):
            return self._attribute(node)
        if isinstance(node, ast.BinOp):
            left = self.expr(node.left)
            right = self.expr(node.right)
            return self._binop_value(node.op, left, right, node,
                                     right_node=node.right)
        if isinstance(node, ast.UnaryOp):
            val = self.expr(node.operand)
            if isinstance(node.op, ast.Not):
                return _NOTHING
            return Val(unit=val.unit, param=val.param, literal=val.literal)
        if isinstance(node, ast.Compare):
            self._compare(node)
            return _NOTHING
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.BoolOp):
            vals = [self.expr(v) for v in node.values]
            units = [v.unit for v in vals if v.unit is not None]
            if units and all(u.compatible(units[0]) for u in units[1:]):
                return Val(unit=units[0])
            return _NOTHING
        if isinstance(node, ast.IfExp):
            self.expr(node.test)
            a = self.expr(node.body)
            b = self.expr(node.orelse)
            if a.unit is not None and b.unit is not None \
                    and a.unit.compatible(b.unit):
                return Val(unit=a.unit)
            return Val(unit=a.unit or b.unit) if (a.unit is None
                                                  or b.unit is None) \
                else _NOTHING
        if isinstance(node, ast.Subscript):
            container = self.expr(node.value)
            self.expr(node.slice)
            # a container named with a unit suffix holds elements of
            # that unit (``edges_s[0]`` is seconds).
            return Val(unit=container.unit)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for elt in node.elts:
                self.expr(elt)
            return _NOTHING
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if key is not None:
                    self.expr(key)
            for value in node.values:
                self.expr(value)
            return _NOTHING
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp)):
            return self._comprehension(node)
        if isinstance(node, ast.Lambda):
            nested = _FunctionChecker(self.engine, None, _LambdaShim(node),
                                      self.self_class, self.emit_enabled)
            nested.env.update({k: v for k, v in self.env.items()})
            nested.types.update({k: v for k, v in self.types.items()})
            for arg in node.args.args:
                nested.env[arg.arg] = name_unit(arg.arg)
            nested.expr(node.body)
            return _NOTHING
        if isinstance(node, ast.Starred):
            return self.expr(node.value)
        if isinstance(node, ast.JoinedStr):
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    self.expr(value.value)
            return _NOTHING
        if isinstance(node, ast.NamedExpr):
            val = self.expr(node.value)
            self.assign(node.target, val, node)
            return val
        if isinstance(node, ast.Await):
            return self.expr(node.value)
        return _NOTHING

    # ------------------------------------------------------------------
    def _name(self, node: ast.Name) -> Val:
        name = node.id
        if name in self.env:
            unit = self.env[name]
            if unit is None:
                declared = name_unit(name)
                if declared is not None:
                    unit = declared
            param = name if (unit is None
                             and name in self.unsuffixed_params) else None
            return Val(unit=unit, param=param, klass=self.types.get(name))
        unit = name_unit(name)
        if unit is not None:
            return Val(unit=unit)
        klass = self.index.resolve_class(self.engine.summary, name) \
            if name[:1].isupper() else None
        return Val(klass=klass)

    def _attribute_unit(self, node: ast.Attribute) -> Optional[Unit]:
        attr = node.attr
        declared = name_unit(attr)
        if declared is not None:
            return declared
        owner = self._receiver_class(node.value)
        if owner is not None:
            return self.index.class_attr_unit(owner, attr)
        return None

    def _attribute(self, node: ast.Attribute) -> Val:
        self.expr(node.value)
        unit = self._attribute_unit(node)
        klass = None
        owner = self._receiver_class(node.value)
        if owner is not None:
            type_name = self.index.class_attr_type(owner, node.attr)
            if type_name:
                klass = self.index.resolve_class(self.engine.summary,
                                                 type_name)
        return Val(unit=unit, klass=klass)

    def _receiver_class(self, node: ast.AST) -> Optional[ClassInfo]:
        """Best-effort class of an expression used as a receiver."""
        if isinstance(node, ast.Name):
            if node.id in ("self", "cls"):
                return self.self_class
            return self.types.get(node.id)
        if isinstance(node, ast.Attribute):
            owner = self._receiver_class(node.value)
            if owner is not None:
                type_name = self.index.class_attr_type(owner, node.attr)
                if type_name:
                    return self.index.resolve_class(self.engine.summary,
                                                    type_name)
            return None
        if isinstance(node, ast.Call):
            return self._call_silent_type(node)
        return None

    def _call_silent_type(self, node: ast.Call) -> Optional[ClassInfo]:
        func = node.func
        if isinstance(func, ast.Name):
            return self.index.resolve_class(self.engine.summary, func.id)
        return None

    # ------------------------------------------------------------------
    def _binop_value(self, op: ast.AST, left: Val, right: Val,
                     node: ast.AST, right_node: Optional[ast.AST] = None) -> Val:
        if isinstance(op, (ast.Add, ast.Sub)):
            if left.unit is not None and right.unit is not None:
                if not left.unit.compatible(right.unit):
                    verb = "added to" if isinstance(op, ast.Add) \
                        else "subtracted from"
                    self.emit("REP101",
                              f"mixed units: `{right.unit}` {verb} "
                              f"`{left.unit}`", node)
                    return _NOTHING
                return Val(unit=left.unit)
            self._rep105(left, right, node, "arithmetic")
            return Val(unit=left.unit or right.unit)
        if isinstance(op, ast.Mult):
            if left.unit is not None and right.unit is not None:
                return Val(unit=left.unit.mul(right.unit))
            if left.unit is not None and right.literal:
                return Val(unit=left.unit)
            if right.unit is not None and left.literal:
                return Val(unit=right.unit)
            return _NOTHING
        if isinstance(op, (ast.Div, ast.FloorDiv)):
            if left.unit is not None and right.unit is not None:
                return Val(unit=left.unit.div(right.unit))
            if left.unit is not None and right.literal:
                return Val(unit=left.unit)
            if right.unit is not None and left.literal:
                return Val(unit=right.unit.invert())
            return _NOTHING
        if isinstance(op, ast.Mod):
            if left.unit is not None and right.unit is not None \
                    and not left.unit.compatible(right.unit) \
                    and not right.unit.is_dimensionless:
                self.emit("REP101",
                          f"mixed units: `{left.unit}` modulo "
                          f"`{right.unit}`", node)
                return _NOTHING
            return Val(unit=left.unit)
        if isinstance(op, ast.Pow):
            exp_node = right_node
            if (left.unit is not None and isinstance(exp_node, ast.Constant)
                    and isinstance(exp_node.value, int)
                    and not isinstance(exp_node.value, bool)):
                return Val(unit=left.unit.pow(exp_node.value))
            return _NOTHING
        return _NOTHING

    def _compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        vals = [self.expr(operand) for operand in operands]
        for i, op in enumerate(node.ops):
            if not isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE,
                                   ast.Eq, ast.NotEq)):
                continue
            left, right = vals[i], vals[i + 1]
            if left.unit is not None and right.unit is not None:
                if not left.unit.compatible(right.unit):
                    self.emit("REP101",
                              f"comparison between `{left.unit}` and "
                              f"`{right.unit}`", node)
            else:
                self._rep105(left, right, node, "a comparison")

    def _rep105(self, left: Val, right: Val, node: ast.AST,
                context: str) -> None:
        for a, b in ((left, right), (right, left)):
            if (a.unit is not None and not a.unit.is_dimensionless
                    and b.param is not None
                    and b.param not in self.rep105_fired):
                self.rep105_fired.add(b.param)
                self.emit("REP105",
                          f"parameter `{b.param}` has no unit suffix but "
                          f"meets `{a.unit}` in {context}; rename it "
                          f"(e.g. `{b.param}_{_suggest(a.unit)}`) or add "
                          "it to DIMENSIONLESS_NAMES", node)

    # ------------------------------------------------------------------
    def _comprehension(self, node: ast.AST) -> Val:
        for gen in node.generators:
            iter_val = self.expr(gen.iter)
            if isinstance(gen.target, ast.Name):
                declared = name_unit(gen.target.id)
                self.env[gen.target.id] = (declared if declared is not None
                                           else iter_val.unit)
            elif isinstance(gen.target, (ast.Tuple, ast.List)):
                for elt in gen.target.elts:
                    if isinstance(elt, ast.Name):
                        self.env[elt.id] = name_unit(elt.id)
            for cond in gen.ifs:
                self.expr(cond)
        if isinstance(node, ast.DictComp):
            self.expr(node.key)
            self.expr(node.value)
            return _NOTHING
        element = self.expr(node.elt)
        return Val(unit=element.unit)

    # ------------------------------------------------------------------
    def _call(self, node: ast.Call) -> Val:
        func = node.func
        # builtins with unit semantics
        if isinstance(func, ast.Name):
            if func.id in _AGREEING:
                return self._agreeing_call(node, func.id)
            if func.id in _PASSTHROUGH and len(node.args) == 1:
                return Val(unit=self.expr(node.args[0]).unit)
            if func.id == "int" and len(node.args) == 1:
                return Val(unit=self.expr(node.args[0]).unit)
            if func.id == "sum" and node.args:
                val = self.expr(node.args[0])
                for extra in node.args[1:]:
                    self.expr(extra)
                return Val(unit=val.unit)
            if func.id == "len":
                for arg in node.args:
                    self.expr(arg)
                return _NOTHING
        info, receiver_hint = self._resolve_call(func)
        arg_vals = [self.expr(arg) for arg in node.args]
        kw_vals = {kw.arg: self.expr(kw.value) for kw in node.keywords}
        if info is not None:
            self._check_args(node, info, arg_vals, kw_vals)
            klass = None
            if receiver_hint is not None and info.name == "__init__":
                klass = receiver_hint
            return Val(unit=info.return_unit, klass=klass)
        # catalog fallback by (dotted or bare) name
        sig = self._catalog_signature(func)
        if sig is not None:
            params, returns = sig
            self._check_catalog_args(node, func, params, arg_vals, kw_vals)
            return Val(unit=returns)
        return _NOTHING

    def _agreeing_call(self, node: ast.Call, name: str) -> Val:
        vals = [self.expr(arg) for arg in node.args]
        for kw in node.keywords:
            self.expr(kw.value)
        concrete = [(v, arg) for v, arg in zip(vals, node.args)
                    if v.unit is not None]
        for (v, _a), (w, _b) in zip(concrete, concrete[1:]):
            if not v.unit.compatible(w.unit):
                self.emit("REP101",
                          f"`{name}()` mixes units `{v.unit}` and "
                          f"`{w.unit}`", node)
                return _NOTHING
        if concrete:
            for v in vals:
                if v.unit is None:
                    self._rep105(concrete[0][0], v, node, f"`{name}()`")
            return Val(unit=concrete[0][0].unit)
        return _NOTHING

    # ------------------------------------------------------------------
    def _resolve_call(self, func: ast.AST) \
            -> Tuple[Optional[FunctionInfo], Optional[ClassInfo]]:
        summary = self.engine.summary
        if isinstance(func, ast.Name):
            name = func.id
            fn = self.index.resolve_function(summary, name)
            if fn is not None:
                return fn, None
            cls = self.index.resolve_class(summary, name)
            if cls is not None:
                ctor = self.index.method_of(cls, "__init__")
                return ctor, cls
            return None, None
        if isinstance(func, ast.Attribute):
            # module.function(...) through an import
            if isinstance(func.value, ast.Name):
                resolved = self.index.resolve_import(summary, func.value.id)
                if resolved is not None:
                    mod, leaf = resolved
                    if not leaf:
                        if func.attr in mod.functions:
                            return mod.functions[func.attr], None
                        if func.attr in mod.classes:
                            cls = mod.classes[func.attr]
                            return self.index.method_of(cls, "__init__"), cls
            owner = self._receiver_class(func.value)
            if owner is not None:
                method = self.index.method_of(owner, func.attr)
                if method is not None:
                    return method, None
        return None, None

    def _catalog_signature(self, func: ast.AST):
        name = dotted(func)
        if name:
            sig = SIGNATURES.get(name)
            if sig is not None:
                return sig
        if isinstance(func, ast.Attribute):
            owner = self._receiver_class(func.value)
            if owner is not None:
                sig = SIGNATURES.get(f"{owner.name}.{func.attr}")
                if sig is not None:
                    return sig
            return SIGNATURES.get(func.attr)
        if isinstance(func, ast.Name):
            return SIGNATURES.get(func.id)
        return None

    # ------------------------------------------------------------------
    def _check_args(self, node: ast.Call, info: FunctionInfo,
                    arg_vals: List[Val], kw_vals: Dict[str, Val]) -> None:
        for i, (arg_node, val) in enumerate(zip(node.args, arg_vals)):
            if isinstance(arg_node, ast.Starred):
                break
            if i >= len(info.params):
                break
            self._check_one_arg(node, info, info.params[i].name,
                                info.params[i].unit, val)
        for kw in node.keywords:
            if kw.arg is None:
                continue
            param = info.param(kw.arg)
            if param is not None:
                self._check_one_arg(node, info, param.name, param.unit,
                                    kw_vals[kw.arg])

    def _check_one_arg(self, node: ast.Call, info: FunctionInfo,
                       param_name: str, param_unit: Optional[Unit],
                       val: Val) -> None:
        if param_unit is None or val.unit is None:
            return
        if val.literal:
            return
        if not param_unit.compatible(val.unit):
            self.emit("REP102",
                      f"argument of unit `{val.unit}` passed to parameter "
                      f"`{param_name}` of `{info.qualname}` "
                      f"(declared `{param_unit}`)", node)

    def _check_catalog_args(self, node: ast.Call, func: ast.AST,
                            params: Dict[str, Unit],
                            arg_vals: List[Val],
                            kw_vals: Dict[str, Val]) -> None:
        label = dotted(func) or (func.attr if isinstance(func, ast.Attribute)
                                  else "<call>")
        ordered = list(params.items())
        for i, (arg_node, val) in enumerate(zip(node.args, arg_vals)):
            if isinstance(arg_node, ast.Starred) or i >= len(ordered):
                break
            name, unit = ordered[i]
            if val.unit is not None and not val.literal \
                    and not unit.compatible(val.unit):
                self.emit("REP102",
                          f"argument of unit `{val.unit}` passed to "
                          f"parameter `{name}` of `{label}` "
                          f"(declared `{unit}`)", node)
        for kw in node.keywords:
            if kw.arg in params:
                val = kw_vals[kw.arg]
                unit = params[kw.arg]
                if val.unit is not None and not val.literal \
                        and not unit.compatible(val.unit):
                    self.emit("REP102",
                              f"argument of unit `{val.unit}` passed to "
                              f"parameter `{kw.arg}` of `{label}` "
                              f"(declared `{unit}`)", node)


class _LambdaShim:
    """Adapts a Lambda to the body/args interface the checker walks."""

    def __init__(self, node: ast.Lambda) -> None:
        self.args = node.args
        self.body: List[ast.AST] = []
        self.lineno = node.lineno


def _is_none(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _is_non_numeric_annotation(node: Optional[ast.AST]) -> bool:
    """True when an annotation clearly marks a non-quantity (str, bool,
    callbacks, objects) — those parameters are outside REP105."""
    if node is None:
        return False
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return True
    if isinstance(node, ast.Name):
        return node.id not in ("int", "float", "complex")
    if isinstance(node, ast.Attribute):
        return True
    if isinstance(node, ast.Subscript):
        base = node.value
        name = base.id if isinstance(base, ast.Name) else ""
        if name in ("Optional", "Final", "Annotated"):
            inner = node.slice
            if isinstance(inner, ast.Tuple) and inner.elts:
                inner = inner.elts[0]
            return _is_non_numeric_annotation(inner)
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return (_is_non_numeric_annotation(node.left)
                and _is_non_numeric_annotation(node.right))
    return False


def _render(node: ast.Attribute) -> str:
    return dotted(node) or node.attr


def _suggest(unit: Unit) -> str:
    text = str(unit)
    return {"dimensionless": "ratio", "bps": "bps", "hz": "hz"}.get(
        text, text.replace("/", "_per_").replace("*", "_").replace("^", ""))


# ----------------------------------------------------------------------
# module-level driver
# ----------------------------------------------------------------------

class _ModuleChecker:
    """Runs the function checker over every def in one module."""

    def __init__(self, tree: ast.AST, path: str, index: UnitIndex,
                 emit: bool) -> None:
        self.path = path
        self.index = index
        self.summary = index.modules.get(module_name_for(path)) \
            or ModuleSummary(path=path, module="?")
        self.strict = package_of(repro_path(path)) in STRICT_PACKAGES
        self.findings: List[Finding] = []
        self.tree = tree
        self.emit = emit

    def run(self) -> List[Finding]:
        assert isinstance(self.tree, ast.Module)
        for node in self.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = self.summary.functions.get(node.name)
                checker = _FunctionChecker(self, info, node, None, self.emit)
                checker.run()
                self._finish_function(info, checker)
            elif isinstance(node, ast.ClassDef):
                cls = self.summary.classes.get(node.name)
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        info = cls.methods.get(item.name) if cls else None
                        checker = _FunctionChecker(self, info, item, cls,
                                                   self.emit)
                        checker.run()
                        self._finish_function(info, checker)
        return self.findings

    @staticmethod
    def _finish_function(info: Optional[FunctionInfo],
                         checker: _FunctionChecker) -> None:
        if info is None or info.declared_return is not None:
            return
        units = [u for u, _ in checker.return_units]
        if units and all(u.compatible(units[0]) for u in units[1:]):
            info.inferred_return = units[0]


def analyze_units(trees: Sequence[Tuple[str, ast.AST]]) -> List[Finding]:
    """Whole-program unit analysis over ``(path, parsed module)`` pairs.

    Three deterministic phases: summarize every module into the
    project-wide index, run a silent inference round to learn undeclared
    return units, then check every module against the completed index.
    """
    index = UnitIndex()
    for path, tree in trees:
        index.add(build_summary(tree, path))
    for path, tree in trees:
        _ModuleChecker(tree, path, index, emit=False).run()
    findings: List[Finding] = []
    for path, tree in trees:
        findings.extend(_ModuleChecker(tree, path, index, emit=True).run())
    return findings
