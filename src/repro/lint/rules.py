"""The REP rule set: repo-specific determinism checks.

Each rule is a function ``(tree, path, rpath) -> list[Finding]``
registered in :data:`RULES` under a stable code: *path* is what the
findings report, *rpath* its ``repro/...`` form, which scope reads.
Codes never change meaning; retired rules leave a hole rather than
being renumbered, so a ``# reprolint: disable=REPxxx`` pragma stays
valid forever.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, List

from repro.lint.config import ALLOW_NAMES, REP004_PACKAGES, in_sim_scope, package_of
from repro.lint.findings import Finding

__all__ = ["DETERMINISM_RULES", "RULES", "RULE_SUMMARIES", "Finding", "dotted"]

#: Suffixes that state a unit (or an explicit dimensionless kind), REP004.
UNIT_SUFFIXES = ("_s", "_ms", "_us", "_ts", "_bytes", "_bits", "_bps",
                 "_pps", "_mbps", "_hz", "_pkts", "_rtts", "_gain",
                 "_factor", "_fraction", "_frac", "_ratio", "_rate",
                 "_loss", "_pct", "_db", "_w", "_j")

#: Identifier names/suffixes treated as clock readings by REP003.
TIME_NAMES = ("now", "time", "deadline", "t")
TIME_SUFFIXES = ("_s", "_ms", "_us", "_ts", "_time", "_at", "_ns")


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

def dotted(node: ast.AST) -> str:
    """Best-effort dotted name for a Name/Attribute chain ('' if other)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _is_const(node: ast.AST, *types: type) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, types)


def _is_approx_call(node: ast.AST) -> bool:
    """True for ``pytest.approx(...)`` / ``approx(...)`` operands."""
    return (isinstance(node, ast.Call)
            and dotted(node.func).rpartition(".")[2] == "approx")


# ----------------------------------------------------------------------
# REP001 — no wall clock in simulation code
# ----------------------------------------------------------------------

_WALL_CLOCK_CALLS = {
    "time.time",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.time_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.date.today",
}


def rep001_no_wall_clock(tree: ast.AST, path: str, rpath: str) -> List[Finding]:
    """Simulation code must read the virtual clock, never the host's.

    A single ``time.time()`` in an event handler silently breaks
    byte-identical replay: results begin to depend on machine load.
    Sim-side telemetry is simulation code too: trace events are stamped
    from the sim clock so a trace replays byte-identically.
    """
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted(node.func)
        if name in _WALL_CLOCK_CALLS:
            findings.append(Finding(
                "REP001",
                f"wall-clock call `{name}()` in simulation code; "
                "use the simulator's virtual clock (`sim.now()`)",
                path, node.lineno, node.col_offset,
            ))
    return findings


# ----------------------------------------------------------------------
# REP002 — no ambient / unseeded randomness in simulation code
# ----------------------------------------------------------------------

_NP_RANDOM_ROOTS = {"numpy.random", "np.random"}


def rep002_no_ambient_rng(tree: ast.AST, path: str, rpath: str) -> List[Finding]:
    """All randomness must flow from an explicitly seeded generator.

    Flags module-level ``random.xxx(...)`` calls, any ``numpy.random``
    access, ``from random import ...``, and unseeded ``random.Random()``
    / ``default_rng()`` / ``RandomState()`` constructions.  Seeded
    instances (``random.Random(seed)``) are the sanctioned pattern.
    """
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "random":
            findings.append(Finding(
                "REP002",
                "`from random import ...` hides the shared-state module "
                "RNG; construct a seeded `random.Random(seed)` instead",
                path, node.lineno, node.col_offset,
            ))
            continue
        if not isinstance(node, ast.Call):
            continue
        name = dotted(node.func)
        if not name:
            continue
        root, _, leaf = name.rpartition(".")
        if name.startswith(("numpy.random.", "np.random.")) or name in _NP_RANDOM_ROOTS:
            if leaf in ("default_rng", "Generator", "RandomState") and node.args:
                continue  # seeded construction is fine
            findings.append(Finding(
                "REP002",
                f"`{name}` uses numpy's global/unseeded RNG state; pass an "
                "explicitly seeded generator into the component",
                path, node.lineno, node.col_offset,
            ))
        elif root == "random":
            if leaf == "Random":
                if not node.args and not node.keywords:
                    findings.append(Finding(
                        "REP002",
                        "`random.Random()` without a seed is "
                        "nondeterministic; pass a seed (or fork from "
                        "`sim.fork_rng`)",
                        path, node.lineno, node.col_offset,
                    ))
                continue
            if leaf == "SystemRandom":
                findings.append(Finding(
                    "REP002",
                    "`random.SystemRandom` is inherently nondeterministic",
                    path, node.lineno, node.col_offset,
                ))
                continue
            findings.append(Finding(
                "REP002",
                f"module-level `{name}(...)` draws from the shared global "
                "RNG; draw from a seeded `random.Random` instance",
                path, node.lineno, node.col_offset,
            ))
    return findings


# ----------------------------------------------------------------------
# REP003 — no float equality on clock values
# ----------------------------------------------------------------------

def rep003_no_time_equality(tree: ast.AST, path: str, rpath: str) -> List[Finding]:
    """``==``/``!=`` between simulated-clock floats is a latent bug.

    Clock values are sums of float link delays; two mathematically
    equal instants can differ in the last ulp depending on summation
    order.  Compare with ``<=``/``>=`` or an explicit tolerance.
    Comparisons against ``None``/strings/bools are untouched (those are
    sentinel checks, not arithmetic), and so are comparisons against
    ``pytest.approx(...)`` — that call *is* the tolerance the rule
    asks for.
    """
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        ops = node.ops
        for i, op in enumerate(ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            left, right = operands[i], operands[i + 1]
            pair = (left, right)
            if any(_is_const(side, str, bool) or
                   (isinstance(side, ast.Constant) and side.value is None) or
                   _is_approx_call(side)
                   for side in pair):
                continue
            for side in pair:
                name = dotted(side)
                leaf = name.rpartition(".")[2]
                if leaf and (leaf.lower() in TIME_NAMES
                             or leaf.lower().endswith(TIME_SUFFIXES)):
                    findings.append(Finding(
                        "REP003",
                        f"float equality on clock value `{name}`; use an "
                        "ordering comparison or explicit tolerance",
                        path, node.lineno, node.col_offset,
                    ))
                    break
    return findings


# ----------------------------------------------------------------------
# REP004 — unit-suffix discipline for numeric parameters
# ----------------------------------------------------------------------

def rep004_unit_suffixes(tree: ast.AST, path: str, rpath: str) -> List[Finding]:
    """Float-typed knobs must say their unit in the name.

    Applies to every function in ``core/params.py`` and to ``__init__``
    constructors in the simulator packages.  A parameter with a float
    literal default is a physical quantity (seconds, bytes, bps, ...)
    or an explicitly dimensionless ratio — either way the name must end
    in a recognized suffix (``_s``, ``_bytes``, ``_bps``, ``_gain``,
    ...) or appear in :data:`ALLOW_NAMES`.  Integer defaults are
    exempt: counts are self-describing.
    """
    if package_of(rpath) not in REP004_PACKAGES:
        return []
    check_all_defs = rpath == "repro/core/params.py"
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not check_all_defs and node.name != "__init__":
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        pairs = list(zip(positional[len(positional) - len(args.defaults):],
                         args.defaults))
        pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None]
        for arg, default in pairs:
            if not _is_const(default, float) or isinstance(default.value, bool):
                continue
            if arg.arg in ALLOW_NAMES or arg.arg.endswith(UNIT_SUFFIXES):
                continue
            findings.append(Finding(
                "REP004",
                f"numeric parameter `{arg.arg}` (default {default.value!r}) "
                "lacks a unit suffix "
                "(_s/_ms/_bytes/_bps/_pkts/...); rename or add it to "
                "ALLOW_NAMES in repro/lint/config.py",
                path, arg.lineno, arg.col_offset,
            ))
    return findings


# ----------------------------------------------------------------------
# REP005 — no mutable default arguments
# ----------------------------------------------------------------------

_MUTABLE_CTORS = {"list", "dict", "set", "bytearray", "deque", "defaultdict"}


def rep005_no_mutable_defaults(tree: ast.AST, path: str, rpath: str) -> List[Finding]:
    """A mutable default is shared across every call — state leaks
    between simulations, the exact class of bug this repo cannot
    afford."""
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        defaults = list(args.defaults) + [d for d in args.kw_defaults if d is not None]
        for default in defaults:
            bad = isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and dotted(default.func).rpartition(".")[2] in _MUTABLE_CTORS
            )
            if bad:
                findings.append(Finding(
                    "REP005",
                    "mutable default argument is shared across calls; "
                    "default to None and construct inside the function",
                    path, default.lineno, default.col_offset,
                ))
    return findings


# ----------------------------------------------------------------------
# REP007 — profiler isolation in simulation code
# ----------------------------------------------------------------------

_PROFILE_PACKAGES = ("repro.profile",)


def _is_profiler_leaf(leaf: str) -> bool:
    return (leaf in ("prof", "profiler")
            or leaf.endswith(("_prof", "_profiler")))


def _none_guarded_names(test: ast.AST) -> set:
    """Dotted names *test* proves non-None (``x is not None`` shapes,
    possibly ``and``-joined)."""
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        names: set = set()
        for value in test.values:
            names |= _none_guarded_names(value)
        return names
    if (isinstance(test, ast.Compare) and len(test.ops) == 1
            and isinstance(test.ops[0], ast.IsNot)
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None):
        name = dotted(test.left)
        return {name} if name else set()
    return set()


def rep007_profiler_isolation(tree: ast.AST, path: str, rpath: str) -> List[Finding]:
    """Simulation code may *hold* a profiler but never depend on it.

    The host-side fence has two halves: sim packages must not import
    ``repro.profile`` (the profiler arrives by injection, keeping the
    wall clock out of the dependency graph),
    and every method call on a profiler reference (``self.profiler``,
    ``prof``, ``*_prof``) must sit inside an ``... is not None`` guard
    on that same name — otherwise a disabled simulation would reach
    through a ``None`` or, worse, silently read wall time.
    """
    if not in_sim_scope(rpath):
        return []
    findings: List[Finding] = []

    for node in ast.walk(tree):
        modules: List[str] = []
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        for mod in modules:
            if any(mod == pkg or mod.startswith(pkg + ".")
                   for pkg in _PROFILE_PACKAGES):
                findings.append(Finding(
                    "REP007",
                    f"simulation code imports `{mod}`; profilers are "
                    "injected by the host (hold the reference, never "
                    "import repro.profile)",
                    path, node.lineno, node.col_offset,
                ))

    class _GuardVisitor(ast.NodeVisitor):
        def __init__(self) -> None:
            self.guarded: set = set()

        def visit_If(self, node: ast.If) -> None:
            self.visit(node.test)
            added = _none_guarded_names(node.test) - self.guarded
            self.guarded |= added
            for child in node.body:
                self.visit(child)
            self.guarded -= added
            for child in node.orelse:
                self.visit(child)

        def visit_Call(self, node: ast.Call) -> None:
            func = node.func
            if isinstance(func, ast.Attribute):
                target = dotted(func.value)
                leaf = target.rpartition(".")[2]
                if (target and _is_profiler_leaf(leaf)
                        and target not in self.guarded):
                    findings.append(Finding(
                        "REP007",
                        f"call through profiler reference `{target}` "
                        "outside an `is not None` guard; a disabled "
                        "simulation must never touch the profiler",
                        path, node.lineno, node.col_offset,
                    ))
            self.generic_visit(node)

    _GuardVisitor().visit(tree)
    return findings


# ----------------------------------------------------------------------
# REP008 — no fixed-seed RNG construction in simulation code
# ----------------------------------------------------------------------

def rep008_no_fixed_seed(tree: ast.AST, path: str, rpath: str) -> List[Finding]:
    """Sim code must not bake in ``random.Random(<literal>)``.

    A hard-coded seed looks deterministic but is the *shared-stream*
    footgun: every instance built from the same literal replays the
    same draws, silently correlating loss across links/directions and
    pinning results to a seed no experiment config controls.  (The
    historical ``rng or random.Random(0)`` default in the loss models
    is exactly what this rule now bans.)  Randomness must arrive from
    outside: a caller-supplied ``rng``/seed or ``sim.fork_rng(label)``.
    """
    if not in_sim_scope(rpath):
        return []
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted(node.func)
        if name not in ("random.Random", "Random"):
            continue
        if node.args and _is_const(node.args[0], int, float, str, bytes):
            findings.append(Finding(
                "REP008",
                f"`{name}({node.args[0].value!r})` hard-codes an RNG seed "
                "in simulation code; take an explicit rng/seed parameter "
                "or fork from `sim.fork_rng(label)`",
                path, node.lineno, node.col_offset,
            ))
    return findings


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

RuleFn = Callable[[ast.AST, str, str], List[Finding]]

#: All rules, keyed by stable code.
RULES: Dict[str, RuleFn] = {
    "REP001": rep001_no_wall_clock,
    "REP002": rep002_no_ambient_rng,
    "REP003": rep003_no_time_equality,
    "REP004": rep004_unit_suffixes,
    "REP005": rep005_no_mutable_defaults,
    # REP006 (sim-side telemetry reads the wall clock) is folded into
    # REP001, which fires on every line it did; the code stays reserved.
    "REP007": rep007_profiler_isolation,
    "REP008": rep008_no_fixed_seed,
}

#: Rules suspended for host-side files (:data:`repro.lint.config.HOST_FILES`).
DETERMINISM_RULES = ("REP001", "REP002", "REP003")

RULE_SUMMARIES: Dict[str, str] = {
    "REP001": "no wall-clock reads in simulation code",
    "REP002": "no ambient/unseeded RNG in simulation code",
    "REP003": "no float ==/!= on clock values",
    "REP004": "unit-suffix discipline for numeric parameters",
    "REP005": "no mutable default arguments",
    "REP007": "sim code must hold profilers behind `is not None` guards, "
              "never import repro.profile",
    "REP008": "no hard-coded RNG seeds (`random.Random(<literal>)`) in "
              "simulation code",
}
