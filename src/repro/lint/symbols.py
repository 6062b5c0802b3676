"""Project-wide symbol table for the whole-program simlint passes.

The per-file rules (SIM001–SIM006) see one AST at a time; the
cross-module rules (SIM007–SIM012) need to answer questions like
"what does the name ``execute`` refer to *here*?" or "which dataclass
does this annotation resolve to?".  A :class:`Project` indexes every
module handed to one lint run:

* module-level **definitions** — functions, classes (with their
  methods), and assignments, each addressable by a dotted *qualified
  name* (``repro.core.placement.worst_fit``,
  ``repro.sim.engine.Simulator.step``);
* **imports** — per module, a map from local alias to the qualified
  name it binds (``from .pool import execute as run`` →
  ``run -> repro.runner.pool.execute``), with relative imports resolved
  against the importing module's package;
* **re-export chains** — :meth:`Project.resolve` chases
  ``repro.runner.execute`` through ``repro/runner/__init__.py`` to the
  defining module, so call sites see one canonical name no matter which
  façade they imported from.

Resolution is *best effort and conservative*: a name the table cannot
pin down resolves to ``None`` and downstream rules stay silent rather
than guess.  Files outside a recognisable package root (test fixtures
in a temp directory) are indexed under their file stem so the machinery
— and the rules built on it — work identically in fixture tests.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

from .context import FileContext

__all__ = [
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "Project",
    "build_project",
]

#: Cap on import-chain hops when canonicalising re-exports; real chains
#: are 1–2 deep, the cap only guards against pathological cycles.
_MAX_CHASE = 8


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method definition."""

    qualname: str
    module: str
    name: str
    node: "ast.FunctionDef | ast.AsyncFunctionDef"
    #: Owning class name for methods, ``None`` for top-level functions.
    cls: Optional[str] = None


@dataclass
class ClassInfo:
    """One class definition with its directly-defined methods."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)

    def is_dataclass(self) -> bool:
        """Whether the class carries a ``@dataclass`` decorator."""
        for dec in self.node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            name = _terminal(target)
            if name == "dataclass":
                return True
        return False

    def dataclass_fields(self) -> Tuple[str, ...]:
        """Field names of a dataclass body (annotated assignments),
        excluding ``ClassVar``s — in declaration order."""
        fields: list[str] = []
        for stmt in self.node.body:
            if not isinstance(stmt, ast.AnnAssign):
                continue
            if not isinstance(stmt.target, ast.Name):
                continue
            annotation = ast.unparse(stmt.annotation)
            if "ClassVar" in annotation:
                continue
            fields.append(stmt.target.id)
        return tuple(fields)


@dataclass
class ModuleInfo:
    """Everything the table knows about one module."""

    name: str
    ctx: FileContext
    #: local alias -> qualified target name.
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: module-level assignment: name -> its value expression (the last
    #: binding in source order wins, matching runtime semantics).
    assigns: Dict[str, ast.expr] = field(default_factory=dict)

    @property
    def path(self) -> str:
        return self.ctx.path

    def defines(self, name: str) -> bool:
        """Whether ``name`` is bound at module level (def/class/assign)."""
        return (name in self.functions or name in self.classes
                or name in self.assigns)


def _terminal(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _module_package(module: str, *, is_package: bool) -> str:
    """The package a module's relative imports resolve against."""
    if is_package:
        return module
    return module.rsplit(".", 1)[0] if "." in module else ""


def _resolve_relative(package: str, level: int,
                      target: Optional[str]) -> Optional[str]:
    """Absolute module named by ``from <level dots><target> import ...``."""
    if level == 0:
        return target
    parts = package.split(".") if package else []
    # level=1 is the current package; each extra dot climbs one parent.
    if level - 1 > len(parts):
        return None
    base = parts[: len(parts) - (level - 1)]
    if target:
        base.extend(target.split("."))
    return ".".join(base) if base else None


def _index_module(ctx: FileContext) -> ModuleInfo:
    """Build the :class:`ModuleInfo` for one parsed file."""
    is_package = ctx.path.endswith("__init__.py")
    name = ctx.module
    if name is None:
        # Fixture files outside a package root: index by file stem so
        # single-file projects (tests) still resolve local names.
        stem = ctx.path.rsplit("/", 1)[-1]
        name = stem[:-3] if stem.endswith(".py") else stem
    info = ModuleInfo(name=name, ctx=ctx)
    package = _module_package(name, is_package=is_package)

    def index_assign_target(target: ast.expr, value: ast.expr) -> None:
        if isinstance(target, ast.Name):
            info.assigns[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                index_assign_target(element, value)

    def visit(body: list[ast.stmt]) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.functions[node.name] = FunctionInfo(
                    qualname=f"{name}.{node.name}", module=name,
                    name=node.name, node=node)
            elif isinstance(node, ast.ClassDef):
                cls = ClassInfo(qualname=f"{name}.{node.name}",
                                module=name, name=node.name, node=node)
                for stmt in node.body:
                    if isinstance(stmt, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        cls.methods[stmt.name] = FunctionInfo(
                            qualname=f"{cls.qualname}.{stmt.name}",
                            module=name, name=stmt.name, node=stmt,
                            cls=node.name)
                info.classes[node.name] = cls
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    index_assign_target(target, node.value)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                index_assign_target(node.target, node.value)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else \
                        alias.name.split(".")[0]
                    info.imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = _resolve_relative(package, node.level, node.module)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue  # cannot track what a star drags in
                    local = alias.asname or alias.name
                    info.imports[local] = f"{base}.{alias.name}"
            elif isinstance(node, ast.If):
                # TYPE_CHECKING / version guards: both arms bind names.
                visit(node.body)
                visit(node.orelse)
            elif isinstance(node, ast.Try):
                visit(node.body)
                for handler in node.handlers:
                    visit(handler.body)
                visit(node.orelse)
                visit(node.finalbody)

    visit(ctx.tree.body)
    return info


class Project:
    """The indexed modules of one lint run, with name resolution."""

    def __init__(self, modules: Dict[str, ModuleInfo]) -> None:
        self.modules = modules
        #: Every function and method in the project, by qualified name.
        self.functions: Dict[str, FunctionInfo] = {}
        for info in modules.values():
            self.functions.update(
                (f.qualname, f) for f in info.functions.values())
            for cls in info.classes.values():
                self.functions.update(
                    (m.qualname, m) for m in cls.methods.values())

    # -- lookup ------------------------------------------------------------

    def module_of(self, path: str) -> Optional[ModuleInfo]:
        """The module indexed from ``path`` (exact string match)."""
        for info in self.modules.values():
            if info.path == path:
                return info
        return None

    def function(self, qualname: str) -> Optional[FunctionInfo]:
        return self.functions.get(qualname)

    def class_named(self, qualname: str) -> Optional[ClassInfo]:
        """The class at ``qualname`` (``module.Class``), if indexed."""
        module, _, leaf = qualname.rpartition(".")
        info = self.modules.get(module)
        if info is not None and leaf in info.classes:
            return info.classes[leaf]
        return None

    def module_value(self, qualname: str) -> Optional[ast.expr]:
        """The value expression of a module-level assignment."""
        module, _, leaf = qualname.rpartition(".")
        info = self.modules.get(module)
        if info is not None:
            return info.assigns.get(leaf)
        return None

    # -- resolution --------------------------------------------------------

    def _canonical(self, qualified: str) -> str:
        """Chase re-export chains to the defining module."""
        for _ in range(_MAX_CHASE):
            module, _, leaf = qualified.rpartition(".")
            if not module:
                return qualified
            info = self.modules.get(module)
            if info is None:
                return qualified
            if info.defines(leaf):
                return qualified
            target = info.imports.get(leaf)
            if target is None or target == qualified:
                return qualified
            qualified = target
        return qualified

    def resolve(self, module: str, dotted: str) -> Optional[str]:
        """The qualified name ``dotted`` denotes inside ``module``.

        Handles local definitions, import aliases (including modules
        imported whole: ``pool.execute`` with ``import pool``), and
        re-export chains.  Returns ``None`` when the head of the chain
        is not a module-level binding the table knows about — e.g. a
        function-local variable.
        """
        info = self.modules.get(module)
        if info is None:
            return None
        head, _, rest = dotted.partition(".")
        if info.defines(head) or head in info.functions:
            base = f"{module}.{head}"
        elif head in info.imports:
            base = info.imports[head]
        else:
            return None
        qualified = f"{base}.{rest}" if rest else base
        return self._canonical(qualified)


def build_project(contexts: Iterable[FileContext]) -> Project:
    """Index ``contexts`` into a :class:`Project` (sorted by module)."""
    modules: Dict[str, ModuleInfo] = {}
    for ctx in sorted(contexts, key=lambda c: c.path):
        info = _index_module(ctx)
        modules[info.name] = info
    return Project(modules)
