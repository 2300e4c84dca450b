"""Core of the AST-based linter: findings, rules, and the analyzer.

A :class:`Rule` inspects one parsed module at a time but may consult a
:class:`ProjectContext` built from *all* modules in the run (two-pass
design).  The context records which function names are defined
``async`` anywhere in the project and which private attributes each
module itself defines, so rules can avoid the classic false positives
(a name that exists both sync and async, or a class touching its own
module's private state).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro.analysis.suppressions import Suppressions

#: File basenames treated as test/benchmark code by rules that only
#: apply to library code (e.g. encapsulation checks).
_TEST_PREFIXES = ("test_", "bench_")
_TEST_BASENAMES = {"conftest.py"}


@dataclass(frozen=True, order=True)
class Finding:
    """One lint finding, sortable by location then rule."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        """Format as ``path:line:col: RULE message`` for text output."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass
class ModuleInfo:
    """A parsed source file plus its per-file lint context."""

    path: str
    source: str
    tree: ast.Module
    suppressions: Suppressions

    @property
    def basename(self) -> str:
        """Final path component (e.g. ``chaos.py``)."""
        return Path(self.path).name

    @property
    def is_test_code(self) -> bool:
        """True for test/benchmark/conftest files, where some rules relax."""
        name = self.basename
        return name.startswith(_TEST_PREFIXES) or name in _TEST_BASENAMES


@dataclass
class ProjectContext:
    """Facts gathered across every module in the lint run (pass one).

    ``async_only_names`` holds function names defined ``async def``
    somewhere and *never* defined as a plain ``def`` anywhere — the
    unambiguous set a rule may safely assume is a coroutine function.
    ``private_defs`` maps module path to the private attribute/method
    names that module itself introduces (``self._x = ...`` or class
    body definitions), which in-family code may touch freely.
    """

    async_names: set[str] = field(default_factory=set)
    sync_names: set[str] = field(default_factory=set)
    private_defs: dict[str, set[str]] = field(default_factory=dict)
    #: Every module scanned this run, in order.  Whole-project rules
    #: (the PROTO pack cross-checks sender/handler state machines
    #: against the codec registry) derive their facts from these.
    modules: list[ModuleInfo] = field(default_factory=list)

    @property
    def async_only_names(self) -> set[str]:
        """Names that are coroutine functions everywhere they are defined."""
        return self.async_names - self.sync_names

    def module_privates(self, path: str) -> set[str]:
        """Private names the module at ``path`` defines for itself."""
        return self.private_defs.get(path, set())

    def scan(self, module: ModuleInfo) -> None:
        """Accumulate project facts from one parsed module."""
        self.modules.append(module)
        privates = self.private_defs.setdefault(module.path, set())
        for node in ast.walk(module.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                self.async_names.add(node.name)
            elif isinstance(node, ast.FunctionDef):
                self.sync_names.add(node.name)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_"):
                    privates.add(node.name)
            elif isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    for name in _assigned_names(stmt):
                        if name.startswith("_"):
                            privates.add(name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for attr in _self_attr_targets(node):
                    if attr.startswith("_"):
                        privates.add(attr)


def _assigned_names(stmt: ast.stmt) -> Iterator[str]:
    """Yield plain names bound by a class-body assignment statement."""
    targets: list[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    for target in targets:
        if isinstance(target, ast.Name):
            yield target.id


def _self_attr_targets(node: ast.Assign | ast.AnnAssign) -> Iterator[str]:
    """Yield attribute names assigned on ``self`` by ``node``."""
    targets: list[ast.expr]
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    else:
        targets = [node.target]
    for target in targets:
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            yield target.attr


class Rule:
    """Base class for lint rules; subclasses set ``id`` and ``summary``.

    Subclasses implement :meth:`check`, yielding :class:`Finding`
    objects for one module.  Suppression handling is applied by the
    analyzer afterwards, so rules never need to look at comments.
    """

    id: str = ""
    summary: str = ""

    def check(
        self, module: ModuleInfo, project: ProjectContext
    ) -> Iterator[Finding]:
        """Yield findings for ``module``; default implementation is empty."""
        return iter(())

    def finding(self, module: ModuleInfo, node: ast.AST, message: str) -> Finding:
        """Build a :class:`Finding` anchored at ``node``."""
        return Finding(
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.id,
            message=message,
        )


_REGISTRY: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a :class:`Rule` subclass to the registry."""
    if not cls.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if cls.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.id}")
    _REGISTRY[cls.id] = cls
    return cls


def all_rules() -> list[Rule]:
    """Instantiate every registered rule, importing the rule packs."""
    # Imported here so the registry is populated on first use without
    # circular imports at module load time.
    from repro.analysis import (  # noqa: F401
        rules_asy,
        rules_det,
        rules_inv,
        rules_perf,
        rules_proto,
    )

    return [cls() for __, cls in sorted(_REGISTRY.items())]


def dotted_name(node: ast.expr) -> str | None:
    """Return ``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class Analyzer:
    """Runs the registered rules over files or in-memory sources."""

    def __init__(self, rules: Iterable[Rule] | None = None) -> None:
        """Use ``rules`` if given, otherwise every registered rule."""
        self.rules = list(rules) if rules is not None else all_rules()

    def analyze_sources(self, sources: dict[str, str]) -> list[Finding]:
        """Lint a mapping of ``{path: source}`` (used by tests and the CLI)."""
        modules: list[ModuleInfo] = []
        findings: list[Finding] = []
        for path, source in sorted(sources.items()):
            try:
                tree = ast.parse(source, filename=path)
            except SyntaxError as exc:
                findings.append(
                    Finding(
                        path=path,
                        line=exc.lineno or 1,
                        col=(exc.offset or 1),
                        rule="E999",
                        message=f"syntax error: {exc.msg}",
                    )
                )
                continue
            modules.append(
                ModuleInfo(
                    path=path,
                    source=source,
                    tree=tree,
                    suppressions=Suppressions.from_source(source),
                )
            )
        project = ProjectContext()
        for module in modules:
            project.scan(module)
        for module in modules:
            for rule in self.rules:
                for finding in rule.check(module, project):
                    if not module.suppressions.is_suppressed(
                        finding.rule, finding.line
                    ):
                        findings.append(finding)
        return sorted(findings)

    def analyze_paths(self, paths: Iterable[str | Path]) -> list[Finding]:
        """Lint every ``*.py`` file under the given files/directories."""
        sources: dict[str, str] = {}
        for path in paths:
            for file in sorted(_iter_py_files(Path(path))):
                sources[str(file)] = file.read_text(encoding="utf-8")
        return self.analyze_sources(sources)


def _iter_py_files(root: Path) -> Iterator[Path]:
    """Yield ``root`` itself if a ``.py`` file, else its ``.py`` descendants."""
    if root.is_file():
        if root.suffix == ".py":
            yield root
        return
    for file in root.rglob("*.py"):
        if "__pycache__" not in file.parts:
            yield file


def analyze_paths(
    paths: Iterable[str | Path], rules: Iterable[Rule] | None = None
) -> list[Finding]:
    """Convenience wrapper: lint paths with the full (or given) rule set."""
    return Analyzer(rules).analyze_paths(paths)


def analyze_sources(
    sources: dict[str, str], rules: Iterable[Rule] | None = None
) -> list[Finding]:
    """Convenience wrapper: lint in-memory sources."""
    return Analyzer(rules).analyze_sources(sources)


def walk_functions(
    tree: ast.Module,
) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    """Yield every (async) function definition in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def call_filter(
    tree: ast.AST, predicate: Callable[[ast.Call], bool]
) -> Iterator[ast.Call]:
    """Yield calls in ``tree`` matching ``predicate``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and predicate(node):
            yield node
