"""Per-function lock summaries over a light, flow-insensitive type model.

This is the data layer of the interprocedural concurrency rules
(RPR009–RPR011).  For every function in a :class:`ProjectContext` it
produces a :class:`FunctionSummary` recording

* which registered locks the function **acquires** (``with self._lock:``
  and the ``# repro: locked[_lock]`` entry annotation), and which locks
  were already held at each acquisition;
* every **call site** that resolves to another project function, with
  the locks held at the call;
* every **blocking operation** (pipe ``send``/``recv``/``poll``,
  ``Future.result``, ``queue.get/put``, ``time.sleep``,
  ``os.sched_yield``, subprocess, file I/O, …) with the locks held when
  it runs.

Locks have whole-program identity (:class:`LockId` — owning class +
attribute), seeded by the ``# guarded-by:`` registries RPR003 already
maintains plus ``self._x = threading.Lock()`` constructor assignments.

Call resolution rides on a deliberately small type model: parameter and
attribute annotations, ``self.x = ClassName(...)`` constructor
inference, method return annotations, and list/dict element types — all
resolved through each module's alias-aware :class:`ImportMap`, including
re-exports through package ``__init__`` modules.  The model is
flow-insensitive and unsound by design (a linter, not a verifier): what
it cannot resolve it drops, so imprecision surfaces as *missed* edges —
which the runtime witness (:mod:`repro.analysis.witness`) is built to
catch — never as crashes.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.base import ModuleContext
from repro.analysis.project import ProjectContext, module_name_for
from repro.analysis.rules.locks import parse_registry

__all__ = [
    "BlockingOp",
    "CallSite",
    "ClassInfo",
    "FunctionSummary",
    "LockAcquisition",
    "LockId",
    "ProjectIndex",
    "project_index",
]

_LOCKED_RE = re.compile(r"#\s*repro:\s*locked\[(\w+)\]")

#: Stdlib constructors whose instances carry blocking-relevant methods.
#: Values are the canonical tags used by :class:`TypeRef` ``stdlib`` kind.
_CANONICAL_TYPES: dict[str, str] = {
    "concurrent.futures.Future": "future",
    "asyncio.Future": "future",
    "threading.Thread": "thread",
    "multiprocessing.Process": "thread",
    "multiprocessing.context.SpawnProcess": "thread",
    "multiprocessing.context.Process": "thread",
    "threading.Event": "event",
    "threading.Condition": "event",
    "queue.Queue": "queue",
    "queue.LifoQueue": "queue",
    "queue.PriorityQueue": "queue",
    "queue.SimpleQueue": "queue",
    "multiprocessing.Queue": "queue",
    "asyncio.Queue": "async-queue",
    "multiprocessing.connection.Connection": "connection",
    "multiprocessing.connection.PipeConnection": "connection",
}

#: Calls that return a Future regardless of annotations.
_FUTURE_FACTORIES = {
    "asyncio.run_coroutine_threadsafe",
}

#: Fully qualified callables that block the calling thread.  Exact names
#: map to a blocking kind; the ``_BLOCKING_PREFIXES`` entries match any
#: attribute underneath.
_BLOCKING_QUALIFIED: dict[str, str] = {
    "time.sleep": "sleep",
    "os.sched_yield": "sleep",
    "os.system": "subprocess",
    "os.popen": "subprocess",
    "select.select": "pipe",
    "concurrent.futures.wait": "future-wait",
    "shutil.rmtree": "file-io",
    "shutil.copy": "file-io",
    "shutil.copy2": "file-io",
    "shutil.copytree": "file-io",
    "shutil.move": "file-io",
    "tempfile.mkdtemp": "file-io",
    "tempfile.mkstemp": "file-io",
    "tempfile.TemporaryDirectory": "file-io",
    "tempfile.NamedTemporaryFile": "file-io",
    "numpy.load": "file-io",
    "numpy.save": "file-io",
    "numpy.savez": "file-io",
    "numpy.savez_compressed": "file-io",
    "numpy.loadtxt": "file-io",
    "numpy.savetxt": "file-io",
}

_BLOCKING_PREFIXES: dict[str, str] = {
    "subprocess.": "subprocess",
    "socket.": "socket",
}

#: Method names that block on any receiver that is not a resolvable
#: project object (pipe endpoints are rarely annotated at call sites).
_PIPE_METHODS = {"recv", "recv_bytes", "send", "send_bytes", "poll"}

#: Path / file-handle methods that hit the filesystem.
_PATH_IO_METHODS = {"read_text", "write_text", "read_bytes", "write_bytes"}

_LOCK_CONSTRUCTORS = {"threading.Lock", "threading.RLock"}

_FUTUREISH_NAME_RE = re.compile(r"fut", re.IGNORECASE)


# ---------------------------------------------------------------------------
# identities and summary records


@dataclass(frozen=True, order=True)
class LockId:
    """Whole-program identity of one registered lock."""

    cls: str  #: qualified owning class, e.g. ``repro.serving.cache.CountSeriesCache``
    attr: str  #: lock attribute, e.g. ``_lock``

    def __str__(self) -> str:
        return f"{self.cls.rsplit('.', 1)[-1]}.{self.attr}"

    @property
    def qualified(self) -> str:
        return f"{self.cls}.{self.attr}"


@dataclass(frozen=True)
class TypeRef:
    """A resolved type: a project class, a canonical stdlib type, or a
    container of either."""

    kind: str  #: ``class`` | ``stdlib`` | ``list`` | ``dict``
    qual: str = ""
    elem: "TypeRef | None" = None


@dataclass(frozen=True)
class LockAcquisition:
    lock: LockId
    line: int
    held: frozenset[LockId]


@dataclass(frozen=True)
class CallSite:
    targets: tuple[str, ...]  #: qualified project functions this may reach
    line: int
    held: frozenset[LockId]
    desc: str


@dataclass(frozen=True)
class BlockingOp:
    kind: str
    desc: str
    line: int
    held: frozenset[LockId]


@dataclass
class FunctionSummary:
    qual: str
    module: str
    path: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    cls: str | None = None
    is_async: bool = False
    entry_locks: frozenset[LockId] = frozenset()
    returns: TypeRef | None = None
    acquisitions: list[LockAcquisition] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)
    blocking: list[BlockingOp] = field(default_factory=list)


@dataclass
class ClassInfo:
    qual: str
    module: str
    path: str
    node: ast.ClassDef
    bases: list[str] = field(default_factory=list)
    registry: dict[str, str] = field(default_factory=dict)  #: attr -> lock
    locks: dict[str, int] = field(default_factory=dict)  #: lock attr -> decl line
    attr_types: dict[str, TypeRef] = field(default_factory=dict)
    prop_types: dict[str, TypeRef] = field(default_factory=dict)
    methods: dict[str, str] = field(default_factory=dict)  #: name -> function qual


# ---------------------------------------------------------------------------
# the index


@dataclass
class ProjectIndex:
    """All classes, functions, and locks of one project, summarized."""

    classes: dict[str, ClassInfo] = field(default_factory=dict)
    functions: dict[str, FunctionSummary] = field(default_factory=dict)
    #: ``(module path, line) -> lock`` for every lock declaration site —
    #: how the runtime witness names the locks it instruments.
    lock_sites: dict[tuple[str, int], LockId] = field(default_factory=dict)
    #: lock attribute -> owning class quals (fallback resolution when the
    #: receiver's type is unknown but the attribute is unambiguous).
    lock_owners: dict[str, list[str]] = field(default_factory=dict)
    _class_memo: dict[str, str | None] = field(default_factory=dict, repr=False)

    # -- lookup helpers -------------------------------------------------
    def canonical_class(self, qual: str | None) -> str | None:
        """Resolve ``qual`` to a registered class, following re-exports
        through package ``__init__`` alias tables."""
        if qual is None:
            return None
        if qual in self.classes:
            return qual
        return self._class_memo.setdefault(qual, self._chase(qual, depth=0))

    def _chase(self, qual: str, depth: int) -> str | None:
        if depth > 4:
            return None
        module, _, name = qual.rpartition(".")
        ctx = self._module_ctx_by_name.get(module) if module else None
        if ctx is None:
            return None
        target = ctx.imports.aliases.get(name)
        if target is None:
            return None
        if target in self.classes:
            return target
        return self._chase(target, depth + 1)

    _module_ctx_by_name: dict[str, ModuleContext] = field(
        default_factory=dict, repr=False
    )

    def mro(self, cls_qual: str) -> Iterator[ClassInfo]:
        """``cls`` and its project base classes, nearest first."""
        seen: set[str] = set()
        stack = [cls_qual]
        while stack:
            qual = stack.pop(0)
            if qual in seen:
                continue
            seen.add(qual)
            info = self.classes.get(qual)
            if info is None:
                continue
            yield info
            stack.extend(info.bases)

    def method(self, cls_qual: str, name: str) -> FunctionSummary | None:
        for info in self.mro(cls_qual):
            qual = info.methods.get(name)
            if qual is not None:
                return self.functions.get(qual)
        return None

    def attr_type(self, cls_qual: str, attr: str) -> TypeRef | None:
        for info in self.mro(cls_qual):
            ref = info.attr_types.get(attr) or info.prop_types.get(attr)
            if ref is not None:
                return ref
        return None

    def lock_for(self, cls_qual: str, attr: str) -> LockId | None:
        for info in self.mro(cls_qual):
            if attr in info.locks:
                return LockId(info.qual, attr)
        return None


def project_index(project: ProjectContext) -> ProjectIndex:
    """Build (and memoize on ``project``) the summary index."""
    cached = project._index_cache
    if isinstance(cached, ProjectIndex):
        return cached
    index = _Builder(project).build()
    project._index_cache = index
    return index


# ---------------------------------------------------------------------------
# construction


def _walk_no_nested(root: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that does not descend into nested defs/classes."""
    stack: list[ast.AST] = [root]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
            ):
                continue
            stack.append(child)


class _Builder:
    def __init__(self, project: ProjectContext) -> None:
        self.project = project
        self.index = ProjectIndex()
        self.index._module_ctx_by_name = dict(project.modules)

    def build(self) -> ProjectIndex:
        for modname, ctx in self.project.modules.items():
            self._register_module(modname, ctx)
        for info in list(self.index.classes.values()):
            self._resolve_class(info)
        for summary in self.index.functions.values():
            if summary.cls is None:
                mctx = self.project.modules.get(summary.module)
                if mctx is not None:
                    summary.returns = _Resolver(self, mctx, None, {}).annotation(
                        summary.node.returns
                    )
        for summary in self.index.functions.values():
            self._summarize(summary)
        return self.index

    # -- pass A: registration ------------------------------------------
    def _register_module(self, modname: str, ctx: ModuleContext) -> None:
        for node in ctx.tree.body:
            if isinstance(node, ast.ClassDef):
                self._register_class(modname, ctx, node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{modname}.{node.name}"
                self.index.functions[qual] = FunctionSummary(
                    qual=qual,
                    module=modname,
                    path=ctx.path,
                    node=node,
                    is_async=isinstance(node, ast.AsyncFunctionDef),
                )

    def _register_class(
        self, modname: str, ctx: ModuleContext, node: ast.ClassDef
    ) -> None:
        qual = f"{modname}.{node.name}"
        info = ClassInfo(
            qual=qual,
            module=modname,
            path=ctx.path,
            node=node,
            registry=parse_registry(ast.get_docstring(node)),
        )
        self.index.classes[qual] = info
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fqual = f"{qual}.{item.name}"
                info.methods[item.name] = fqual
                self.index.functions[fqual] = FunctionSummary(
                    qual=fqual,
                    module=modname,
                    path=ctx.path,
                    node=item,
                    cls=qual,
                    is_async=isinstance(item, ast.AsyncFunctionDef),
                )
        self._collect_locks(ctx, info)

    def _collect_locks(self, ctx: ModuleContext, info: ClassInfo) -> None:
        def declare(attr: str, line: int) -> None:
            info.locks.setdefault(attr, line)
            self.index.lock_sites[(info.path, line)] = LockId(info.qual, attr)

        # Registry locks first (they may have no visible constructor).
        for lock in set(info.registry.values()):
            info.locks.setdefault(lock, info.node.lineno)
        for item in info.node.body:
            # dataclass-style: ``_lock: threading.Lock = field(...)``
            if isinstance(item, ast.AnnAssign) and isinstance(
                item.target, ast.Name
            ):
                ann = ctx.imports.resolve(item.annotation)
                if ann in _LOCK_CONSTRUCTORS:
                    declare(item.target.id, item.lineno)
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in _walk_no_nested_in_method(item):
                if not isinstance(node, ast.Assign):
                    continue
                if not (
                    isinstance(node.value, ast.Call)
                    and ctx.imports.resolve(node.value.func) in _LOCK_CONSTRUCTORS
                ):
                    continue
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        declare(target.attr, node.lineno)
        for lock in info.locks:
            self.index.lock_owners.setdefault(lock, [])
            if info.qual not in self.index.lock_owners[lock]:
                self.index.lock_owners[lock].append(info.qual)

    # -- pass B: types -------------------------------------------------
    def _resolve_class(self, info: ClassInfo) -> None:
        ctx = self.project.modules[info.module]
        for base in info.node.bases:
            qual = self._name_to_class(base, ctx)
            if qual is not None:
                info.bases.append(qual)
        resolver = _Resolver(self, ctx, info.qual, env={})
        for item in info.node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            summary = self.index.functions[f"{info.qual}.{item.name}"]
            summary.returns = resolver.annotation(item.returns)
            if any(
                isinstance(d, ast.Name) and d.id == "property"
                for d in item.decorator_list
            ) and summary.returns is not None:
                info.prop_types[item.name] = summary.returns
            env = resolver.param_env(item)
            for node in _walk_no_nested_in_method(item):
                target: ast.expr | None = None
                value: ast.expr | None = None
                ann: ast.expr | None = None
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                elif isinstance(node, ast.AnnAssign):
                    target, value, ann = node.target, node.value, node.annotation
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                ref = (
                    resolver.annotation(ann)
                    if ann is not None
                    else _Resolver(self, ctx, info.qual, env).infer(value)
                    if value is not None
                    else None
                )
                if ref is not None and target.attr not in info.attr_types:
                    info.attr_types[target.attr] = ref

    def _name_to_class(self, node: ast.expr, ctx: ModuleContext) -> str | None:
        modname = module_name_for(ctx.path)
        if isinstance(node, ast.Name):
            local = f"{modname}.{node.id}"
            if local in self.index.classes:
                return local
        return self.index.canonical_class(ctx.imports.resolve(node))

    # -- pass C: summaries ---------------------------------------------
    def _summarize(self, summary: FunctionSummary) -> None:
        ctx = self.project.modules.get(summary.module)
        if ctx is None:  # pragma: no cover - modules and functions co-move
            return
        summary.entry_locks = self._entry_locks(ctx, summary)
        resolver = _Resolver(self, ctx, summary.cls, env={})
        resolver.env = resolver.build_env(summary.node)
        scanner = _SummaryScanner(summary, resolver)
        scanner.scan_block(summary.node.body, set(summary.entry_locks))

    def _entry_locks(
        self, ctx: ModuleContext, summary: FunctionSummary
    ) -> frozenset[LockId]:
        if summary.cls is None:
            return frozenset()
        line = ctx.line_at(summary.node.lineno)
        locks = set()
        for attr in _LOCKED_RE.findall(line):
            lock = self.index.lock_for(summary.cls, attr)
            if lock is not None:
                locks.add(lock)
        return frozenset(locks)


def _walk_no_nested_in_method(item: ast.AST) -> Iterator[ast.AST]:
    for child in ast.iter_child_nodes(item):
        yield from _walk_no_nested(child)


# ---------------------------------------------------------------------------
# type inference


class _Resolver:
    """Flow-insensitive expression typing for one function body."""

    def __init__(
        self,
        builder: _Builder,
        ctx: ModuleContext,
        cls: str | None,
        env: dict[str, TypeRef],
    ) -> None:
        self.builder = builder
        self.index = builder.index
        self.ctx = ctx
        self.cls = cls
        self.env = env
        self.modname = module_name_for(ctx.path)

    # -- environments ---------------------------------------------------
    def param_env(
        self, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> dict[str, TypeRef]:
        env: dict[str, TypeRef] = {}
        if self.cls is not None:
            env["self"] = TypeRef("class", self.cls)
        args = func.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            ref = self.annotation(arg.annotation)
            if ref is not None:
                env[arg.arg] = ref
        return env

    def build_env(
        self, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> dict[str, TypeRef]:
        env = self.param_env(func)
        self.env = env
        # Two passes so simple chains (``pool = self.pool`` then
        # ``client = pool.worker(i)``) settle.
        for _ in range(2):
            for node in _walk_no_nested_in_method(func):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                    if isinstance(target, ast.Name):
                        ref = self.infer(node.value)
                        if ref is not None:
                            env[target.id] = ref
                elif isinstance(node, ast.AnnAssign) and isinstance(
                    node.target, ast.Name
                ):
                    ref = self.annotation(node.annotation)
                    if ref is not None:
                        env[node.target.id] = ref
                elif isinstance(node, ast.For) and isinstance(
                    node.target, ast.Name
                ):
                    elem = self._elem_of(self.infer(node.iter))
                    if elem is not None:
                        env[node.target.id] = elem
                elif isinstance(node, ast.comprehension) and isinstance(
                    node.target, ast.Name
                ):
                    elem = self._elem_of(self.infer(node.iter))
                    if elem is not None:
                        env[node.target.id] = elem
        return env

    @staticmethod
    def _elem_of(ref: TypeRef | None) -> TypeRef | None:
        if ref is not None and ref.kind in ("list", "dict"):
            return ref.elem
        return None

    # -- annotations ----------------------------------------------------
    def annotation(self, node: ast.expr | None) -> TypeRef | None:
        if node is None:
            return None
        if isinstance(node, ast.Constant):
            if isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval").body
                except SyntaxError:
                    return None
                return self.annotation(parsed)
            return None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            return self.annotation(node.left) or self.annotation(node.right)
        if isinstance(node, ast.Subscript):
            head = self.ctx.imports.resolve(node.value)
            name = head or (
                node.value.id if isinstance(node.value, ast.Name) else ""
            )
            short = name.rsplit(".", 1)[-1]
            if short in ("Optional",):
                return self.annotation(node.slice)
            if short in ("Union",):
                if isinstance(node.slice, ast.Tuple):
                    for elt in node.slice.elts:
                        ref = self.annotation(elt)
                        if ref is not None:
                            return ref
                return self.annotation(node.slice)
            if short in ("dict", "Dict", "Mapping", "MutableMapping"):
                if isinstance(node.slice, ast.Tuple) and len(node.slice.elts) == 2:
                    return TypeRef("dict", elem=self.annotation(node.slice.elts[1]))
                return TypeRef("dict")
            if short in (
                "list", "List", "set", "Set", "frozenset", "FrozenSet",
                "tuple", "Tuple", "Sequence", "Iterable", "Iterator",
            ):
                elt: ast.expr | None = node.slice
                if isinstance(node.slice, ast.Tuple) and node.slice.elts:
                    elt = node.slice.elts[0]
                return TypeRef("list", elem=self.annotation(elt))
            # Parameterized class, e.g. ``asyncio.Queue[Entry]``.
            return self._class_ref(node.value)
        return self._class_ref(node)

    def _class_ref(self, node: ast.expr) -> TypeRef | None:
        if isinstance(node, ast.Name):
            local = f"{self.modname}.{node.id}"
            if local in self.index.classes:
                return TypeRef("class", local)
        qual = self.ctx.imports.resolve(node)
        project = self.index.canonical_class(qual)
        if project is not None:
            return TypeRef("class", project)
        if qual in _CANONICAL_TYPES:
            return TypeRef("stdlib", _CANONICAL_TYPES[qual])
        return None

    # -- expressions ----------------------------------------------------
    def infer(self, node: ast.expr | None) -> TypeRef | None:
        if node is None:
            return None
        if isinstance(node, ast.Name):
            return self.env.get(node.id)
        if isinstance(node, ast.Await):
            return self.infer(node.value)
        if isinstance(node, ast.Attribute):
            base = self.infer(node.value)
            if base is not None and base.kind == "class":
                return self.index.attr_type(base.qual, node.attr)
            return None
        if isinstance(node, ast.Call):
            _, ret = self.resolve_call(node)
            return ret
        if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or):
            for value in node.values:
                ref = self.infer(value)
                if ref is not None:
                    return ref
            return None
        if isinstance(node, ast.IfExp):
            return self.infer(node.body) or self.infer(node.orelse)
        if isinstance(node, (ast.List, ast.Set, ast.Tuple)):
            elem = self.infer(node.elts[0]) if node.elts else None
            return TypeRef("list", elem=elem)
        if isinstance(node, ast.ListComp) or isinstance(node, ast.GeneratorExp):
            return TypeRef("list", elem=self.infer(node.elt))
        if isinstance(node, ast.SetComp):
            return TypeRef("list", elem=self.infer(node.elt))
        if isinstance(node, ast.Dict):
            elem = self.infer(node.values[0]) if node.values else None
            return TypeRef("dict", elem=elem)
        if isinstance(node, ast.DictComp):
            return TypeRef("dict", elem=self.infer(node.value))
        if isinstance(node, ast.Subscript):
            return self._elem_of(self.infer(node.value))
        if isinstance(node, ast.NamedExpr):
            return self.infer(node.value)
        return None

    # -- calls -----------------------------------------------------------
    def resolve_call(
        self, call: ast.Call
    ) -> tuple[tuple[str, ...], TypeRef | None]:
        """(project function targets, inferred return type) of ``call``."""
        func = call.func
        qual = self.ctx.imports.resolve(func)
        if qual is not None:
            resolved = self._qualified_call(qual)
            if resolved is not None:
                return resolved
        if isinstance(func, ast.Name):
            local = f"{self.modname}.{func.id}"
            if local in self.index.classes:
                return self._constructor(local)
            summary = self.index.functions.get(local)
            if summary is not None:
                return (local,), summary.returns
            return (), None
        if isinstance(func, ast.Attribute):
            base = self.infer(func.value)
            if base is not None and base.kind == "class":
                method = self.index.method(base.qual, func.attr)
                if method is not None:
                    return (method.qual,), method.returns
                return (), None
            if base is not None and base.kind == "dict" and func.attr == "values":
                return (), TypeRef("list", elem=base.elem)
            if base is not None and base.kind == "dict" and func.attr == "get":
                return (), base.elem
        return (), None

    def _qualified_call(
        self, qual: str
    ) -> tuple[tuple[str, ...], TypeRef | None] | None:
        project = self.index.canonical_class(qual)
        if project is not None:
            return self._constructor(project)
        summary = self.index.functions.get(qual)
        if summary is not None:
            return (qual,), summary.returns
        # ``Class.method`` / re-exported function references.
        head, _, tail = qual.rpartition(".")
        cls = self.index.canonical_class(head)
        if cls is not None:
            method = self.index.method(cls, tail)
            if method is not None:
                return (method.qual,), method.returns
        if qual in _FUTURE_FACTORIES:
            return (), TypeRef("stdlib", "future")
        if qual in _CANONICAL_TYPES:
            return (), TypeRef("stdlib", _CANONICAL_TYPES[qual])
        return None

    def _constructor(self, cls_qual: str) -> tuple[tuple[str, ...], TypeRef]:
        init = self.index.method(cls_qual, "__init__")
        targets = (init.qual,) if init is not None else ()
        return targets, TypeRef("class", cls_qual)


# ---------------------------------------------------------------------------
# summary scanning


class _SummaryScanner:
    """Walk one function body tracking the held-lock set, mirroring the
    lexical model of RPR003 (`with` acquires; nested defs reset)."""

    def __init__(self, summary: FunctionSummary, resolver: _Resolver) -> None:
        self.summary = summary
        self.resolver = resolver
        self.index = resolver.index

    def scan_block(self, statements: list[ast.stmt], held: set[LockId]) -> None:
        for statement in statements:
            self.scan_statement(statement, held)

    def scan_statement(self, statement: ast.stmt, held: set[LockId]) -> None:
        if isinstance(statement, (ast.With, ast.AsyncWith)):
            inner = set(held)
            for item in statement.items:
                self.visit_expression(item.context_expr, inner)
                lock = self.acquired_lock(item.context_expr)
                if lock is not None:
                    self.summary.acquisitions.append(
                        LockAcquisition(
                            lock=lock,
                            line=item.context_expr.lineno,
                            held=frozenset(inner),
                        )
                    )
                    inner.add(lock)
            self.scan_block(statement.body, inner)
            return
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # Closures may outlive the with-block; they also get their own
            # FunctionSummary only when defined at module/class level, so
            # local defs are deliberately out of the call graph.
            return
        for field_name in ("body", "orelse", "finalbody"):
            body = getattr(statement, field_name, None)
            if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
                self.scan_block(body, held)
        for handler in getattr(statement, "handlers", []):
            self.scan_block(handler.body, held)
        for child in ast.iter_child_nodes(statement):
            if isinstance(child, ast.expr):
                self.visit_expression(child, held)

    def visit_expression(self, expression: ast.expr, held: set[LockId]) -> None:
        if isinstance(expression, ast.Lambda):
            return
        if isinstance(expression, ast.Call):
            self.handle_call(expression, held)
        for child in self._child_expressions(expression):
            self.visit_expression(child, held)

    @staticmethod
    def _child_expressions(node: ast.AST) -> Iterator[ast.expr]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                yield child
            elif isinstance(child, (ast.keyword, ast.comprehension)):
                yield from _SummaryScanner._child_expressions(child)

    # -- locks -----------------------------------------------------------
    def acquired_lock(self, context_expr: ast.expr) -> LockId | None:
        if not isinstance(context_expr, ast.Attribute):
            return None
        attr = context_expr.attr
        base = self.resolver.infer(context_expr.value)
        if base is not None and base.kind == "class":
            return self.index.lock_for(base.qual, attr)
        owners = self.index.lock_owners.get(attr, [])
        if len(owners) == 1:
            return LockId(owners[0], attr)
        return None

    # -- calls and blockers ----------------------------------------------
    def handle_call(self, call: ast.Call, held: set[LockId]) -> None:
        targets, _ = self.resolver.resolve_call(call)
        desc = ast.unparse(call.func)
        if targets:
            self.summary.calls.append(
                CallSite(
                    targets=targets,
                    line=call.lineno,
                    held=frozenset(held),
                    desc=desc,
                )
            )
            return
        blocker = self.classify_blocker(call, desc)
        if blocker is not None:
            kind, detail = blocker
            self.summary.blocking.append(
                BlockingOp(
                    kind=kind, desc=detail, line=call.lineno, held=frozenset(held)
                )
            )

    def classify_blocker(
        self, call: ast.Call, desc: str
    ) -> tuple[str, str] | None:
        func = call.func
        qual = self.resolver.ctx.imports.resolve(func)
        if qual is not None:
            kind = _BLOCKING_QUALIFIED.get(qual)
            if kind is None:
                for prefix, prefix_kind in _BLOCKING_PREFIXES.items():
                    if qual.startswith(prefix):
                        kind = prefix_kind
                        break
            if kind is not None:
                return kind, f"{qual}()"
        if isinstance(func, ast.Name):
            if func.id == "open" and "open" not in self.resolver.env:
                return "file-io", "open()"
            return None
        if not isinstance(func, ast.Attribute):
            return None
        attr = func.attr
        receiver = func.value
        base = self.resolver.infer(receiver)
        if base is not None and base.kind == "class":
            # A resolvable project object: its methods are call sites (or
            # unresolvable), never raw blocking primitives.
            return None
        tag = base.qual if base is not None and base.kind == "stdlib" else None
        if attr in _PIPE_METHODS and not isinstance(receiver, ast.Constant):
            if tag is None or tag == "connection":
                return "pipe", f"{desc}()"
        if attr in _PATH_IO_METHODS:
            return "file-io", f"{desc}()"
        if attr == "result":
            if tag == "future" or self._is_futureish(receiver):
                return "future-wait", f"{desc}()"
        if attr == "join" and tag == "thread":
            return "future-wait", f"{desc}()"
        if attr == "wait" and tag == "event":
            return "future-wait", f"{desc}()"
        if attr in ("get", "put") and tag == "queue":
            return "queue", f"{desc}()"
        return None

    def _is_futureish(self, receiver: ast.expr) -> bool:
        """Name-based fallback for untyped future receivers."""
        if isinstance(receiver, ast.Name):
            return bool(_FUTUREISH_NAME_RE.search(receiver.id))
        if isinstance(receiver, ast.Attribute):
            return bool(_FUTUREISH_NAME_RE.search(receiver.attr))
        if isinstance(receiver, ast.Call):
            qual = self.resolver.ctx.imports.resolve(receiver.func)
            return qual in _FUTURE_FACTORIES
        return False
