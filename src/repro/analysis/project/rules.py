"""The cross-module rules: serving protocols, machine-checked.

Every rule subclasses :class:`ProjectRule` and registers in
:data:`PROJECT_RULES` — a registry deliberately separate from the
per-file :data:`repro.analysis.rules.RULES` so each family keeps its
own construction signature (one runs per module, the other per
project).

Rule codes
----------
EPOCH001
    Revalidation dominance.  In a class that defines or inherits a
    revalidator (``_revalidate``/``sync``), every cache read
    (``self.cache.lookup``/``.get``) must be dominated by a
    revalidator call on every path.  Interprocedural within the
    class: a private method whose reads are not locally dominated
    must itself be dominated at each call site.  Additionally, anywhere in the
    EPOCH001 packages (which include ``repro.tuning``), storing a
    published-summary attribute on a receiver other than ``self``
    (``hist.buckets = ...``) is a finding: it swaps the summary
    without the owner's atomic epoch bump, so a consumer can serve
    the new buckets against a stale epoch — mutations must publish
    through ``replace_buckets()``.
PICKLE001
    Worker-payload pickling.  A class reachable as an argument to a
    pickle boundary (``ShardWorkerPool``, ``parallel_map``,
    ``ProcessPoolExecutor``, ``pickle.dumps``) — directly or through
    held attributes — that holds id()-keyed dicts, locks, executors
    or generators must define a ``__getstate__``/``__setstate__``
    pair.  Defining exactly one of the pair is a finding for *every*
    class: a one-sided hook silently resurrects stale state (the PR 6
    bug class).
SEED001
    Interprocedural seed threading, escalating DET001.  An RNG
    construction must take its seed from a parameter or a literal,
    never a module-level global; seed parameters are traced up call
    edges, and a call site that leaves a seed parameter at its
    ``None`` default (or passes ``None``) relies on an unseeded RNG.
ORDER001
    Iteration order.  Inside the kernel packages, iterating a
    ``set``/``frozenset`` (or a set-algebra result over dict views)
    into a float accumulation makes the sum order — and therefore the
    last ulp — depend on hash seeds.  Iterate ``sorted(...)`` instead.
RES002
    Deadline-dominated IPC.  A blocking pipe read
    (``recv``/``recv_bytes``/``poll``) in the serving package must be
    dominated by a deadline check (``.check()``) on every path — the
    same dominance machinery as EPOCH001 — so a worker process that
    dies mid-reply exhausts a logical budget instead of hanging the
    serve.  Worker-side idle loops are exempt by name; their
    supervisor kills them.
SUP001
    Suppression hygiene: a ``# repro: noqa[RULE]`` comment that
    matches no finding on its line is itself a finding (computed
    against the *raw*, pre-suppression finding set of every rule,
    file-level and project-level).
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, \
    Set, Tuple, Type

from ..config import LintConfig
from ..diagnostics import Violation
from ..engine import ModuleContext, iter_suppression_comments
from .callgraph import CallGraph, calls_in, infer_expr_class, \
    local_class_env
from .dominance import EVENT_READ, EVENT_REVALIDATE, undominated_reads
from .loader import EXECUTOR_FACTORIES
from .model import ClassInfo, FunctionInfo, Project

__all__ = [
    "PROJECT_RULES",
    "ProjectRule",
    "register_project",
    "unused_suppression_violations",
]

#: Registry of every cross-module rule, keyed by code.
PROJECT_RULES: Dict[str, Type["ProjectRule"]] = {}


def register_project(
    rule_class: Type["ProjectRule"],
) -> Type["ProjectRule"]:
    """Class decorator adding a rule to :data:`PROJECT_RULES`."""
    code = rule_class.code
    if not code or code in PROJECT_RULES:
        raise ValueError(f"duplicate or empty rule code: {code!r}")
    PROJECT_RULES[code] = rule_class
    return rule_class


class ProjectRule:
    """Base class for one cross-module rule over one project."""

    #: Short unique code, e.g. ``"EPOCH001"``.
    code: str = ""
    #: One-line description for ``repro-spatial lint --list-rules``.
    summary: str = ""

    def __init__(
        self,
        project: Project,
        config: LintConfig,
        graph: Optional[CallGraph] = None,
    ) -> None:
        self.project = project
        self.config = config
        self._graph = graph
        self.violations: List[Violation] = []

    @property
    def graph(self) -> CallGraph:
        """The shared call graph, built lazily when not injected."""
        if self._graph is None:
            self._graph = CallGraph.build(self.project)
        return self._graph

    def run(self) -> List[Violation]:
        raise NotImplementedError

    def report(self, path: str, node: ast.AST, message: str) -> None:
        self.violations.append(Violation(
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.code,
            message=message,
        ))


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


# ----------------------------------------------------------------------
# EPOCH001 — revalidation dominance
# ----------------------------------------------------------------------
@register_project
class EpochDominanceRule(ProjectRule):
    """Cache reads must follow a revalidate."""

    code = "EPOCH001"
    summary = (
        "cache reads in revalidating classes must be dominated by "
        "_revalidate()/sync() on every path"
    )

    def run(self) -> List[Violation]:
        for info in self.project.classes.values():
            ctx = info.ctx
            if not ctx.in_packages(self.config.epoch001_packages):
                continue
            if not self.project.defines_or_inherits(
                info.qualname, self.config.epoch001_revalidators
            ):
                continue
            self._check_class(info)
        for ctx in self.project.modules.values():
            if ctx.in_packages(self.config.epoch001_packages):
                self._check_summary_stores(ctx)
        return self.violations

    # ------------------------------------------------------------------
    # published-summary stores must go through the epoch-bump path
    # ------------------------------------------------------------------
    def _check_summary_stores(self, ctx: ModuleContext) -> None:
        """Flag ``<receiver>.buckets = ...`` for non-``self``
        receivers anywhere in the module.

        ``self.buckets = ...`` inside the owning class is the
        publish implementation itself; every *other* store reaches
        into another object's summary and bypasses its epoch bump.
        """
        for node in ast.walk(ctx.tree):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                if not isinstance(target, ast.Attribute):
                    continue
                if target.attr not in \
                        self.config.epoch001_mutation_attrs:
                    continue
                receiver = target.value
                if isinstance(receiver, ast.Name) \
                        and receiver.id == "self":
                    continue
                self.report(
                    ctx.path, target,
                    f"direct store to .{target.attr} bypasses the "
                    f"owner's atomic epoch bump; publish the tuned "
                    f"summary through replace_buckets() instead",
                )

    # ------------------------------------------------------------------
    def _analysed_methods(
        self, info: ClassInfo
    ) -> Dict[str, FunctionInfo]:
        exempt = set(self.config.epoch001_exempt_methods)
        exempt.update(self.config.epoch001_revalidators)
        return {
            name: method
            for name, method in info.methods.items()
            if name not in exempt
        }

    def _classifier(
        self, needy: FrozenSet[str]
    ) -> "_EpochClassifier":
        return _EpochClassifier(self.config, needy)

    def _check_class(self, info: ClassInfo) -> None:
        methods = self._analysed_methods(info)
        # Fixpoint: a private method with locally undominated reads
        # needs revalidation at entry, so calls to it become read
        # events in its callers; that can make further private
        # callers needy in turn.
        needy: Set[str] = set()
        for _ in range(len(methods) + 1):
            classifier = self._classifier(frozenset(needy))
            grown = set(needy)
            for name, method in methods.items():
                if not name.startswith("_") or _is_dunder(name):
                    continue
                if undominated_reads(method.node, classifier):
                    grown.add(name)
            if grown == needy:
                break
            needy = grown

        classifier = self._classifier(frozenset(needy))
        internally_called = self._internal_callees(info)
        for name, method in methods.items():
            private = name.startswith("_") and not _is_dunder(name)
            if private and name in internally_called:
                # Every internal call site carries the obligation (the
                # injected read event); reporting here too would state
                # the same defect twice.
                continue
            for call in undominated_reads(method.node, classifier):
                self.report(
                    info.ctx.path, call,
                    self._message(info, name, call, needy),
                )

    def _internal_callees(self, info: ClassInfo) -> Set[str]:
        called: Set[str] = set()
        for method in info.methods.values():
            for call in calls_in(method.node):
                func = call.func
                if isinstance(func, ast.Attribute) \
                        and isinstance(func.value, ast.Name) \
                        and func.value.id == "self":
                    called.add(func.attr)
        return called

    def _message(
        self,
        info: ClassInfo,
        method: str,
        call: ast.Call,
        needy: Set[str],
    ) -> str:
        func = call.func
        what = "derived-state read"
        if isinstance(func, ast.Attribute):
            if func.attr in needy:
                what = (
                    f"call to self.{func.attr}() (which reads "
                    f"cache state)"
                )
            else:
                what = f"cache read .{func.attr}()"
        revalidators = "/".join(
            f"{name}()" for name in self.config.epoch001_revalidators
        )
        return (
            f"{what} in {info.name}.{method} is not dominated by "
            f"{revalidators} on every path; stale epochs would be "
            f"served"
        )


class _EpochClassifier:
    """Call classifier handed to the dominance walker."""

    def __init__(
        self, config: LintConfig, needy: FrozenSet[str]
    ) -> None:
        self.config = config
        self.needy = needy

    def __call__(self, call: ast.Call) -> Optional[str]:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return None
        receiver = func.value
        if isinstance(receiver, ast.Name) and receiver.id == "self":
            if func.attr in self.config.epoch001_revalidators:
                return EVENT_REVALIDATE
            if func.attr in self.needy:
                return EVENT_READ
            return None
        # self.<cache>.<read>()
        if isinstance(receiver, ast.Attribute) \
                and isinstance(receiver.value, ast.Name) \
                and receiver.value.id == "self" \
                and receiver.attr in self.config.epoch001_cache_attrs \
                and func.attr in self.config.epoch001_read_methods:
            return EVENT_READ
        return None


# ----------------------------------------------------------------------
# PICKLE001 — worker payloads must pickle honestly
# ----------------------------------------------------------------------
@register_project
class PicklePayloadRule(ProjectRule):
    """Pickle-reachable classes with hazardous state need both hooks."""

    code = "PICKLE001"
    summary = (
        "classes shipped across pickle boundaries holding id()-keyed "
        "dicts/locks/executors/generators need a matching "
        "__getstate__/__setstate__ pair (both or neither, always)"
    )

    def run(self) -> List[Violation]:
        self._check_hook_pairs()
        reachable = self._reachable_classes()
        for qualname, via in sorted(reachable.items()):
            info = self.project.classes.get(qualname)
            if info is None:
                continue
            risky = sorted(
                record.name
                for record in info.attributes.values()
                if record.risky
            )
            if not risky:
                continue
            if self.project.find_method(qualname, "__getstate__") \
                    and self.project.find_method(
                        qualname, "__setstate__"):
                continue
            reasons = sorted({
                reason
                for record in info.attributes.values()
                if record.risky
                for reason in record.risk_reasons()
            })
            self.report(
                info.ctx.path, info.node,
                f"class {info.name} crosses a pickle boundary "
                f"({via}) holding {', '.join(reasons)} "
                f"({', '.join(risky)}); define a "
                f"__getstate__/__setstate__ pair that translates "
                f"them across the process boundary",
            )
        return self.violations

    # ------------------------------------------------------------------
    def _check_hook_pairs(self) -> None:
        for info in self.project.classes.values():
            has_get = info.defines("__getstate__")
            has_set = info.defines("__setstate__")
            if has_get == has_set:
                continue
            present = "__getstate__" if has_get else "__setstate__"
            missing = "__setstate__" if has_get else "__getstate__"
            self.report(
                info.ctx.path, info.node,
                f"class {info.name} defines {present} without "
                f"{missing}; the hooks must come as a pair or "
                f"unpickling silently resurrects stale state",
            )

    # ------------------------------------------------------------------
    def _reachable_classes(self) -> Dict[str, str]:
        """Class qualname -> witness string, via boundary args and
        transitive held attributes."""
        roots: Dict[str, str] = {}
        for fn in self.project.functions.values():
            executors = _executor_locals(fn, self.project)
            env = local_class_env(fn, self.project)
            for call in calls_in(fn.node):
                boundary = self._boundary_name(fn, call, executors)
                if boundary is None:
                    continue
                witness = (
                    f"{boundary} at {fn.ctx.path}:{call.lineno}"
                )
                for arg in list(call.args) + [
                    kw.value for kw in call.keywords
                ]:
                    for cls in _payload_classes(
                        arg, env, fn, self.project
                    ):
                        roots.setdefault(cls, witness)
        # transitive closure over held attributes
        reachable = dict(roots)
        queue = list(roots)
        while queue:
            current = queue.pop()
            info = self.project.classes.get(current)
            if info is None:
                continue
            for record in info.attributes.values():
                for held in record.held_classes:
                    if held not in reachable:
                        reachable[held] = (
                            f"held by {info.name}.{record.name}; "
                            f"{reachable[current]}"
                        )
                        queue.append(held)
        return reachable

    def _boundary_name(
        self,
        fn: FunctionInfo,
        call: ast.Call,
        executors: Set[str],
    ) -> Optional[str]:
        resolved = self.project.resolve(fn.module, call.func)
        if resolved is not None \
                and resolved in self.config.pickle001_boundaries:
            return resolved.rsplit(".", 1)[-1]
        func = call.func
        if isinstance(func, ast.Attribute) \
                and func.attr in ("submit", "map") \
                and isinstance(func.value, ast.Name) \
                and func.value.id in executors:
            return f"executor.{func.attr}"
        return None


def _executor_locals(fn: FunctionInfo, project: Project) -> Set[str]:
    """Local names bound to pool executors (``with ... as pool``)."""
    names: Set[str] = set()
    for node in ast.walk(fn.node):
        value: Optional[ast.expr] = None
        target: Optional[ast.expr] = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            value, target = node.value, node.targets[0]
        elif isinstance(node, ast.withitem):
            value, target = node.context_expr, node.optional_vars
        if not isinstance(value, ast.Call) \
                or not isinstance(target, ast.Name):
            continue
        resolved = project.resolve(fn.module, value.func)
        if resolved in EXECUTOR_FACTORIES:
            names.add(target.id)
    return names


def _payload_classes(
    expr: ast.expr,
    env: Dict[str, str],
    fn: FunctionInfo,
    project: Project,
    _depth: int = 0,
) -> Set[str]:
    """Project classes an argument expression may evaluate to."""
    if _depth > 6:
        return set()
    found: Set[str] = set()
    if isinstance(expr, ast.Name):
        if expr.id == "self" and fn.class_name is not None:
            found.add(fn.class_name)
        elif expr.id in env:
            found.add(env[expr.id])
    elif isinstance(expr, ast.Starred):
        found |= _payload_classes(
            expr.value, env, fn, project, _depth + 1
        )
    elif isinstance(expr, ast.Call):
        resolved = project.resolve(fn.module, expr.func)
        if resolved is not None and resolved in project.classes:
            found.add(resolved)
        else:
            for arg in expr.args:
                found |= _payload_classes(
                    arg, env, fn, project, _depth + 1
                )
    elif isinstance(expr, ast.Attribute):
        receiver = infer_expr_class(expr.value, env, fn, project)
        if receiver is None and isinstance(expr.value, ast.Name) \
                and expr.value.id == "self":
            receiver = fn.class_name
        if receiver is not None:
            info = project.classes.get(receiver)
            if info is not None:
                record = info.attributes.get(expr.attr)
                if record is not None:
                    found |= record.held_classes
    elif isinstance(expr, (ast.List, ast.Tuple, ast.Set)):
        for element in expr.elts:
            found |= _payload_classes(
                element, env, fn, project, _depth + 1
            )
    elif isinstance(expr, ast.Dict):
        for value in list(expr.keys) + list(expr.values):
            if value is not None:
                found |= _payload_classes(
                    value, env, fn, project, _depth + 1
                )
    elif isinstance(
        expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
               ast.DictComp)
    ):
        comp_env = dict(env)
        elem_classes: Dict[str, Set[str]] = {}
        for gen in expr.generators:
            if not isinstance(gen.target, ast.Name):
                continue
            classes = _element_classes(
                gen.iter, comp_env, fn, project, _depth + 1
            )
            elem_classes[gen.target.id] = classes
            if len(classes) == 1:
                comp_env[gen.target.id] = next(iter(classes))
        outputs: List[ast.expr] = []
        if isinstance(expr, ast.DictComp):
            outputs = [expr.key, expr.value]
        else:
            outputs = [expr.elt]
        for output in outputs:
            if isinstance(output, ast.Name) \
                    and output.id in elem_classes:
                found |= elem_classes[output.id]
            else:
                found |= _payload_classes(
                    output, comp_env, fn, project, _depth + 1
                )
    return found


def _element_classes(
    iterable: ast.expr,
    env: Dict[str, str],
    fn: FunctionInfo,
    project: Project,
    _depth: int,
) -> Set[str]:
    """Classes of the *elements* yielded by iterating ``iterable``.

    Attribute iterables use the held-class inventory, which already
    flattens container annotations (``List[X]`` holds ``X``), so the
    payload and element views coincide.
    """
    return _payload_classes(iterable, env, fn, project, _depth)


# ----------------------------------------------------------------------
# SEED001 — interprocedural seed threading
# ----------------------------------------------------------------------
#: Classification results for a seed expression.
_SEED_OK = "ok"
_SEED_GLOBAL = "global"
_SEED_NONE = "none"


@register_project
class SeedThreadingRule(ProjectRule):
    """RNG seeds come from parameters or literals, traced across
    call edges."""

    code = "SEED001"
    summary = (
        "RNG constructors take their seed from a parameter or "
        "literal — never a module global, an explicit None, or an "
        "omitted None default (traced interprocedurally)"
    )

    def run(self) -> List[Violation]:
        seed_params: Dict[str, Set[str]] = {}
        # Construction sites: classify the seed expression in place
        # and record which parameters feed seeds.
        for ctx in self.project.modules.values():
            for call, scopes in _rng_constructions(
                ctx, self.project, self.config.seed001_constructors
            ):
                seed = _seed_argument(call)
                if seed is None:
                    continue  # DET001 owns the missing-seed case
                status, params, name = _classify_seed(
                    seed, scopes, ctx, self.project
                )
                if status == _SEED_GLOBAL:
                    self.report(
                        ctx.path, call,
                        f"RNG seed reads module-level {name!r}; "
                        f"seeds must arrive through parameters so "
                        f"callers control determinism",
                    )
                elif status == _SEED_NONE:
                    self.report(
                        ctx.path, call,
                        "RNG constructed with an explicit None seed "
                        "— an unseeded generator; thread a real seed "
                        "instead",
                    )
                owner = _param_owner(scopes, params, ctx, self.project)
                if owner is not None:
                    seed_params.setdefault(owner[0], set()).update(
                        owner[1]
                    )
        self._propagate(seed_params)
        self._check_call_sites(seed_params)
        # A call site can resolve through several edges (constructor +
        # __init__); dedupe before reporting.
        return sorted(set(self.violations))

    # ------------------------------------------------------------------
    def _propagate(self, seed_params: Dict[str, Set[str]]) -> None:
        """Fixpoint: a caller param passed into a seed param is one."""
        changed = True
        guard = 0
        while changed and guard < 50:
            changed = False
            guard += 1
            for site in self.graph.sites:
                callee = self._callee_function(site.callee)
                if callee is None:
                    continue
                targets = seed_params.get(callee.qualname)
                if not targets:
                    continue
                caller = self.project.functions.get(site.caller)
                if caller is None:
                    continue
                for param in targets:
                    arg = _argument_for(site.call, callee, param)
                    if arg is None:
                        continue
                    status, params, _name = _classify_seed(
                        arg, [caller.node], caller.ctx, self.project
                    )
                    if status != _SEED_OK or not params:
                        continue
                    bucket = seed_params.setdefault(
                        caller.qualname, set()
                    )
                    fresh = params - bucket
                    if fresh:
                        bucket.update(fresh)
                        changed = True

    def _check_call_sites(
        self, seed_params: Dict[str, Set[str]]
    ) -> None:
        for site in self.graph.sites:
            callee = self._callee_function(site.callee)
            if callee is None:
                continue
            targets = seed_params.get(callee.qualname)
            if not targets:
                continue
            caller = self.project.functions.get(site.caller)
            if caller is None:
                continue
            for param in sorted(targets):
                arg = _argument_for(site.call, callee, param)
                if arg is None:
                    if not _call_is_mappable(site.call):
                        continue
                    default = callee.parameter_default(param)
                    if default is not None \
                            and isinstance(default, ast.Constant) \
                            and default.value is None:
                        self.report(
                            caller.ctx.path, site.call,
                            f"call to {callee.name}() leaves seed "
                            f"parameter {param!r} at its None "
                            f"default — the RNG downstream would be "
                            f"unseeded; pass an explicit seed",
                        )
                    continue
                status, _params, name = _classify_seed(
                    arg, [caller.node], caller.ctx, self.project
                )
                if status == _SEED_GLOBAL:
                    self.report(
                        caller.ctx.path, site.call,
                        f"seed for {callee.name}(..., {param}=...) "
                        f"reads module-level {name!r}; thread it "
                        f"through the caller's parameters",
                    )
                elif status == _SEED_NONE:
                    self.report(
                        caller.ctx.path, site.call,
                        f"call passes None as seed parameter "
                        f"{param!r} of {callee.name}() — an "
                        f"unseeded RNG downstream",
                    )

    def _callee_function(
        self, qualname: str
    ) -> Optional[FunctionInfo]:
        """The function a call edge lands on; constructor edges land
        on ``__init__`` through the MRO."""
        fn = self.project.functions.get(qualname)
        if fn is not None:
            return fn
        if qualname in self.project.classes:
            return self.project.find_method(qualname, "__init__")
        return None


def _rng_constructions(
    ctx: ModuleContext,
    project: Project,
    constructors: FrozenSet[str],
) -> List[Tuple[ast.Call, List[ast.AST]]]:
    """(call, enclosing function-scope stack) per RNG construction."""
    found: List[Tuple[ast.Call, List[ast.AST]]] = []

    def walk(node: ast.AST, scopes: List[ast.AST]) -> None:
        for child in ast.iter_child_nodes(node):
            child_scopes = scopes
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda),
            ):
                child_scopes = scopes + [child]
            if isinstance(child, ast.Call):
                resolved = project.resolve(ctx.module, child.func)
                if resolved is not None and resolved in constructors:
                    found.append((child, list(child_scopes)))
            walk(child, child_scopes)

    walk(ctx.tree, [])
    return found


def _seed_argument(call: ast.Call) -> Optional[ast.expr]:
    if call.args and not isinstance(call.args[0], ast.Starred):
        return call.args[0]
    for keyword in call.keywords:
        if keyword.arg in ("seed", "entropy"):
            return keyword.value
    return None


def _scope_params(scopes: Sequence[ast.AST]) -> Set[str]:
    params: Set[str] = set()
    for scope in scopes:
        if isinstance(
            scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            args = scope.args
            for arg in list(args.posonlyargs) + list(args.args) \
                    + list(args.kwonlyargs):
                params.add(arg.arg)
            if args.vararg is not None:
                params.add(args.vararg.arg)
            if args.kwarg is not None:
                params.add(args.kwarg.arg)
    return params - {"self", "cls"}


def _local_bindings(
    scopes: Sequence[ast.AST],
) -> Dict[str, List[ast.expr]]:
    """Name -> candidate defining expressions across the scope stack."""
    bindings: Dict[str, List[ast.expr]] = {}

    def bind(name: str, value: Optional[ast.expr]) -> None:
        if value is not None:
            bindings.setdefault(name, []).append(value)

    for scope in scopes:
        if not isinstance(
            scope, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        for node in ast.walk(scope):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bind(target.id, node.value)
            elif isinstance(node, ast.AnnAssign) \
                    and isinstance(node.target, ast.Name):
                bind(node.target.id, node.value)
            elif isinstance(node, (ast.For, ast.AsyncFor)) \
                    and isinstance(node.target, ast.Name):
                bind(node.target.id, node.iter)
            elif isinstance(node, ast.comprehension) \
                    and isinstance(node.target, ast.Name):
                bind(node.target.id, node.iter)
            elif isinstance(node, ast.withitem) \
                    and isinstance(node.optional_vars, ast.Name):
                bind(node.optional_vars.id, node.context_expr)
    return bindings


def _classify_seed(
    expr: ast.expr,
    scopes: Sequence[ast.AST],
    ctx: ModuleContext,
    project: Project,
) -> Tuple[str, Set[str], Optional[str]]:
    """Where does a seed expression's value come from?

    Returns ``(status, parameter_names, offending_name)``: ``status``
    is OK (literal/parameter-derived), GLOBAL (reads a module-level
    binding or an imported value) or NONE (literally ``None``).
    """
    params = _scope_params(scopes)
    bindings = _local_bindings(scopes)
    module_globals = project.module_globals.get(ctx.module, frozenset())
    aliases = project.module_aliases.get(ctx.module, {})
    used_params: Set[str] = set()
    offender: List[str] = []
    visiting: Set[str] = set()

    def classify(node: ast.expr) -> str:
        if isinstance(node, ast.Constant):
            if node.value is None:
                return _SEED_NONE
            return _SEED_OK
        if isinstance(node, ast.Name):
            name = node.id
            if name in params:
                used_params.add(name)
                return _SEED_OK
            if name in bindings and name not in visiting:
                visiting.add(name)
                status = _SEED_OK
                for candidate in bindings[name]:
                    sub = classify(candidate)
                    if sub == _SEED_GLOBAL:
                        status = _SEED_GLOBAL
                visiting.discard(name)
                return status
            if name in module_globals or name in aliases:
                resolved = project.resolve_dotted(ctx.module, [name])
                if resolved in project.functions \
                        or resolved in project.classes:
                    return _SEED_OK  # a callable, not seed material
                offender.append(name)
                return _SEED_GLOBAL
            return _SEED_OK  # builtin or untracked: stay quiet
        if isinstance(node, ast.Call):
            status = _SEED_OK
            for arg in list(node.args) + [
                kw.value for kw in node.keywords
            ]:
                if isinstance(arg, ast.Starred):
                    arg = arg.value
                sub = classify(arg)
                if sub == _SEED_GLOBAL:
                    status = _SEED_GLOBAL
            return status
        if isinstance(node, (ast.Attribute, ast.Subscript)):
            root: ast.expr = node
            while isinstance(root, (ast.Attribute, ast.Subscript)):
                root = root.value
            if isinstance(root, ast.Name):
                if root.id in params:
                    # A field read off a parameter-carried object
                    # (``config.seed``): fine here, but the carrier
                    # is a config, not a seed — callers passing it
                    # are not passing "the seed", so the parameter
                    # is deliberately NOT recorded as a seed param.
                    return _SEED_OK
                return classify(root)
            return _SEED_OK
        status = _SEED_OK
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                sub = classify(child)
                if sub == _SEED_NONE and isinstance(node, ast.expr):
                    continue  # None inside a tuple: entropy pairs ok
                if sub == _SEED_GLOBAL:
                    status = _SEED_GLOBAL
        return status

    status = classify(expr)
    name = offender[0] if offender else None
    return status, used_params, name


def _param_owner(
    scopes: Sequence[ast.AST],
    params: Set[str],
    ctx: ModuleContext,
    project: Project,
) -> Optional[Tuple[str, Set[str]]]:
    """Map used seed parameters back to the indexed function that
    declares them (innermost scope first)."""
    if not params:
        return None
    for scope in reversed(list(scopes)):
        if not isinstance(
            scope, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        declared = _scope_params([scope])
        owned = params & declared
        if not owned:
            continue
        for fn in project.functions.values():
            if fn.node is scope and fn.module == ctx.module:
                return fn.qualname, owned
        return None  # nested def: parameter-threaded, but no edges
    return None


def _call_is_mappable(call: ast.Call) -> bool:
    """False when *args/**kwargs make omission undecidable."""
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return False
    return all(kw.arg is not None for kw in call.keywords)


def _argument_for(
    call: ast.Call, callee: FunctionInfo, param: str
) -> Optional[ast.expr]:
    """The expression passed for ``param``, or None when omitted or
    unmappable."""
    for keyword in call.keywords:
        if keyword.arg == param:
            return keyword.value
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return None
    names = callee.parameter_names()
    if param in names:
        index = names.index(param)
        if index < len(call.args):
            return call.args[index]
    return None


# ----------------------------------------------------------------------
# ORDER001 — unordered iteration feeding float accumulation
# ----------------------------------------------------------------------
#: Reducers whose argument order changes the float result.
_ORDER_REDUCERS = frozenset({
    "sum", "math.fsum", "numpy.sum", "numpy.nansum", "numpy.prod",
})

_SET_METHODS = frozenset({
    "union", "intersection", "difference", "symmetric_difference",
})


@register_project
class UnorderedAccumulationRule(ProjectRule):
    """No set iteration into float sums inside the kernel packages."""

    code = "ORDER001"
    summary = (
        "iterating sets/unordered views into float accumulation "
        "makes results depend on hash order; iterate sorted(...) "
        "instead"
    )

    def run(self) -> List[Violation]:
        for ctx in self.project.modules.values():
            if not ctx.in_packages(self.config.order001_packages):
                continue
            self._check_module(ctx)
        return self.violations

    def _check_module(self, ctx: ModuleContext) -> None:
        local_sets = _set_typed_locals(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if _is_unordered(node.iter, local_sets) \
                        and _accumulates(node.body):
                    self.report(
                        ctx.path, node,
                        "for-loop iterates an unordered set while "
                        "accumulating floats; iterate "
                        "sorted(...) to pin the summation order",
                    )
            elif isinstance(node, ast.Call):
                resolved = _reducer_name(node, ctx)
                if resolved is None:
                    continue
                for arg in node.args[:1]:
                    if _is_unordered(arg, local_sets):
                        self.report(
                            ctx.path, node,
                            f"{resolved}() reduces an unordered set; "
                            f"the float result depends on hash "
                            f"order — reduce over sorted(...)",
                        )
                    elif isinstance(
                        arg,
                        (ast.GeneratorExp, ast.ListComp, ast.SetComp),
                    ) and any(
                        _is_unordered(gen.iter, local_sets)
                        for gen in arg.generators
                    ):
                        self.report(
                            ctx.path, node,
                            f"{resolved}() reduces a comprehension "
                            f"over an unordered set; iterate "
                            f"sorted(...) to pin the order",
                        )
        return None


def _reducer_name(call: ast.Call, ctx: ModuleContext) -> Optional[str]:
    name = ctx.resolve(call.func)
    if name is not None and name in _ORDER_REDUCERS:
        return name
    return None


def _set_typed_locals(tree: ast.Module) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            if _is_unordered(node.value, names):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        elif isinstance(node, ast.AnnAssign) \
                and isinstance(node.target, ast.Name) \
                and _annotation_is_set(node.annotation):
            names.add(node.target.id)
    return names


def _annotation_is_set(annotation: ast.expr) -> bool:
    head = annotation
    if isinstance(head, ast.Subscript):
        head = head.value
    if isinstance(head, ast.Attribute):
        return head.attr in ("Set", "FrozenSet", "AbstractSet")
    if isinstance(head, ast.Name):
        return head.id in (
            "set", "frozenset", "Set", "FrozenSet", "AbstractSet",
        )
    return False


def _is_dict_view(expr: ast.expr) -> bool:
    return isinstance(expr, ast.Call) \
        and isinstance(expr.func, ast.Attribute) \
        and expr.func.attr in ("keys", "items")


def _is_unordered(expr: ast.expr, local_sets: Set[str]) -> bool:
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Name):
        return expr.id in local_sets
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Name) \
                and func.id in ("set", "frozenset"):
            return True
        if isinstance(func, ast.Attribute) \
                and func.attr in _SET_METHODS:
            return _is_unordered(func.value, local_sets) \
                or _is_dict_view(func.value)
        return False
    if isinstance(expr, ast.BinOp) and isinstance(
        expr.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        for side in (expr.left, expr.right):
            if _is_unordered(side, local_sets) or _is_dict_view(side):
                return True
    return False


def _accumulates(body: Sequence[ast.stmt]) -> bool:
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.AugAssign) \
                    and isinstance(node.op, (ast.Add, ast.Sub)):
                return True
            if isinstance(node, ast.Assign) \
                    and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name) \
                    and isinstance(node.value, ast.BinOp) \
                    and isinstance(
                        node.value.op, (ast.Add, ast.Sub)) \
                    and _mentions(node.value, node.targets[0].id):
                return True
    return False


def _mentions(expr: ast.expr, name: str) -> bool:
    return any(
        isinstance(node, ast.Name) and node.id == name
        for node in ast.walk(expr)
    )


# ----------------------------------------------------------------------
# RES002 — deadline-dominated IPC receive loops
# ----------------------------------------------------------------------
@register_project
class DeadlineRecvRule(ProjectRule):
    """Blocking IPC reads in serving code must sit under a deadline.

    The serving tier's availability contract says a dead or wedged
    worker process surfaces as a typed error, never as a hang.  That
    holds only if every parent-side pipe read
    (``conn.recv``/``recv_bytes``/``poll``) is dominated — on every
    path, the same walker EPOCH001 uses — by a deadline check
    (``deadline.check(...)``), so a worker that stops replying runs
    the loop out of logical budget instead of blocking forever.
    Worker-side idle loops (``res002_exempt_functions``) legitimately
    block on ``recv``: their supervisor kills them, so they carry no
    deadline.
    """

    code = "RES002"
    summary = (
        "IPC receive loops in serving code must be dominated by a "
        "deadline check on every path; a silent worker death would "
        "hang the serve otherwise"
    )

    def run(self) -> List[Violation]:
        exempt = set(self.config.res002_exempt_functions)
        classifier = _RecvClassifier(self.config)
        for info in self.project.functions.values():
            if not info.ctx.in_packages(self.config.res002_packages):
                continue
            if info.name in exempt:
                continue
            for call in undominated_reads(info.node, classifier):
                self.report(
                    info.ctx.path, call,
                    self._message(info, call),
                )
        return self.violations

    def _message(self, info: FunctionInfo, call: ast.Call) -> str:
        attr = call.func.attr \
            if isinstance(call.func, ast.Attribute) else "recv"
        return (
            f"IPC read .{attr}() in {info.qualname} is not dominated "
            f"by a deadline .check() on every path; a worker that "
            f"dies mid-reply would hang this loop forever"
        )


class _RecvClassifier:
    """Call classifier for RES002's dominance walk."""

    def __init__(self, config: LintConfig) -> None:
        self.config = config

    def __call__(self, call: ast.Call) -> Optional[str]:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return None
        if func.attr in self.config.res002_check_attrs:
            return EVENT_REVALIDATE
        if func.attr in self.config.res002_recv_methods:
            return EVENT_READ
        return None


# ----------------------------------------------------------------------
# SUP001 — suppression hygiene
# ----------------------------------------------------------------------
@register_project
class UnusedSuppressionRule(ProjectRule):
    """``# repro: noqa`` comments must suppress something real."""

    code = "SUP001"
    summary = (
        "a # repro: noqa[RULE] comment matching no finding on its "
        "line is itself a finding (checked against every rule's raw "
        "output)"
    )

    def run(self) -> List[Violation]:
        # Standalone mode: recompute the raw finding set ourselves.
        # The project driver precomputes it and calls the helper
        # directly instead.
        from ..rules import RULES

        raw: List[Violation] = []
        for ctx in self.project.modules.values():
            for _code, rule_class in sorted(RULES.items()):
                raw.extend(rule_class(ctx, self.config).run())
        for code, rule_class in sorted(PROJECT_RULES.items()):
            if code == self.code:
                continue
            raw.extend(
                rule_class(self.project, self.config, self._graph)
                .run()
            )
        return unused_suppression_violations(
            self.project.modules.values(), raw
        )


def unused_suppression_violations(
    contexts: Iterable[ModuleContext],
    raw_violations: Sequence[Violation],
) -> List[Violation]:
    """SUP001 findings given the raw (pre-suppression) finding set."""
    by_file_line: Dict[str, Dict[int, Set[str]]] = {}
    for violation in raw_violations:
        by_file_line.setdefault(
            violation.path, {}
        ).setdefault(violation.line, set()).add(violation.rule)

    found: List[Violation] = []
    for ctx in contexts:
        lines = by_file_line.get(ctx.path, {})
        for line, col, rules in iter_suppression_comments(ctx.source):
            present = lines.get(line, set())
            if rules is None:
                if not present:
                    found.append(Violation(
                        path=ctx.path, line=line, col=col,
                        rule="SUP001",
                        message=(
                            "unused blanket '# repro: noqa' — no "
                            "rule reports on this line; delete the "
                            "suppression"
                        ),
                    ))
                continue
            unused = sorted(rules - present)
            if unused:
                found.append(Violation(
                    path=ctx.path, line=line, col=col,
                    rule="SUP001",
                    message=(
                        f"unused suppression for "
                        f"{', '.join(unused)} — no such finding on "
                        f"this line; delete the stale noqa"
                    ),
                ))
    return found
