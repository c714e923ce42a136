"""Operator registry: embedding sequential code in Delirium.

In the original system, operators were sequential C or Fortran routines
compiled with existing tools and embedded in the coordination framework.
Here an operator is any Python callable registered with the runtime.  The
only coordination-relevant metadata — exactly as in the paper — is which
arguments the operator may **destructively modify** (``modifies``); the
runtime uses that declaration plus reference counts to guarantee
deterministic execution.

Optional metadata powers the rest of the environment:

``pure``
    No side effects and output determined by inputs.  Licenses
    common-subexpression and dead-code elimination in the compiler.
``foldable``
    Pure *and* safe to execute at compile time on literal arguments
    (constant propagation).
``cost``
    Simulated execution cost in ticks: a number, or a callable receiving
    the raw argument payloads.  Defaults let the machine models charge a
    small constant; the case studies install analytic costs so simulated
    speedup curves depend only on the dependency structure.
``arity``
    Expected argument count, checked at graph execution time.
``batch``
    Opt-in vectorized protocol: a callable receiving a *list of argument
    tuples* (N firings of the same operator) and returning N results in
    order.  Executors that coalesce same-node firings into one batch call
    it through :func:`batch_call`, which falls back to a plain loop over
    ``fn`` when no vectorized form is registered — results are required
    to be bit-identical either way (the batching property suite enforces
    it).  Batched operators must not declare ``modifies``: a vectorized
    body has no per-firing copy-on-write boundary.
"""

from __future__ import annotations

import functools
import operator as _pyop
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, Iterator

from ..errors import DeliriumError, RuntimeFailure, UnknownOperatorError
from .values import NULL, is_truthy


@dataclass(frozen=True)
class OperatorSpec:
    """Metadata for one registered operator."""

    name: str
    fn: Callable[..., Any]
    modifies: frozenset[int] = frozenset()
    pure: bool = False
    foldable: bool = False
    cost: float | Callable[..., float] | None = None
    arity: int | None = None
    doc: str = ""
    #: Optional vectorized form: ``batch_fn(args_lists)`` executes N
    #: firings (one argument tuple each) and returns their N results in
    #: order.  ``None`` (the default) means :func:`batch_call` loops over
    #: ``fn`` — batching then still wins on scheduling and IPC, just not
    #: on kernel vectorization.
    batch_fn: Callable[[list[tuple[Any, ...]]], Any] | None = None
    #: What error messages call a fused node (its ``name`` is the recipe).
    label: str = ""

    def cost_ticks(self, args: tuple[Any, ...]) -> float | None:
        """Evaluate the cost hint for a concrete argument tuple."""
        if self.cost is None:
            return None
        if callable(self.cost):
            return float(self.cost(*args))
        return float(self.cost)

    def try_cost_ticks(self, args: tuple[Any, ...]) -> float | None:
        """Like :meth:`cost_ticks`, but ``None`` when the hint fails.

        Dispatch heuristics (is this operator worth shipping to a worker
        process?) probe costs on payloads the hint callable may not have
        been written for; a broken hint must never abort the run.
        """
        try:
            return self.cost_ticks(args)
        except Exception:  # noqa: BLE001 - hints are advisory only
            return None


class OperatorRegistry:
    """A named collection of operators.

    Registries compose: apps build theirs from :func:`builtin_registry`
    plus their own kernels.  Iteration order is insertion order, which
    keeps compiled artifacts deterministic.
    """

    def __init__(self, specs: Iterable[OperatorSpec] = ()) -> None:
        self._specs: dict[str, OperatorSpec] = {}
        for spec in specs:
            self.add(spec)

    # ------------------------------------------------------------------
    def add(self, spec: OperatorSpec) -> OperatorSpec:
        if spec.name in self._specs:
            raise DeliriumError(f"operator {spec.name!r} already registered")
        self._specs[spec.name] = spec
        return spec

    def register(
        self,
        name: str | None = None,
        *,
        modifies: Iterable[int] = (),
        pure: bool = False,
        foldable: bool = False,
        cost: float | Callable[..., float] | None = None,
        arity: int | None = None,
        batch: Callable[[list[tuple[Any, ...]]], Any] | None = None,
    ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """Decorator: register the wrapped callable as an operator.

        ``batch`` opts the operator into the vectorized protocol: it
        receives a list of argument tuples (N coalesced firings) and must
        return their N results in order, bit-identical to N calls of the
        plain function.

        Example::

            reg = OperatorRegistry()

            @reg.register(modifies=(0,), cost=lambda b, q, l: 50.0)
            def add_queen(board, queen, location):
                board[queen - 1] = location
                return board
        """

        def decorate(fn: Callable[..., Any]) -> Callable[..., Any]:
            op_name = name or fn.__name__
            mods = frozenset(modifies)
            if batch is not None and mods:
                raise DeliriumError(
                    f"operator {op_name!r} cannot register a batch form: "
                    f"it declares modifies={sorted(mods)} (vectorized "
                    "bodies have no per-firing copy-on-write boundary)"
                )
            self.add(
                OperatorSpec(
                    name=op_name,
                    fn=fn,
                    modifies=mods,
                    pure=pure,
                    foldable=foldable or (pure and foldable),
                    cost=cost,
                    arity=arity,
                    doc=(fn.__doc__ or "").strip(),
                    batch_fn=batch,
                )
            )
            return fn

        return decorate

    # ------------------------------------------------------------------
    def get(self, name: str) -> OperatorSpec:
        try:
            return self._specs[name]
        except KeyError:
            raise UnknownOperatorError(name) from None

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __iter__(self) -> Iterator[OperatorSpec]:
        return iter(self._specs.values())

    def __len__(self) -> int:
        return len(self._specs)

    def names(self) -> set[str]:
        return set(self._specs)

    def pure_names(self) -> set[str]:
        return {s.name for s in self._specs.values() if s.pure}

    def merged_with(self, other: "OperatorRegistry") -> "OperatorRegistry":
        """A new registry containing both sides (``other`` wins clashes)."""
        merged = OperatorRegistry()
        merged._specs.update(self._specs)
        merged._specs.update(other._specs)
        return merged


# ---------------------------------------------------------------------------
# Built-in operators
# ---------------------------------------------------------------------------


def _pure(reg: OperatorRegistry, name: str, fn: Callable[..., Any], arity: int) -> None:
    reg.add(
        OperatorSpec(
            name=name,
            fn=fn,
            pure=True,
            foldable=True,
            cost=1.0,
            arity=arity,
            doc=(fn.__doc__ or "").strip(),
        )
    )


def _is_null(x: Any) -> int:
    """1 when the argument is NULL, else 0."""
    return 1 if x is NULL else 0


def _merge_variadic(*items: Any) -> Any:
    """Collect results, dropping NULLs, into a flat list.

    This mirrors the paper's eight-queens ``merge``: failed tries return
    NULL and successful subtrees return solutions or solution lists.
    """
    out: list[Any] = []
    for item in items:
        if item is NULL:
            continue
        if isinstance(item, list):
            out.extend(item)
        else:
            out.append(item)
    return out


@functools.lru_cache(maxsize=1)
def builtin_registry() -> OperatorRegistry:
    """The standard operators every program may assume.

    All are pure and foldable, tiny-cost scalar helpers — the Delirium
    analogue of the host language's expression syntax (the language itself
    has no infix operators; the paper's examples use ``incr``,
    ``is_equal``, ``is_not_equal``).  The returned registry is cached and
    must be treated as read-only; compose with :meth:`merged_with`.
    """
    reg = OperatorRegistry()
    _pure(reg, "incr", lambda x: x + 1, 1)
    _pure(reg, "decr", lambda x: x - 1, 1)
    _pure(reg, "add", _pyop.add, 2)
    _pure(reg, "sub", _pyop.sub, 2)
    _pure(reg, "mul", _pyop.mul, 2)
    _pure(reg, "div", lambda a, b: a / b, 2)
    _pure(reg, "idiv", lambda a, b: a // b, 2)
    _pure(reg, "mod", lambda a, b: a % b, 2)
    _pure(reg, "neg", lambda a: -a, 1)
    _pure(reg, "min2", min, 2)
    _pure(reg, "max2", max, 2)
    _pure(reg, "is_equal", lambda a, b: 1 if a == b else 0, 2)
    _pure(reg, "is_not_equal", lambda a, b: 1 if a != b else 0, 2)
    _pure(reg, "is_less", lambda a, b: 1 if a < b else 0, 2)
    _pure(reg, "is_less_equal", lambda a, b: 1 if a <= b else 0, 2)
    _pure(reg, "is_greater", lambda a, b: 1 if a > b else 0, 2)
    _pure(reg, "is_greater_equal", lambda a, b: 1 if a >= b else 0, 2)
    _pure(reg, "not", lambda a: 0 if a else 1, 1)
    _pure(reg, "and", lambda a, b: 1 if (a and b) else 0, 2)
    _pure(reg, "or", lambda a, b: 1 if (a or b) else 0, 2)
    _pure(reg, "is_null", _is_null, 1)
    _pure(reg, "identity", lambda x: x, 1)
    reg.add(
        OperatorSpec(
            name="merge",
            fn=_merge_variadic,
            pure=True,
            foldable=False,  # variadic; keep it out of the constant folder
            cost=1.0,
            arity=None,
            doc=_merge_variadic.__doc__ or "",
        )
    )
    # --- list and package helpers for the coordination-structure prelude
    # (the section 9.2 extension: dynamic-width parallelism).  ``element``
    # copies mutable payloads defensively: pulling an interior mutable
    # object out of a package would otherwise alias it behind the
    # reference counter's back.  Zero-copy decomposition is what the
    # ``<a, b, c> = pkg`` binding form is for.
    import copy as _copy

    def _element(pkg: Any, i: int) -> Any:
        value = pkg[i]
        if isinstance(value, IMMUTABLE_PRELUDE_TYPES) or value is NULL:
            return value
        return _copy.deepcopy(value)

    _pure(reg, "pkg_len", lambda pkg: len(pkg), 1)
    reg.add(
        OperatorSpec(
            name="element",
            fn=_element,
            pure=True,
            foldable=False,
            cost=2.0,
            arity=2,
            doc=(_element.__doc__ or "package element access (copying)"),
        )
    )
    _pure(reg, "nil", lambda: [], 0)
    _pure(reg, "list1", lambda x: [x], 1)
    _pure(reg, "append2", lambda a, b: list(a) + list(b), 2)
    return reg


#: Types ``element`` may return without copying.
IMMUTABLE_PRELUDE_TYPES = (int, float, complex, bool, str, bytes, frozenset)


def default_registry() -> OperatorRegistry:
    """A fresh, extensible registry pre-populated with the builtins."""
    return OperatorRegistry().merged_with(builtin_registry())


# ---------------------------------------------------------------------------
# Fused operators (compiler fusion pass support)
# ---------------------------------------------------------------------------

#: ``Node.fused`` recipe type: ``(steps, untuple_n)`` where each step is
#: ``(op_name, arg_refs)`` (or, guarded, ``(op_name, arg_refs, (cond_ref,
#: taken))`` — see :attr:`repro.graph.ir.Node.fused`) and each arg ref is
#: ``("i", k)`` — the fused node's k-th input — or ``("t", j)`` — the j-th
#: step's result.
FusedChain = tuple[tuple[tuple, ...], int]

#: A folded ``IF``'s select step: no Delirium identifier; its member is
#: :func:`~repro.runtime.values.is_truthy`, the ``IF`` node's own test.
SELECT = "?"


def fused_name(steps: tuple[tuple, ...], untuple_n: int) -> str:
    """The fused node's name: the whole recipe spelled out, so equal names
    mean equal recipes (it keys every spec cache).  A guarded step reads
    ``op(refs)?t3`` (runs when step 3 is truthy) or ``op(refs)?!t3``."""
    parts = []
    for step in steps:
        part = f"{step[0]}({','.join(kind + str(k) for kind, k in step[1])})"
        if len(step) > 2:
            (kind, k), taken = step[2]
            part += f"?{'' if taken else '!'}{kind}{k}"
        parts.append(part)
    if untuple_n:
        parts.append(f"untuple{untuple_n}")
    return "fused:" + ";".join(parts)


def fused_source_ops(steps: tuple[tuple, ...], untuple_n: int) -> int:
    """Source-graph nodes one fire of the recipe stands for: the unguarded
    steps (a select is its ``IF``) and the untuple.  Guarded steps count
    nowhere — they may not run."""
    return sum(len(step) == 2 for step in steps) + (1 if untuple_n else 0)


def _member_fns(steps: tuple[tuple, ...], registry: OperatorRegistry) -> list[Any]:
    return [is_truthy if s[0] == SELECT else registry.get(s[0]).fn for s in steps]


def _select(cond: Any, then_value: Any, else_value: Any) -> Any:
    return then_value if is_truthy(cond) else else_value


def _n_inputs(steps: tuple[tuple, ...]) -> int:
    return max((k + 1 for s in steps for kind, k in s[1] if kind == "i"), default=0)


def compose_fused(
    name: str,
    steps: tuple[tuple, ...],
    untuple_n: int,
    registry: OperatorRegistry,
    label: str = "",
) -> OperatorSpec:
    """Build the composed :class:`OperatorSpec` for one fused recipe.

    The callable runs every member operator in recipe order inside one
    Python frame — one fire, one dispatch, one set of queue/activation
    bookkeeping for the whole region — skipping a step whose guard fails.
    Composition happens at run time against whatever registry is present
    (the master's or a worker's), so fused graphs serialize like any
    other: the recipe is metadata, never pickled code.

    Cost model: a single-step chain (a split whose ``untuple`` was
    absorbed) passes the member's cost hint through unchanged — the
    arguments are identical.  Longer recipes sum the members' numeric
    hints, guarded ones included (an upper bound); if any member's hint is
    a callable (its arguments would no longer line up) the fused spec
    carries no hint and dispatch falls back to the payload-size test.
    """
    plan: list[tuple] = []
    pure = True
    costs: list[float | Callable[..., float] | None] = []
    for step in steps:
        op_name, arg_refs = step[0], step[1]
        if op_name == SELECT:
            fn = _select
        else:
            spec = registry.get(op_name)
            if spec.modifies:
                raise DeliriumError(
                    f"cannot fuse operator {op_name!r}: it declares modifies="
                    f"{sorted(spec.modifies)}"
                )
            fn = spec.fn
            pure = pure and spec.pure
            costs.append(spec.cost)
        plan.append((fn, tuple(arg_refs), step[2] if len(step) > 2 else None))

    cost: float | Callable[..., float] | None
    numeric = [float(c) for c in costs if isinstance(c, (int, float))]
    if len(plan) == 1 and costs:
        cost = costs[0]
    else:
        cost = sum(numeric) if len(numeric) == len(costs) else None

    if len(plan) == 1 and plan[0][0] is not _select:
        # Single-step chain (split + absorbed untuple): call the member
        # directly — no per-step indirection at all.
        fused_fn = plan[0][0]
    else:
        run_plan = tuple(plan)

        def fused_fn(*args: Any) -> Any:
            tmps: list[Any] = []
            append = tmps.append
            for fn, refs, guard in run_plan:
                if guard is not None:
                    (kind, k), taken = guard
                    if is_truthy(args[k] if kind == "i" else tmps[k]) != taken:
                        append(None)
                        continue
                append(
                    fn(*[args[k] if kind == "i" else tmps[k] for kind, k in refs])
                )
            return tmps[-1]

    doc_chain = ">".join(step[0] for step in steps)
    if untuple_n:
        doc_chain += f">untuple{untuple_n}"
    return OperatorSpec(
        name=name,
        fn=fused_fn,
        modifies=frozenset(),
        pure=pure,
        foldable=False,
        cost=cost,
        arity=_n_inputs(steps),
        doc=f"fused chain: {doc_chain}",
        label=label,
    )


def generate_source(steps: tuple[tuple, ...], untuple_n: int) -> str:
    """Specialized Python source for one fused recipe (see
    :mod:`repro.compiler.passes.codegen`): a pure, deterministic function
    of the recipe, which the graph loader regenerates to check a stored
    text.  A folded ``IF`` is an ``if``/``else`` around its guarded steps.
    """
    params = ", ".join(f"a{i}" for i in range(_n_inputs(steps)))
    fns = ", ".join(f"_f{j}" for j in range(len(steps)))
    lines = [
        f"# fused chain: {'>'.join(step[0] for step in steps)}"
        + (f">untuple{untuple_n}" if untuple_n else ""),
        f"def {CODEGEN_BINDER_NAME}({fns}):",
    ]
    if len(steps) == 1 and steps[0][0] != SELECT:
        # Single step (split + absorbed untuple): the specialized callable
        # *is* the member function — binding it directly keeps the call
        # frame count identical to an unfused firing.
        return "\n".join(lines + ["    return _f0", ""])

    def val(ref: tuple[str, int]) -> str:
        return f"a{ref[1]}" if ref[0] == "i" else f"t{ref[1]}"

    lines.append(f"    def _fused({params}):")
    guarded: list[int] = []
    for j, step in enumerate(steps):
        if len(step) > 2:
            guarded.append(j)  # emitted inside its select's block
        elif step[0] != SELECT:
            lines.append(f"        t{j} = _f{j}({', '.join(map(val, step[1]))})")
        else:
            cond, *results = step[1]
            for head, taken, result in zip(
                (f"if _f{j}({val(cond)}):", "else:"), (True, False), results
            ):
                lines.append(f"        {head}")
                for g in guarded:
                    if steps[g][2][1] == taken:
                        args = ", ".join(map(val, steps[g][1]))
                        lines.append(f"            t{g} = _f{g}({args})")
                lines.append(f"            t{j} = {val(result)}")
            guarded = []
    lines += [f"        return t{len(steps) - 1}", "    return _fused", ""]
    return "\n".join(lines)


def generate_batch_source(n_members: int) -> str:
    """The batch-binder text the ``batch`` pass appends to a generated
    source: a pure function of the member count — the scalar binder's
    signature — so equal codegen sources grow equal batch binders."""
    fns = ", ".join(f"_f{j}" for j in range(n_members))
    return (
        f"\ndef {BATCH_BINDER_NAME}({fns}):\n"
        f"    _fused = {CODEGEN_BINDER_NAME}({fns})\n"
        "    def _fused_batch(_calls):\n"
        "        return [_fused(*_args) for _args in _calls]\n"
        "    return _fused_batch\n"
    )


def batch_call(
    spec: OperatorSpec, args_lists: list[tuple[Any, ...]]
) -> list[Any]:
    """Execute N firings of one operator, vectorized when possible.

    The single entry point of the batched execution path's operator
    protocol: when ``spec`` registered a vectorized form it runs once
    over the whole batch; otherwise the fallback is a plain loop over
    ``spec.fn`` — same results, one call frame per firing.  A vectorized
    form that returns the wrong number of results is a contract
    violation and raises :class:`~repro.errors.RuntimeFailure` (silently
    mis-aligning results with firings would corrupt single-assignment
    state).
    """
    fn = spec.batch_fn
    if fn is None:
        call = spec.fn
        return [call(*args) for args in args_lists]
    results = list(fn(args_lists))
    if len(results) != len(args_lists):
        raise RuntimeFailure(
            f"batch form of operator {spec.name!r} returned "
            f"{len(results)} result(s) for {len(args_lists)} firing(s)"
        )
    return results


#: Name of the factory every generated codegen source must define.  The
#: codegen pass emits sources shaped ``def _delirium_bind(_f0, ...): ...``;
#: each process compiles the text and calls the binder with the member
#: operator functions from its *own* registry (closure cells, so calls in
#: the generated body are plain ``LOAD_DEREF`` + ``CALL``).
CODEGEN_BINDER_NAME = "_delirium_bind"

#: Name of the *batch* factory the ``batch`` lowering pass appends to
#: generated codegen sources: ``def _delirium_bind_batch(_f0, ...)``
#: returns a callable with the :attr:`OperatorSpec.batch_fn` signature
#: (list of argument tuples in, list of results out) that loops the
#: specialized fused body inside one generated frame.  Optional — plain
#: codegen sources simply have no batch binder and the chain stays
#: unbatchable at the vectorized level.
BATCH_BINDER_NAME = "_delirium_bind_batch"


#: Compiled code objects by source text.  Generated sources are pure
#: functions of the recipe, so the text is a safe process-wide key; the
#: (cheap) ``exec`` + bind still runs per registry.
_CODE_CACHE: dict[str, Any] = {}


def _exec_source(source: str, name: str) -> dict[str, Any]:
    namespace: dict[str, Any] = {}
    code = _CODE_CACHE.get(source)
    if code is None:
        code = _CODE_CACHE[source] = compile(
            source, f"<delirium-codegen {name}>", "exec"
        )
    exec(code, namespace)
    return namespace


def bind_codegen(
    source: str,
    steps: tuple[tuple, ...],
    registry: OperatorRegistry,
    name: str = "<fused>",
) -> Callable[..., Any]:
    """Compile generated codegen ``source`` and bind it against ``registry``.

    Returns the specialized callable for the recipe.  Binding always uses
    the *calling* process's registry — a serialized graph only ships the
    source text, and a substituted registry (tests, workers) must win over
    whatever was present at compile time.
    """
    binder = _exec_source(source, name)[CODEGEN_BINDER_NAME]
    return binder(*_member_fns(steps, registry))


def bind_codegen_batch(
    source: str,
    steps: tuple[tuple, ...],
    registry: OperatorRegistry,
    name: str = "<fused>",
) -> Callable[[list[tuple[Any, ...]]], Any] | None:
    """Bind the batch binder of a generated source, when it has one.

    Returns a ``batch_fn``-shaped callable for chains the ``batch``
    lowering pass extended with :data:`BATCH_BINDER_NAME`, or ``None``
    for plain codegen sources (the chain then falls back to
    :func:`batch_call`'s loop when batched).  Shares the compiled-code
    cache with :func:`bind_codegen` — the source text is the key.
    """
    if BATCH_BINDER_NAME not in source:
        return None
    binder = _exec_source(source, name)[BATCH_BINDER_NAME]
    return binder(*_member_fns(steps, registry))


def fused_spec(
    name: str,
    fused: FusedChain,
    codegen: str | None,
    registry: OperatorRegistry,
    label: str = "",
) -> OperatorSpec:
    """The spec a fused node fires: its recipe composed against
    ``registry``, with the generated source bound in place of the replay
    when the codegen pass lowered it (same metadata, so the same dispatch
    decisions — only the call body differs)."""
    spec = compose_fused(name, fused[0], fused[1], registry, label)
    if codegen is None:
        return spec
    return replace(
        spec,
        fn=bind_codegen(codegen, fused[0], registry, name=name),
        batch_fn=bind_codegen_batch(codegen, fused[0], registry, name=name),
    )


def node_spec(
    registry: OperatorRegistry,
    node: Any,
    cache: dict[str, OperatorSpec] | None = None,
) -> OperatorSpec:
    """Resolve the spec for an ``OP`` node, composing fused bodies
    (:func:`fused_spec`).  ``cache`` (name -> spec) amortizes composition;
    fused names encode their full recipe, so a name is a safe cache key."""
    if node.fused is None:
        return registry.get(node.name)
    spec = cache.get(node.name) if cache is not None else None
    if spec is None:
        spec = fused_spec(node.name, node.fused, node.codegen, registry, node.label)
        if cache is not None:
            cache[node.name] = spec
    return spec


def collect_fused_chains(program: Any) -> dict[str, FusedChain]:
    """Every fused recipe in a compiled program, keyed by fused node name.

    The table is plain picklable data; :class:`~repro.runtime.workers.
    WorkerPool` ships it to worker processes so they can compose the same
    callables against their own registries (fork- and spawn-safe).
    """
    chains: dict[str, FusedChain] = {}
    for template in program.templates.values():
        for node in template.nodes:
            if node.fused is not None:
                chains[node.name] = node.fused
    return chains


def collect_codegen_sources(program: Any) -> dict[str, str]:
    """Generated codegen source per fused node name, for shipping.

    Mirrors :func:`collect_fused_chains`: plain picklable strings that a
    worker process ``exec``\\ s and binds against its own registry.  Empty
    when the codegen pass didn't run.
    """
    sources: dict[str, str] = {}
    for template in program.templates.values():
        for node in template.nodes:
            codegen = getattr(node, "codegen", None)
            if node.fused is not None and codegen is not None:
                sources[node.name] = codegen
    return sources
