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
from .values import NULL, MultiValue


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
#: ``(op_name, arg_refs)`` and each arg ref is ``("i", k)`` — the fused
#: node's k-th input — or ``("t", j)`` — the j-th step's result.
FusedChain = tuple[tuple[tuple[str, tuple[tuple[str, int], ...]], ...], int]


def compose_fused(
    name: str,
    steps: tuple[tuple[str, tuple[tuple[str, int], ...]], ...],
    untuple_n: int,
    registry: OperatorRegistry,
) -> OperatorSpec:
    """Build the composed :class:`OperatorSpec` for one fused chain.

    The callable runs every member operator in chain order inside one
    Python frame — one fire, one dispatch, one set of queue/activation
    bookkeeping for the whole chain.  Composition happens at run time
    against whatever registry is present (the master's or a worker's), so
    fused graphs serialize like any other: the recipe is metadata, never
    pickled code.

    Cost model: a single-step chain (a split whose ``untuple`` was
    absorbed) passes the member's cost hint through unchanged — the
    arguments are identical.  Multi-step chains sum the members' numeric
    hints; if any member's hint is a callable (its arguments would no
    longer line up) the fused spec carries no hint and dispatch falls back
    to the payload-size test.
    """
    plan: list[tuple[Callable[..., Any], tuple[tuple[str, int], ...]]] = []
    pure = True
    costs: list[float | Callable[..., float] | None] = []
    n_inputs = 0
    for op_name, arg_refs in steps:
        spec = registry.get(op_name)
        if spec.modifies:
            raise DeliriumError(
                f"cannot fuse operator {op_name!r}: it declares modifies="
                f"{sorted(spec.modifies)}"
            )
        plan.append((spec.fn, tuple(arg_refs)))
        pure = pure and spec.pure
        costs.append(spec.cost)
        for kind, k in arg_refs:
            if kind == "i":
                n_inputs = max(n_inputs, k + 1)

    cost: float | Callable[..., float] | None
    if len(costs) == 1:
        cost = costs[0]
    else:
        total = 0.0
        cost = 0.0
        for c in costs:
            if isinstance(c, (int, float)):
                total += float(c)
            else:
                cost = None
                break
        if cost is not None:
            cost = total

    if len(plan) == 1:
        # Single-step chain (split + absorbed untuple): call the member
        # directly — no per-step indirection at all.
        fused_fn = plan[0][0]
    else:
        run_plan = tuple(plan)

        def fused_fn(*args: Any) -> Any:
            tmps: list[Any] = []
            append = tmps.append
            for fn, refs in run_plan:
                append(
                    fn(*[args[k] if kind == "i" else tmps[k] for kind, k in refs])
                )
            return tmps[-1]

    doc_chain = ">".join(op_name for op_name, _ in steps)
    if untuple_n:
        doc_chain += f">untuple{untuple_n}"
    return OperatorSpec(
        name=name,
        fn=fused_fn,
        modifies=frozenset(),
        pure=pure,
        foldable=False,
        cost=cost,
        arity=n_inputs,
        doc=f"fused chain: {doc_chain}",
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


def bind_codegen(
    source: str,
    steps: tuple[tuple[str, tuple[tuple[str, int], ...]], ...],
    registry: OperatorRegistry,
    name: str = "<fused>",
) -> Callable[..., Any]:
    """Compile generated codegen ``source`` and bind it against ``registry``.

    Returns the specialized callable for the chain.  Binding always uses
    the *calling* process's registry — a serialized graph only ships the
    source text, and a substituted registry (tests, workers) must win over
    whatever was present at compile time.
    """
    namespace: dict[str, Any] = {}
    code = _CODE_CACHE.get(source)
    if code is None:
        code = _CODE_CACHE[source] = compile(
            source, f"<delirium-codegen {name}>", "exec"
        )
    exec(code, namespace)
    member_fns = [registry.get(op_name).fn for op_name, _ in steps]
    return namespace[CODEGEN_BINDER_NAME](*member_fns)


def bind_codegen_batch(
    source: str,
    steps: tuple[tuple[str, tuple[tuple[str, int], ...]], ...],
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
    namespace: dict[str, Any] = {}
    code = _CODE_CACHE.get(source)
    if code is None:
        code = _CODE_CACHE[source] = compile(
            source, f"<delirium-codegen {name}>", "exec"
        )
    exec(code, namespace)
    binder = namespace.get(BATCH_BINDER_NAME)
    if binder is None:  # pragma: no cover - name mentioned in a comment
        return None
    member_fns = [registry.get(op_name).fn for op_name, _ in steps]
    return binder(*member_fns)


def node_spec(
    registry: OperatorRegistry,
    node: Any,
    cache: dict[str, OperatorSpec] | None = None,
) -> OperatorSpec:
    """Resolve the spec for an ``OP`` node, composing fused bodies.

    ``cache`` (name -> spec) amortizes composition; fused names encode
    their full recipe, so a name is a safe cache key.  A node lowered by
    the codegen pass re-binds its generated source here instead of using
    the interpreted replay — metadata (cost, purity, arity) is identical,
    so dispatch decisions don't change, only the call body does.
    """
    fused = node.fused
    if fused is None:
        return registry.get(node.name)
    if cache is not None:
        spec = cache.get(node.name)
        if spec is not None:
            return spec
    spec = compose_fused(node.name, fused[0], fused[1], registry)
    codegen = getattr(node, "codegen", None)
    if codegen is not None:
        spec = replace(
            spec,
            fn=bind_codegen(codegen, fused[0], registry, name=node.name),
            batch_fn=bind_codegen_batch(
                codegen, fused[0], registry, name=node.name
            ),
        )
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


def unwrap_multivalue(value: Any) -> Any:
    """Convert a MultiValue to a tuple for operator consumption."""
    if isinstance(value, MultiValue):
        return tuple(unwrap_multivalue(v) for v in value.items)
    return value
