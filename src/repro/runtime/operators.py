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
"""

from __future__ import annotations

import functools
import operator as _pyop
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

from ..errors import DeliriumError, UnknownOperatorError
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
    ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """Decorator: register the wrapped callable as an operator.

        Example::

            reg = OperatorRegistry()

            @reg.register(modifies=(0,), cost=lambda b, q, l: 50.0)
            def add_queen(board, queen, location):
                board[queen - 1] = location
                return board
        """

        def decorate(fn: Callable[..., Any]) -> Callable[..., Any]:
            self.add(
                OperatorSpec(
                    name=name or fn.__name__,
                    fn=fn,
                    modifies=frozenset(modifies),
                    pure=pure,
                    foldable=foldable or (pure and foldable),
                    cost=cost,
                    arity=arity,
                    doc=(fn.__doc__ or "").strip(),
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


def _n_inputs(steps: tuple[tuple, ...]) -> int:
    return max((k + 1 for s in steps for kind, k in s[1] if kind == "i"), default=0)


def _chain(steps: tuple[tuple, ...], untuple_n: int) -> str:
    return ">".join(step[0] for step in steps) + (
        f">untuple{untuple_n}" if untuple_n else ""
    )


#: The factory every generated source defines.  Each process compiles the
#: text and calls it with the member operator functions of its *own*
#: registry (closure cells, so calls in the generated body are plain
#: ``LOAD_DEREF`` + ``CALL``); it returns the body.
_BIND = "_delirium_bind"


def generate_source(steps: tuple[tuple, ...], untuple_n: int) -> str:
    """Python source for one fused recipe — the body every fused node
    fires.  A pure, deterministic function of the recipe: argument
    unpacking, the step sequence and intermediate threading are inlined
    into one function, a folded ``IF`` is an ``if``/``else`` around its
    guarded steps, and a single step binds the member itself (no added
    frame).  A trailing untuple needs no code: the engine delivers the
    final step's package to the node's output ports."""
    params = ", ".join(f"a{i}" for i in range(_n_inputs(steps)))
    fns = ", ".join(f"_f{j}" for j in range(len(steps)))
    lines = [f"# fused chain: {_chain(steps, untuple_n)}", f"def {_BIND}({fns}):"]

    def val(ref: tuple[str, int]) -> str:
        return f"a{ref[1]}" if ref[0] == "i" else f"t{ref[1]}"

    if len(steps) == 1 and steps[0][0] != SELECT:
        lines.append("    return _f0")
    else:
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
        lines += [f"        return t{len(steps) - 1}", "    return _fused"]
    return "\n".join(lines) + "\n"


#: Compiled code by fused name.  The name spells the whole recipe (the
#: graph loader refuses one that does not), so each distinct recipe is
#: generated and compiled once per process; ``exec`` + bind still run per
#: registry.
_CODE_CACHE: dict[str, Any] = {}


def fused_spec(
    name: str,
    fused: FusedChain,
    registry: OperatorRegistry,
    label: str = "",
) -> OperatorSpec:
    """The spec a fused node fires: its recipe's generated source
    (:func:`generate_source`) bound against ``registry``.

    Binding happens at run time against whatever registry is present (the
    master's or a worker's), so fused graphs serialize like any other: the
    recipe is metadata, never code.  Member operators may not declare
    ``modifies``.

    Cost model: a single-step chain (a split whose ``untuple`` was
    absorbed) passes the member's cost hint through unchanged — the
    arguments are identical.  Longer recipes sum the members' numeric
    hints, guarded ones included (an upper bound); if any member's hint is
    a callable (its arguments would no longer line up) the fused spec
    carries no hint and dispatch falls back to the payload-size test.
    """
    steps, untuple_n = fused
    fns: list[Any] = []
    costs: list[float | Callable[..., float] | None] = []
    pure = True
    for step in steps:
        if step[0] == SELECT:
            fns.append(is_truthy)
            continue
        spec = registry.get(step[0])
        if spec.modifies:
            raise DeliriumError(
                f"cannot fuse operator {step[0]!r}: it declares modifies="
                f"{sorted(spec.modifies)}"
            )
        fns.append(spec.fn)
        pure = pure and spec.pure
        costs.append(spec.cost)

    cost: float | Callable[..., float] | None
    numeric = [float(c) for c in costs if isinstance(c, (int, float))]
    if len(steps) == 1 and costs:
        cost = costs[0]
    else:
        cost = sum(numeric) if len(numeric) == len(costs) else None

    code = _CODE_CACHE.get(name)
    if code is None:
        code = _CODE_CACHE[name] = compile(
            generate_source(steps, untuple_n), f"<delirium-fused {name}>", "exec"
        )
    namespace: dict[str, Any] = {}
    exec(code, namespace)
    return OperatorSpec(
        name=name,
        fn=namespace[_BIND](*fns),
        modifies=frozenset(),
        pure=pure,
        foldable=False,
        cost=cost,
        arity=_n_inputs(steps),
        doc=f"fused chain: {_chain(steps, untuple_n)}",
        label=label,
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
        spec = fused_spec(node.name, node.fused, registry, node.label)
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
