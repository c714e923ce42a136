"""Crown clipping (section 6's sequential cutoff, on the graph): a
``CALL`` whose callee closure is closed — no operator reference, no call
of a value, no escaping closure — and whose operators would all fire here,
one at a time (``Run._clips``), runs as generated Python: one function per
function template, a self-tail call a ``while`` loop, an ``IF`` an
``if``/``else`` around its inlined arms.  The code keeps the engine's
semantics — edge values, their counts and releases, ``_write``'s copy
rule, ``_commit``'s result wrapping, ``_body_failed`` — emits readers
before writers (:func:`_order`), frees a template's locals where its
activation would end, and hands a call deeper than a quarter of the
recursion limit back to the graph (``ExecutionState._run_nested``).
The entry template is a call site too (:class:`EntryRow`): a run that
may clip calls its entry's crown instead of starting the graph.
``docs/RUNTIME.md``, "Crown clipping", has the whole story.
"""

from __future__ import annotations

import sys
from typing import Any

import numpy as np

from ..graph.ir import NodeKind, Template
from .activation import _EMPTY, _static_value, self_capture
from . import blocks
from .blocks import DataBlock, release, retain, wrap_payload
from .engine import _package_blocks, _payload_of, check_package
from .values import NULL, Closure, MultiValue

#: Most generated lines one crown may have (arms are inlined per ``IF``).
#: Compiling a crown peaks at about 7 KB of Python compiler memory per
#: line (pythia's unoptimized entry, 1,904 lines: 12.8 MB), which a run's
#: peak RSS shows; a larger closure stays on the graph, where its calls
#: may still clip one by one.
_MAX_LINES = 1_000


class _Ineligible(Exception):
    """The callee closure is not closed, or not a graph the generator
    can emit (a cycle, say): the graph path runs it and reports."""


def _result(state: Any, raw: Any, vals: tuple, packages: bool = False) -> Any:
    """The edge value of an operator result, wrapped as ``_commit`` wraps
    it: an input's block is reused, a view of an input is copied."""
    blocks = [v for v in vals if v.__class__ is DataBlock]
    if packages or type(raw) is tuple:
        blocks += _package_blocks(vals)
    if isinstance(raw, (tuple, np.ndarray)):
        return state._wrap_result(raw, blocks, -1)
    for b in blocks:
        if b.payload is raw:
            return b
    return wrap_payload(raw)


def _untuple(state, raw, vals, n, label, tname) -> list:
    """The outputs of a fused node ending in an absorbed untuple."""
    check_package(raw, tuple, n, f"fused node {label!r}", tname)
    return [_result(state, x, vals, True) for x in raw]


#: The globals every generated crown runs against.
_GLOBALS = {
    "DB": DataBlock, "MV": MultiValue, "RC": frozenset({DataBlock, MultiValue}),
    "ATOMIC": frozenset({int, float, bool, str, type(None), type(NULL)}),
    "PAY": _payload_of, "RES": _result, "UNT": _untuple,
    "CHECK": check_package, "CLO": Closure, "RET": retain, "REL": release,
}


#: glibc's ``malloc_trim``, resolved on first use; ``False`` where the C
#: library has none (musl, macOS, Windows).
_malloc_trim: Any = None


def _trim_heap() -> None:
    """Give the heap's free pages back to the system: compiling a crown
    leaves the Python compiler's freed arenas behind, and a worker forked
    later would inherit and count them again."""
    global _malloc_trim
    if _malloc_trim is None:
        try:
            import ctypes

            _malloc_trim = ctypes.CDLL(None).malloc_trim
        except (AttributeError, OSError, TypeError):
            _malloc_trim = False
    if _malloc_trim:
        _malloc_trim(0)


class Crown:
    """The generated code of one clipped callee closure: ``source`` is a
    deterministic function of the graph and the operator plans; ``specs``
    are the operators it may fire, for the executor's dispatch check."""

    __slots__ = ("name", "source", "specs", "_consts", "_factory", "_bound")

    def __init__(self, name: str, source: str, consts: list, specs: list):
        self.name, self.source, self.specs, self._consts = name, source, specs, consts
        namespace = dict(_GLOBALS)
        exec(compile(source, f"<delirium {name}>", "exec"), namespace)
        self._factory = namespace["_delirium_crown"]
        self._bound: tuple = (None, None)
        _trim_heap()

    def bind(self) -> Any:
        """The entry function, called as ``fn(state, stats, *args, 0)``:
        made once per depth bound and count-hook setting, not per run."""
        key = (sys.getrecursionlimit() // 4, blocks._COUNT_HOOK is None)
        bound = self._bound
        if bound[0] != key:
            bound = self._bound = (key, self._factory(*key, *self._consts))
        return bound[1]


class EntryRow:
    """The entry template as a call site: the fields of a ``CALL``'s row
    (:class:`~repro.runtime.activation.NodePlan`) the executor reads to
    clip it, kept once per (program, registry) beside the call crowns
    (:func:`entry_row`).  An entry with captures is no candidate: the
    graph path reports it."""

    __slots__ = ("node", "kind", "callee", "memo", "crown")

    def __init__(self, template: Template) -> None:
        self.node, self.kind, self.callee = None, NodeKind.CALL, None
        self.memo: tuple[Any, int] = (None, 0)
        self.crown: Any = None if template.captures else (template.name, None)


def entry_row(state: Any) -> EntryRow:
    """The entry's row in ``state``'s plans, made on first use."""
    plans = state.plans
    if plans.entry is None:
        plans.entry = EntryRow(state.program.entry_template())
    return plans.entry


def crown_for(state: Any, entry: Any) -> Crown | None:
    """The crown of a ``CALL`` whose callee is built by a closure node of
    its own template (or of the entry, :class:`EntryRow`), generated the
    first time it is asked for; ``None`` when the callee closure is not
    closed or the node is no candidate.  A call's arity is checked here,
    the entry's by the run (``ExecutionState.call``)."""
    crown = entry.crown
    if type(crown) is tuple:
        template = state.program.templates.get(crown[0])
        node = entry.node
        try:
            if template is None or crown[1] == -1 or node is not None and len(
                node.inputs
            ) - 1 != len(template.params):
                raise _Ineligible
            crown = _Generator(state).generate(template, crown[1])
        except _Ineligible:
            crown = None
        entry.crown = crown
    return crown


def _items(vals: list[tuple[str, str]]) -> str:
    return "".join(expr + ", " for expr, _ in vals)


class _Generator:
    """Emits one crown: a factory whose inner functions are the function
    templates of the closure, their arms inlined.  A value is an
    ``(expression, kind)`` pair: ``v`` counted, ``c`` a known closure,
    ``s`` static."""

    def __init__(self, state: Any) -> None:
        self.state, self.program = state, state.program
        self.consts: list[Any] = []
        self._const_names: dict[int, str] = {}
        self.funcs: dict[str, tuple[str, int | None]] = {}
        self.pending: list[Template] = []
        self.specs: list[Any] = []
        self.n_vars = 0

    def const(self, obj: Any) -> str:
        name = self._const_names.get(id(obj))
        if name is None:
            name = self._const_names[id(obj)] = f"K{len(self.consts)}"
            self.consts.append(obj)
        return name

    def fresh(self) -> str:
        self.n_vars += 1
        return f"v{self.n_vars}"

    def function(self, template: Template, selfcap: int | None) -> str:
        known = self.funcs.get(template.name)
        if known is None:
            known = self.funcs[template.name] = (f"f{len(self.funcs)}", selfcap)
            self.pending.append(template)
        elif known[1] != selfcap:
            raise _Ineligible
        return known[0]

    def generate(self, template: Template, selfcap: int | None) -> Crown:
        entry = self.function(template, selfcap)
        lines: list[str] = []
        while self.pending:
            lines += self._function(self.pending.pop(0))
            if len(lines) > _MAX_LINES:
                raise _Ineligible
        params = ", ".join(["L", "H"] + [f"K{i}" for i in range(len(self.consts))])
        source = "\n".join(
            [f"# crown: {template.name}", f"def _delirium_crown({params}):"]
            + lines + [f"    return {entry}", ""]
        )
        return Crown(f"crown:{template.name}", source, self.consts, self.specs)

    def _function(self, t: Template) -> list[str]:
        fname, selfcap = self.funcs[t.name]
        n_params = len(t.params)
        names = [self.fresh() for _ in range(t.n_placeholders())]
        ctx = {} if selfcap is None else {n_params + selfcap: (t, "self")}
        self.current, self.params, self.looped = t, names[:n_params], False
        # The cells: pinned by the closure, and read by every round.
        self.pinned = set(names[n_params:])
        out: list[tuple[int, str]] = []
        self._body(
            t, [(v, "c" if i in ctx else "v") for i, v in enumerate(names)],
            [1] * n_params + [0] * len(t.captures), ctx, out, 0, True,
        )
        lines = [f"    def {fname}({', '.join(['ST', 'S'] + names + ['d'])}):"]
        if self.looped:
            lines.append("        while True:")
        pad = 3 if self.looped else 2
        return lines + ["    " * (pad + depth) + text for depth, text in out]

    def _scan(self, t, plan, ctx) -> tuple:
        """Check ``t``'s nodes; return its static values, known closures,
        the ports each ``OP`` writes and its operator counts."""
        program, nodes = self.program, t.nodes
        static: dict[int, tuple[str, str]] = {}
        closures = dict(ctx)
        writes: dict[int, set] = {}
        counts = [0, 0, 0]  # ops, fused fires, fused ops saved
        for i in range(t.n_placeholders(), len(nodes)):
            node, kind = nodes[i], nodes[i].kind
            if kind is NodeKind.OPREF:
                raise _Ineligible
            if kind is NodeKind.CLOSURE:
                target = program.templates.get(node.template)
                selfcap = self_capture(node, nodes)
                if target is None or selfcap == -1 or len(node.inputs) != len(
                    target.captures
                ):
                    raise _Ineligible
                self.function(target, selfcap)
                closures[i] = (target, "node" if node.inputs else "static")
            elif kind is NodeKind.OP:
                entry = plan.nodes[i]
                try:
                    op = entry.op or self.state._op_plan(entry)
                except Exception:  # noqa: BLE001 - the graph path reports it
                    raise _Ineligible from None
                if not op[-1]:
                    raise _Ineligible
                self.specs.append(op[0])
                counts[0] += 1
                counts[1] += op[4]
                counts[2] += op[3] - 1
                if op[5] is not None:
                    writes[i] = {
                        (p.node, p.out) for k, p in enumerate(node.inputs) if op[5][k]
                    }
            elif kind is NodeKind.CALL:
                callee = closures.get(node.inputs[0].node)
                if callee is None or len(node.inputs) - 1 != len(callee[0].params):
                    raise _Ineligible  # a call of a value, or a bad arity
            elif kind is NodeKind.IF:
                arms = [program.templates.get(node.then_template),
                        program.templates.get(node.else_template)]
                if any(a is None for a in arms) or [len(a.captures) for a in arms] != [
                    node.n_then_captures, len(node.inputs) - 1 - node.n_then_captures
                ]:
                    raise _Ineligible
            value = _static_value(node, program)
            if value is not _EMPTY:
                static[i] = (self.const(value), "s")
        for i in closures:
            # A known closure may only be called or handed to an arm.
            if t.result_node == i or any(
                not (nodes[d].kind is NodeKind.CALL and k == 0
                     or nodes[d].kind is NodeKind.IF and k > 0)
                for d, k in t.consumers[i][0]
            ):
                raise _Ineligible
        return static, closures, writes, counts

    def _body(self, t, names, carried, ctx, out, depth, tail) -> str | None:
        """Emit template ``t`` at ``depth``: placeholder ``i`` is
        ``names[i]``, carrying ``carried[i]`` shares; ``ctx`` maps the
        placeholders that hold a known closure to ``(template, how)``.
        Returns the result expression, or ``None`` when the body ended in
        a ``return`` or ``continue`` (``tail``)."""
        plan = self.state.plans.load(t)
        nodes, consumers = t.nodes, t.consumers
        n_ph = t.n_placeholders()
        result = (t.result_node, t.result_out)
        static, closures, writes, (ops, fused, saved) = self._scan(t, plan, ctx)
        val = {(i, 0): names[i] for i in range(n_ph)}
        val.update({(i, 0): v for i, v in static.items()})
        order = _order(t, static, writes)
        pos = {node_id: k for k, node_id in enumerate(order)}

        def last_use(port: tuple[int, int]) -> int:
            uses = [pos[d] for d, _ in consumers[port[0]][port[1]]]
            if port == result:
                uses.append(len(order))
            return max(uses, default=pos.get(port[0], -1))

        def shares(port: tuple[int, int]) -> int:
            return len(consumers[port[0]][port[1]]) + (port == result)

        emit = out.append
        for i in range(n_ph):
            expr, kind = names[i]
            self._adjust(out, depth, expr, kind, shares((i, 0)) - carried[i])
            if last_use((i, 0)) < 0 and kind != "s" and expr not in self.pinned:
                emit((depth, f"del {expr}"))
        # Locals past their last use stay bound until this template's
        # activation ends (the graph path's slots hold them exactly that
        # long: they go with the activation when it is released): values
        # are freed an activation at a time, not one by one between
        # operator calls, which keeps the allocator's heap steady.
        held: list[str] = []
        if ops:
            emit((depth, f"S.ops_executed += {ops}"))
        if fused:
            emit((depth, f"S.fused_fires += {fused}; S.fused_ops_saved += {saved}"))
        for k, i in enumerate(order):
            node, kind = nodes[i], nodes[i].kind
            ins = [val[(p.node, p.out)] for p in node.inputs]
            dying = list(dict.fromkeys(
                e for p, (e, kd) in zip(node.inputs, ins)
                if kd != "s" and last_use((p.node, p.out)) == k
                and e not in self.pinned
            ))
            is_tail = tail and result[0] == i and not consumers[i][0]
            carry = 0  # shares the node's outputs arrive with
            if kind is NodeKind.IF or kind is NodeKind.CALL:
                emitter = self._if if kind is NodeKind.IF else self._call
                if emitter(i, node, ins, closures, dying, held, out, depth, is_tail, val):
                    return None
                carry = 1
            elif kind is NodeKind.OP:
                op = plan.nodes[i].op
                dying += self._op(t, op, i, ins, out, depth, val, shares((i, 0)))
                if not op[2]:  # the result was emitted with its shares
                    carry = shares((i, 0))
            elif kind is NodeKind.UNTUPLE:
                outs = [self.fresh() for _ in range(node.n_outputs)]
                val.update({(i, o): (v, "v") for o, v in enumerate(outs)})
                emit((depth, f"CHECK({ins[0][0]}, MV, {len(outs)}, "
                      f"{self.const(f'node {node.label!r}')}, {self.const(t.name)})"))
                emit((depth, f"{_items([(v, 'v') for v in outs])}= {ins[0][0]}.items"))
            else:
                val[(i, 0)] = (self.fresh(), "c" if kind is NodeKind.CLOSURE else "v")
                emit((depth, f"{val[(i, 0)][0]} = " + (
                    f"MV(({_items(ins)}))" if kind is NodeKind.TUPLE else
                    f"CLO({self.const(closures[i][0])}, ({_items(ins)})).tie_self()"
                    if kind is NodeKind.CLOSURE else
                    self.const(node.value)  # a counted constant
                )))
            for o in range(node.n_outputs):
                expr, kd = val[(i, o)]
                self._adjust(out, depth, expr, kd, shares((i, o)) - carry)
                if last_use((i, o)) == k:
                    dying.append(expr)
            if kind in (NodeKind.OP, NodeKind.TUPLE, NodeKind.UNTUPLE):
                for expr, kd in ins:  # the firing's share of each input
                    self._adjust(out, depth, expr, kd, -1)
            held += [e for e in dying if e not in held]
        if tail:
            emit((depth, f"return {val[result][0]}"))
            return None
        _release_names(out, depth, held)
        return val[result][0]

    def _adjust(self, out, depth, expr, kind, delta) -> None:
        """Emit a count update of ``delta`` shares on a counted value: a
        block's count changes inline while no count hook watches (``H``);
        a package, a watched block and a release below zero go to
        ``retain``/``release``, which refuses the last."""
        if kind == "v" and delta:
            n = abs(delta)
            if delta > 0:
                fn, test, op = "RET", "", "+="
            else:
                fn, test, op = "REL", f" and {expr}.rc >= {n}", "-="
            out += [
                (depth, f"if {expr}.__class__ is DB and H{test}: {expr}.rc {op} {n}"),
                (depth, f"elif {expr}.__class__ in RC: {fn}({expr}, {n})"),
            ]

    def _op(self, t, op, i, ins, out, depth, val, n) -> list[str]:
        """Emit one operator firing; returns the temporaries it bound.  A
        single result is emitted with its ``n`` shares taken."""
        spec, fn, untuple_n, _, _, codes, _ = op
        f, sp = self.const(fn), self.const(spec)
        bound, temps = [], []
        for k, (x, kind) in enumerate(ins):
            if codes is not None and codes[k] and kind == "v":
                # ``_write``: a sole, unshipped block is written in place,
                # a shared one copied (``_cow``), anything else decided
                # (or refused) by ``_write`` itself.
                t = self.fresh()
                temps.append(t)
                out += [
                    (depth, f"if {x}.__class__ is DB and {x}.rc == 1 and {x}.bid is None: "
                            f"S.in_place_writes += 1; {x}._nbytes = None; {t} = {x}"),
                    (depth, f"elif {x}.__class__ is DB and {x}.rc > 1: "
                            f"{t} = ST._cow({self.const(spec.name)}, {x}, -1, False)"),
                    (depth, f"else: {t} = ST._write({sp}, {k}, {x}, -1, False)"),
                ]
                x = t
            bound.append((x, kind))
        args = ", ".join(
            e if kd == "s" else
            f"({e}.payload if {e}.__class__ is DB else PAY({e}) if {e}.__class__ is MV else {e})"
            for e, kd in bound
        )
        out += [
            (depth, "try:"),
            (depth + 1, f"r = {f}({args})"),
            (depth, "except Exception as e:"),
            (depth + 1, f"r = ST._body_failed({sp}, [PAY(x) for x in "
                        f"({_items(bound)})], {i}, e)"),
        ]
        outs = [self.fresh() for _ in range(untuple_n or 1)]
        val.update({(i, o): (v, "v") for o, v in enumerate(outs)})
        if untuple_n:
            out.append((depth, f"{_items(val[(i, o)] for o in range(untuple_n))}= UNT("
                        f"ST, r, ({_items(bound)}), {untuple_n}, "
                        f"{self.const(t.nodes[i].label)}, {self.const(t.name)})"))
        else:
            # Atomic results circulate as they are (``wrap_payload``) and
            # are never counted, so only the other branch takes the
            # result's shares; a result that is a written argument's
            # payload is its block, ``_result``'s identity rule tried first.
            written = "".join(
                f"{t} if {t}.__class__ is DB and r is {t}.payload else " for t in temps
            )
            out += [
                (depth, f"if r.__class__ in ATOMIC: {outs[0]} = r"),
                (depth, "else:"),
                (depth + 1, f"{outs[0]} = {written}RES(ST, r, ({_items(bound)}))"),
            ]
            self._adjust(out, depth + 1, outs[0], "v", n)
        return temps

    def _call(self, i, node, ins, closures, dying, held, out, depth, is_tail, val) -> bool:
        """Emit a call; True when it ended the body (tail position).  A
        self-tail call rebinds the parameters and loops; the round's other
        locals go as the next round rebinds them."""
        callee, how = closures[node.inputs[0].node]
        args = _items(ins[1:])
        if is_tail and callee is self.current and how in ("self", "static"):
            if self.params:
                out.append((depth, f"{''.join(p + ', ' for p in self.params)}= {args}"))
            out.append((depth, "continue"))
            self.looped = True
            return True
        cells = "()" if how == "static" else f"{ins[0][0]}.cells"
        star = "" if how == "static" else f"*{cells}, "
        call = (
            f"{self.funcs[callee.name][0]}(ST, S, {args}{star}d + 1) if d < L "
            f"else ST._run_nested({self.const(callee)}, ({args}), {cells})"
        )
        if is_tail:
            _release_names(out, depth, held)
            out.append((depth, f"return {call}"))
            return True
        val[(i, 0)] = (self.fresh(), "v")
        out.append((depth, f"{val[(i, 0)][0]} = {call}"))
        return False

    def _if(self, i, node, ins, closures, dying, held, out, depth, is_tail, val) -> bool:
        """Emit an ``IF`` with both arms inlined; True when it ended the
        body (tail position).  An arm gets its own names for the captures
        (it releases them where it ends); a tail ``IF`` ends the enclosing
        activation, so each arm first drops ``held`` and ``dying``."""
        nt = node.n_then_captures
        arms = [
            (self.program.template(node.then_template), node.inputs[1:1 + nt]),
            (self.program.template(node.else_template), node.inputs[1 + nt:]),
        ]
        caps = [ins[1:1 + nt], ins[1 + nt:]]
        result, cond = self.fresh(), ins[0][0]
        # ``is_truthy``: ``bool(NULL)`` is already false.
        out.append((depth, f"if ({cond}.payload if {cond}.__class__ is DB else {cond}):"))
        for b, (arm, ports) in enumerate(arms):
            if b:
                out.append((depth, "else:"))
            inner = depth + 1
            for expr, kind in caps[1 - b] + [ins[0]]:
                self._adjust(out, inner, expr, kind, -1)
            names, owned = [], set()
            for expr, kind in caps[b]:
                if kind != "s" and (not is_tail or expr not in dying or expr in owned):
                    out.append((inner, f"{self.fresh()} = {expr}"))
                    expr = f"v{self.n_vars}"
                elif kind != "s":
                    owned.add(expr)  # the arm deletes it
                names.append((expr, kind))
            if is_tail:
                _release_names(out, inner, [
                    e for e in held + dying if e not in owned
                ])
            ctx = {j: closures[p.node] for j, p in enumerate(ports) if p.node in closures}
            res = self._body(arm, names, [1] * len(names), ctx, out, inner, is_tail)
            if res is not None:
                out.append((inner, f"{result} = {res}"))
        val[(i, 0)] = (result, "v")
        return is_tail


def _release_names(out: list, depth: int, names: list[str]) -> None:
    """Emit the deletion of ``names`` (each once)."""
    if names:
        out.append((depth, f"del {', '.join(dict.fromkeys(names))}"))


def _order(t: Template, static: dict, writes: dict) -> list[int]:
    """The emission order of ``t``'s nodes: topological, a writer after
    every other reader of the values it writes wherever the dataflow
    allows, then by the ready queue's priority class and node id; a
    result nothing reads goes last."""
    nodes, consumers = t.nodes, t.consumers
    todo = [i for i in range(t.n_placeholders(), len(nodes)) if i not in static]
    inside = set(todo)
    left = {i: len({p.node for p in nodes[i].inputs if p.node in inside}) for i in todo}
    succ = {i: sorted({d for outs in consumers[i] for d, _ in outs}) for i in todo}
    before: dict[int, set] = {}
    for w, ports in writes.items():
        below, stack = set(), [w]
        while stack:
            for s in succ[stack.pop()]:
                if s not in below:
                    below.add(s)
                    stack.append(s)
        before[w] = {
            d for n, o in ports if n not in static for d, _ in consumers[n][o]
            if d != w and (n, o) not in writes.get(d, ()) and d not in below
        }
    sink = t.result_node if not any(consumers[t.result_node]) else -1
    ready = [i for i in todo if not left[i]]
    done: set[int] = set()
    order: list[int] = []
    while ready:
        i = min(ready, key=lambda n: (
            n == sink, bool(before.get(n, done) - done), t.priorities[n], n
        ))
        ready.remove(i)
        done.add(i)
        order.append(i)
        for s in succ[i]:
            left[s] -= 1
            if not left[s]:
                ready.append(s)
    if len(order) < len(todo):
        raise _Ineligible  # a cycle: the graph path reports the stall
    return order
