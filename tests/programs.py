"""One random-program generator and the registry its programs run against.

Every hypothesis property that draws a Delirium program draws it from
:func:`programs`, and what a drawn program means is
:func:`repro.lang.reference.evaluate_source` on the same text
(``tests/test_oracle.py``).  A program is ``main(n)`` binding one to five
*stages* and returning the sum of every integer it bound and of every
block it made, so nothing is dead.  The stage kinds:

* pure arithmetic over earlier values;
* conditionals, among them ``IF``\\ s whose arms are cheap operators (the
  ones ``fuse`` folds), a constant, a name, or a write it cannot fold;
* a local function closed over an earlier value and called twice;
* a bounded two-variable ``iterate``;
* a package built and destructured, directly or returned by ``twin``;
* blocks made, written by ``modifies`` operators while something else
  still reads them, and read back;
* self- and mutually-recursive writers (:data:`LIBRARY`) and a drawn
  group of mutually recursive integer functions, the shape ``inline``
  splices;
* ``IF``\\ s on a constant condition, which ``constprop`` folds;
* float products that may overflow to ``inf`` (a value with no literal
  spelling), each under a nested ``let`` on a right-hand side, beside a
  ``let`` of the same text over a name spelled like a value (``inf``,
  ``nan``, ``True``), whose value is an integer.  A product joins the
  final sum as ``is_less(v, 1e308)`` (whether it is finite), so the sum
  stays an integer and ``inf`` in place of a finite value still shows.

Every program terminates: loops and recursions run on drawn constants
bounded by a handful of rounds, never on ``n``.

:func:`graph_run` and :func:`calls_run` are the two sequential paths a
plain run does not take by itself (crown clipping,
``repro.runtime.crown``); :func:`on_graph_path` is the one switch every
test that needs the graph path uses.  :class:`Fold` is how a test reads
a counter that is not a stat (a metrics fold over chosen events), and
:class:`CopyView` the per-operator copy view: the fold over ``CowCopy``.
:func:`same` is how a run's value is compared with the evaluator's.
"""

from __future__ import annotations

import contextlib

import pytest
from hypothesis import strategies as st

from repro.obs import CowCopy, EventBus, attach_metrics
from repro.runtime import SequentialExecutor, default_registry, executors
from repro.runtime.crown import EntryRow
from repro.runtime.executors import Run
from repro.runtime.values import MultiValue


def _registry():
    reg = default_registry()

    @reg.register(name="mkblock", cost=20.0)
    def mkblock(n):
        return [n, n + 1, n + 2]

    @reg.register(name="bump", modifies=(0,), cost=30.0)
    def bump(lst, k):
        for i in range(len(lst)):
            lst[i] += k
        return lst

    @reg.register(name="push", modifies=(0,))
    def push(xs, v):
        xs.append(v)
        return xs

    @reg.register(name="blk_sum", pure=True, cost=10.0)
    def blk_sum(lst):
        return sum(lst)

    return reg


#: The builtins plus a block maker, two block writers (each ``modifies``
#: its first argument) and a block reader.  Module level, so process
#: workers inherit it by fork.
REGISTRY = _registry()

#: Mutual tail recursion carrying a written block (``down``/``side``),
#: plain recursion (``tri``), recursion that reads and writes one block
#: (``both``) and a function returning a package (``twin``).
LIBRARY = """
down(k, xs)
  if is_less(k, 1) then blk_sum(xs) else side(sub(k, 1), push(xs, k))

side(k, xs)
  if is_less(k, 1) then blk_sum(xs) else down(sub(k, 1), xs)

tri(k)
  if is_less(k, 1) then 0 else add(k, tri(sub(k, 1)))

both(k, xs)
  if is_less(k, 1) then blk_sum(xs)
  else add(both(sub(k, 1), push(xs, k)), blk_sum(xs))

twin(xs)
  <blk_sum(xs), push(xs, 7)>
"""

_PURE_OPS = [("incr", 1), ("decr", 1), ("add", 2), ("mul", 2), ("sub", 2),
             ("is_less", 2), ("max2", 2)]

#: The ``float`` stage's literals: ``1e308`` overflows under ``mul`` by
#: itself or by ``10.0``.
_FLOATS = ("1e308", "10.0", "0.5", "2.5")

#: How the printer spells a float or bool it has no literal for.
_SPELLINGS = ("inf", "nan", "True")


# ---------------------------------------------------------------------------
# A group of mutually recursive integer functions
# ---------------------------------------------------------------------------
#
# *Guards* test ``n`` first and call only from their else arm, with
# ``sub(n, 1)``; *straights* pass ``n`` on unchanged and reach only
# guards or later straights — so every cycle runs through a guard and
# ``n`` falls around it.


def _expr(draw, callees, calls_left, n_arg):
    """An integer expression over ``n``, ``x`` and at most ``calls_left``
    calls; returns ``(text, calls used)``."""
    choice = draw(st.integers(0, 4 if calls_left and callees else 3))
    if choice == 0:
        return draw(st.sampled_from(["x", "n"])), 0
    if choice == 1:
        return str(draw(st.integers(-2, 3))), 0
    if choice == 2:
        inner, used = _expr(draw, callees, calls_left, n_arg)
        return f"incr({inner})", used
    if choice == 3:
        left, a = _expr(draw, callees, calls_left, n_arg)
        right, b = _expr(draw, callees, calls_left - a, n_arg)
        op = draw(st.sampled_from(["add", "sub", "max2"]))
        return f"{op}({left}, {right})", a + b
    return _call(draw, callees, calls_left, n_arg)


def _call(draw, callees, calls_left, n_arg):
    arg, used = _expr(draw, callees, calls_left - 1, n_arg)
    return f"{draw(st.sampled_from(callees))}({n_arg}, {arg})", used + 1


def _group(draw, i):
    """``(functions, entry name)`` of a drawn group for stage ``i``."""
    guards = [f"g{i}_{j}" for j in range(draw(st.integers(1, 3)))]
    straights = [f"t{i}_{j}" for j in range(draw(st.integers(0, 2)))]
    lines = []
    for name in guards:
        base, _ = _expr(draw, [], 0, "")
        step, used = _call(draw, guards + straights, 2, "sub(n, 1)")
        more, _ = _expr(draw, guards + straights, 2 - used, "sub(n, 1)")
        lines.append(
            f"{name}(n, x) if is_less(n, 1) then {base} else add({step}, {more})"
        )
    for j, name in enumerate(straights):
        body, _ = _expr(draw, guards + straights[j + 1:], 2, "n")
        lines.append(f"{name}(n, x) {body}")
    return draw(st.permutations(lines)), draw(st.sampled_from(guards + straights))


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


#: The stage kinds :func:`_stage` draws from (``group`` is the drawn
#: group of mutually recursive integer functions).
KINDS = (
    "arith", "if", "closure", "iterate", "package", "block", "recursion",
    "group", "constant_if", "float",
)


def _stage(draw, i, ints, blocks, floats, functions):
    """The bindings of stage ``i``; the names it binds join ``ints`` (integer
    values), ``blocks`` (mutable blocks) or ``floats`` (read only by the
    final sum, as whether each is finite), its top-level functions join
    ``functions``."""
    def pick(names):
        return draw(st.sampled_from(names))

    a, b, c = pick(ints), pick(ints), pick(ints)
    k = draw(st.integers(0, 4))
    name = f"s{i}"
    kind = draw(st.sampled_from(KINDS))
    if kind == "arith":
        op, arity = draw(st.sampled_from(_PURE_OPS))
        args = ", ".join([a, b][:arity])
        form = draw(st.sampled_from([f"{op}({args})", f"add(mul({a}, 3), {b})"]))
        ints.append(name)
        return [f"{name} = {form}"]
    if kind == "if":
        arms = [a, str(k - 2), f"incr({a})", f"sub({b}, {k})",
                f"add(incr({a}), {b})", f"mul(decr({b}), 2)",
                f"blk_sum(bump(mkblock({a}), 1))"]
        cond = draw(st.sampled_from(
            [f"is_less({c}, {b})", c, f"is_less({c}, {k - 2})"]
        ))
        lines = [f"{name} = if {cond} then {pick(arms)} else {pick(arms)}"]
        ints.append(name)
        if draw(st.booleans()):
            lines.append(f"w{i} = add({name}, incr({name}))")
            ints.append(f"w{i}")
        return lines
    if kind == "closure":
        ints.append(name)
        return [f"f{i}(p{i}) add(mul(p{i}, 2), {b})",
                f"{name} = add(f{i}({a}), f{i}(incr({a})))"]
    if kind == "iterate":
        # ``acc`` starts non-negative, so the loop ends even with its two
        # updates swapped.
        ints.append(name)
        return [f"{name} = iterate {{ i{i} = 0, incr(i{i})  acc{i} = mul({a}, {a}), "
                f"add(acc{i}, i{i}) }} while is_less(i{i}, {k}), result acc{i}"]
    if kind == "package":
        ints.extend([name, f"{name}b"])
        if draw(st.booleans()):
            return [f"pkg{i} = <incr({a}), decr({b})>",
                    f"<{name}, {name}b> = pkg{i}"]
        blocks.append(f"w{i}")
        return [f"<{name}, w{i}> = twin(mkblock({a}))", f"{name}b = blk_sum(w{i})"]
    if kind == "block":
        form = draw(st.integers(0, 2)) if blocks else 0
        if form == 0:
            blocks.append(name)
            return [f"{name} = mkblock({a})"]
        src = pick(blocks)
        if form == 1:
            writer = draw(st.sampled_from(["bump", "push"]))
            blocks.append(name)
            return [f"{name} = {writer}({src}, {k})"]
        ints.append(name)
        return [f"{name} = blk_sum({src})"]
    if kind == "recursion":
        ints.append(name)
        form = draw(st.integers(0, 3))
        if form == 0:
            fn = draw(st.sampled_from(["down", "side"]))
            xs = pick(blocks) if blocks and draw(st.booleans()) else f"mkblock({a})"
            return [f"{name} = {fn}({k}, {xs})"]
        if form == 1:
            return [f"{name} = add(tri({k}), {a})"]
        if form == 2:  # a block shared by a recursive writer and a reader
            return [f"y{i} = mkblock({a})",
                    f"{name} = add(both({k}, y{i}), blk_sum(y{i}))"]
        # A written block something else still reads.
        return [f"z{i} = mkblock({a})", f"w{i} = push(z{i}, {k})",
                f"{name} = add(blk_sum(z{i}), blk_sum(w{i}))"]
    if kind == "group":
        lines, entry = _group(draw, i)
        functions.extend(lines)
        ints.append(name)
        return [f"{name} = {entry}({min(k, 2)}, {a})"]
    if kind == "constant_if":  # a condition constprop folds
        x, y = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        ints.append(name)
        return [f"{name} = if is_less({x}, {y}) then add({a}, 1) "
                f"else down({k}, mkblock({a}))"]
    # float: were ``mul`` folded to ``inf``, the two ``let``\ s would
    # print alike whenever the twin is named ``inf``; with a constant
    # addend the first ``x`` is a constant, and the second is not.
    x, y = draw(st.sampled_from(_FLOATS)), draw(st.sampled_from(_FLOATS))
    addend = draw(st.sampled_from([b, str(k)]))
    free = [w for w in _SPELLINGS if w not in ints]
    twin = draw(st.sampled_from(free)) if free else f"v{i}"
    ints.extend([twin, f"{name}b"])
    floats.append(name)
    return [f"{twin} = incr({a})",
            f"{name} = let x = add(mul({x}, {y}), {addend}) in x",
            f"{name}b = let x = add({twin}, {b}) in x"]


@st.composite
def programs(draw):
    """A well-formed, terminating ``main(n)`` over :data:`REGISTRY`."""
    ints, blocks, floats, functions, lines = ["n"], [], [], [], []
    for i in range(draw(st.integers(1, 5))):
        lines.extend(_stage(draw, i, ints, blocks, floats, functions))
    acc = ints[0]
    for other in ints[1:]:
        acc = f"add({acc}, {other})"
    for value in floats:
        acc = f"add({acc}, is_less({value}, 1e308))"
    for block in blocks:
        acc = f"add({acc}, blk_sum({block}))"
    bindings = "\n      ".join(lines)
    return (
        f"main(n)\n  let {bindings}\n  in {acc}\n"
        + "".join(f"{f}\n" for f in functions)
        + LIBRARY
    )


# ---------------------------------------------------------------------------
# The forced sequential paths
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def on_graph_path():
    """Runs made inside take the graph path: no call, the entry's
    included, is clipped.  Each executor decides a node's class once, so
    a run on an executor that already ran the program outside keeps the
    classes it memoized there."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Run, "_clips", lambda self, entry: False)
        yield


def graph_run(graph, args, registry, **options):
    """A sequential run on the graph path: no call clipped."""
    with on_graph_path():
        return SequentialExecutor(**options).run(graph, args, registry)


def calls_run(graph, args, registry, **options):
    """A sequential run whose calls clip but whose entry starts on the
    graph."""

    def no_entry_crown(state):
        row = EntryRow(state.program.entry_template())
        row.crown = None
        return row

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(executors, "entry_row", no_entry_crown)
        return SequentialExecutor(**options).run(graph, args, registry)


def same(got, want):
    """Equal values, ``nan`` equal to ``nan``; the evaluator's package
    equals the tuple a run returns for it."""
    if isinstance(want, MultiValue):
        want = want.items
    if isinstance(got, tuple) and isinstance(want, tuple):
        return len(got) == len(want) and all(map(same, got, want))
    return got == want or (got != got and want != want)


# ---------------------------------------------------------------------------
# Folds: the counters no stat keeps
# ---------------------------------------------------------------------------


class Fold:
    """The metrics registry's counters, folded from ``event_types`` alone
    on ``bus`` (a fresh one when ``None``; pass it to the executor).  What
    a run's stats do not keep — crashes, respawns, timeouts, reclaimed
    segments, tail expansions, the per-operator copy view — a test reads
    here.  (The standard pipeline on the run's own bus would subscribe
    ``TaskFired`` too, which takes a run off the clipped path.)"""

    def __init__(self, bus: EventBus | None, *event_types: type) -> None:
        self.bus = bus if bus is not None else EventBus()
        folded = EventBus()
        self.metrics = attach_metrics(folded)
        self.bus.subscribe(folded.emit, events=event_types)

    def __getitem__(self, counter: str) -> int:
        return int(self.metrics.counter(counter).value)


class CopyView(Fold):
    """Which operator forced which copies: the ``cow_copies`` and
    ``cow_bytes`` counters, labelled by operator, folded from
    ``CowCopy``."""

    def __init__(self, bus: EventBus | None = None) -> None:
        super().__init__(bus, CowCopy)

    def take(self) -> tuple[dict[str, int], dict[str, int]]:
        """``({operator: copies}, {operator: bytes copied})`` since the
        last take; the fold starts afresh."""
        maps = []
        for name in ("cow_copies", "cow_bytes"):
            by_label = self.metrics.counter(name).by_label
            maps.append({op: int(n) for op, n in by_label.items()})
            by_label.clear()
        return maps[0], maps[1]
