"""Operator fusion: collapse single-exit regions of cheap operators.

Per-fire overhead — ready-queue traffic, activation bookkeeping, and (on
the process executor) a master↔worker round-trip — is charged per *node*,
so a cone of tiny scalar operators pays the coordination tax once per
member.  The paper's advice is structural ("unnecessary nodes in the graph
translate into extra overhead", section 6); this pass automates it at the
graph level, after template generation, with one rule applied in one
descending sweep over each template's nodes:

* a cheap ``OP`` (numeric cost hint at most :data:`FUSE_COST_THRESHOLD`
  ticks, no ``modifies``) whose value is not the template result **joins
  a region exactly when every reader of that value already belongs to
  that one region**; otherwise it becomes the *exit* of a new region.  A
  region is therefore a maximal fan-in cone with a single exit: convex
  (a path that left it could only re-enter through a cycle) and acyclic
  against every other region.  Each region that saves a fire becomes one
  fused ``OP`` whose :attr:`~repro.graph.ir.Node.fused` recipe replays
  the members in topological order inside a single Python frame;
* an ``IF`` whose arms hold only captures, atomic constants and cheap
  operators is a member too (**if-conversion**): its arms' operators
  become *guarded* steps before a *select*, so the untaken arm never runs;
* an ``UNTUPLE`` whose package comes from an ``OP`` read by nothing else
  absorbs that node **regardless of its cost** (the ``split -> untuple``
  shape of every retina scatter: two fires become one); the region grows
  past the producer only when the producer is itself cheap.

A single-exit region **never delays a consumer**: the exit needed every
region input before it could fire anyway (an ``IF`` waits for both arms'
captures), and an interior value has no reader outside the region, so
nothing waits for an input it does not use.  That is why the rule stops
here.  Staying out, each needing its own sizing: multi-exit regions (one
exit's reader would wait for inputs only another exit needs),
``modifies`` members (copy-on-write decisions are per-node and must stay
observable), callable and calibrated cost hints (unknown until run time),
and arms holding more than cheap operators.  Results are bit-identical by
construction: the composed callable applies exactly the member functions
to exactly the values the dataflow edges would have carried.

The pass mutates templates in place and re-finalizes them; run it after
``prune_unreachable`` so dead templates are not wasted effort.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...graph.ir import GraphProgram, Node, NodeKind, Port, Template
from ...runtime.operators import SELECT, OperatorRegistry, OperatorSpec, fused_name
from ...runtime.values import NULL
from ..analysis import ProgramAnalysis

#: Operators whose numeric cost hint is at or below this many simulated
#: ticks count as "cheap" for OP->OP fusion.  Chosen well above the
#: builtin scalar helpers (cost 1-2) and well below any kernel a Delirium
#: program would want dispatched on its own.
FUSE_COST_THRESHOLD = 100.0

#: Regions of at most this many steps spell every member in their
#: ``label`` (it lands in each ``TaskFired`` / timing-report row); longer
#: ones read ``first+…+exit (N ops)``.  No chain the old rule fused in a
#: shipped program or benchmark workload was longer (fanout sums 31
#: terms), so a region that was a chain keeps its label and its bytes.
#: The full recipe stays in ``name`` / ``fused`` / ``describe()``.
LABEL_FULL_OPS = 32


def _cheap(spec: OperatorSpec) -> bool:
    """Cheap enough to fuse through: no hint (machine default, tiny) or a
    numeric hint at most :data:`FUSE_COST_THRESHOLD`.  Callable hints are
    conservatively expensive — their value is unknown until run time."""
    if spec.cost is None:
        return True
    if callable(spec.cost):
        return False
    return float(spec.cost) <= FUSE_COST_THRESHOLD


def _folds(
    graph: GraphProgram, registry: OperatorRegistry
) -> dict[tuple[str, str], int]:
    """The operator count of every ``(then, else)`` arm pair an ``IF`` may
    fold: arms of nothing but captures, atomic constants and cheap,
    unfused, non-``modifies`` operators reading earlier nodes.  Such arms
    hold no ``IF``, so the pass grows no region in them and reads them as
    graphgen emitted them; those left unreachable are dropped."""
    ops: dict[str, int] = {}
    for name, template in graph.templates.items():
        count = 0
        for i, node in enumerate(template.nodes):
            spec = registry.get(node.name) if node.name in registry else None
            if (
                node.kind is NodeKind.OP and spec and not spec.modifies
                and _cheap(spec) and all(p.node < i for p in node.inputs)
            ):
                count += 1
            elif node.kind is not NodeKind.CAPTURE and not (
                node.kind is NodeKind.CONST
                and (node.value is NULL or type(node.value) in (int, float, str, bool))
            ):
                break
        else:
            ops[name] = count
    pairs = [
        (n.then_template, n.else_template)
        for t in graph.templates.values() for n in t.nodes if n.kind is NodeKind.IF
    ]
    return {p: ops[p[0]] + ops[p[1]] for p in pairs if p[0] in ops and p[1] in ops}


@dataclass
class _Region:
    """One single-exit cone: its members (collected exit-first, so in
    descending node id), the absorbed untuple, if that is the exit, and
    how many operators the arms of its member ``IF``\\ s hold."""

    members: list[int]
    untuple: int | None = None
    arm_ops: int = 0


def _reading_region(
    template: Template, node_id: int, region_of: dict[int, _Region]
) -> _Region | None:
    """The one region *every* reader of ``node_id``'s value belongs to.

    ``None`` when the value has no reader, a reader outside any region,
    readers in two regions, or is the template result (the engine delivers
    results from live ports; a fused interior has no live port)."""
    consumers = template.consumers[node_id][0]
    if not consumers or template.result_node == node_id:
        return None
    region = region_of.get(consumers[0][0])
    for dest, _ in consumers:
        if region_of.get(dest) is not region:
            return None
    return region


def _find_regions(
    template: Template, registry: OperatorRegistry, folds: dict
) -> list[_Region]:
    """One descending sweep: readers are placed before what they read, so
    "every reader is in region R" is decidable when a node is reached."""
    region_of: dict[int, _Region] = {}
    regions: list[_Region] = []
    for n in range(len(template.nodes) - 1, -1, -1):
        node = template.nodes[n]
        arm_ops = 0
        if node.kind is NodeKind.UNTUPLE:
            region_of[n] = region = _Region([], untuple=n)
            regions.append(region)
            continue
        if node.kind is NodeKind.IF:
            arm_ops = folds.get((node.then_template, node.else_template))
            if arm_ops is None:
                continue
            cheap = True
        elif node.kind is NodeKind.OP and node.name in registry:
            spec = registry.get(node.name)
            if spec.modifies:
                continue
            cheap = _cheap(spec)
        else:
            continue
        region = _reading_region(template, n, region_of)
        # An untuple takes the producer it alone reads whatever that costs
        # (the pair always collapses to one fire); every other member is cheap.
        if not cheap and (
            region is None or region.untuple is None or region.members
        ):
            continue
        if region is None:
            region = _Region([])  # n is the exit of a new region
            regions.append(region)
        region.members.append(n)
        region.arm_ops += arm_ops
        if cheap:  # nothing is fused *through* an operator that is not
            region_of[n] = region
    # Kept when it fires less fused: once, where its members, its untuple
    # and the operators of its members' arms fired one by one.
    return [
        r for r in regions if len(r.members) + (r.untuple is not None) + r.arm_ops > 1
    ]


def _label(names: list[str], untuple_n: int) -> str:
    tail = "+untuple" if untuple_n else ""
    if len(names) <= LABEL_FULL_OPS:
        return "+".join(names) + tail
    return f"{names[0]}+…+{names[-1]}{tail} ({len(names)} ops)"


def _fuse_region(template: Template, region: _Region, graph: GraphProgram) -> int:
    """Rewrite the region's exit in place as the fused super-node and
    return its id.

    Rewriting the *exit* (the untuple, when absorbed) keeps every
    downstream port reference valid — consumers already point at its
    outputs.  Interior members are deleted afterwards in one renumbering
    sweep per template.  Steps are emitted in ascending node id, a folded
    ``IF`` as its then-arm's guarded steps, its else-arm's, its select;
    its arms' constants are appended to the template as ``CONST`` nodes,
    one per type and value."""
    nodes = template.nodes
    members = region.members[::-1]
    value_of: dict[int, tuple[str, int]] = {}
    ext_slots: dict[Port, int] = {}
    hoisted: dict[tuple[type, str], Port] = {}
    steps: list[tuple] = []

    def ref(port: Port) -> tuple[str, int]:
        if port.node in region.members:  # an earlier step, or a KeyError
            return value_of[port.node]
        return ("i", ext_slots.setdefault(port, len(ext_slots)))

    def hoist(const: Node) -> tuple[str, int]:
        key = (type(const.value), repr(const.value))
        if key not in hoisted:
            hoisted[key] = Port(len(nodes))
            nodes.append(
                Node(kind=NodeKind.CONST, value=const.value, label=const.label)
            )
        return ref(hoisted[key])

    for m in members:
        node = nodes[m]
        if node.kind is NodeKind.IF:
            cond, results = ref(node.inputs[0]), []
            for arm_name, first, taken in (
                (node.then_template, 1, True),
                (node.else_template, 1 + node.n_then_captures, False),
            ):
                arm, local = graph.template(arm_name), []
                for i, arm_node in enumerate(arm.nodes):
                    if arm_node.kind is NodeKind.CAPTURE:
                        local.append(ref(node.inputs[first + i]))
                    elif arm_node.kind is NodeKind.CONST:
                        local.append(hoist(arm_node))
                    else:
                        args = tuple(local[p.node] for p in arm_node.inputs)
                        steps.append((arm_node.name, args, (cond, taken)))
                        local.append(("t", len(steps) - 1))
                results.append(local[arm.result_node])
            steps.append((SELECT, (cond, *results)))
        else:
            steps.append((node.name, tuple(ref(p) for p in node.inputs)))
        value_of[m] = ("t", len(steps) - 1)

    target = members[-1] if region.untuple is None else region.untuple
    untuple_n = 0 if region.untuple is None else nodes[target].n_outputs
    nodes[target] = Node(
        kind=NodeKind.OP,
        inputs=list(ext_slots),
        n_outputs=untuple_n or 1,
        name=fused_name(steps, untuple_n),
        fused=(tuple(steps), untuple_n),
        label=_label([step[0] for step in steps], untuple_n),
    )
    return target


def _remove_nodes(template: Template, removed: set[int]) -> None:
    old_nodes = template.nodes
    old2new: dict[int, int] = {}
    kept: list[Node] = []
    for old_id, node in enumerate(old_nodes):
        if old_id in removed:
            continue
        old2new[old_id] = len(kept)
        kept.append(node)
    for node in kept:
        node.inputs = [Port(old2new[p.node], p.out) for p in node.inputs]
    assert template.result is not None
    template.result = Port(old2new[template.result.node], template.result.out)
    template.nodes = kept
    template.finalize()


def run(
    graph: GraphProgram, analysis: ProgramAnalysis, registry: OperatorRegistry
) -> dict[str, int]:
    """Fuse every template in ``graph`` in place; return pass statistics.

    Statistics use the pipeline's ``pass.stat`` key convention so they
    merge into an :class:`~repro.compiler.passes.pipeline.
    OptimizationReport` unchanged: ``fuse.chains_fused`` (regions; the key
    predates them), ``fuse.ops_fused`` (members, folded ``IF``\\ s
    included), ``fuse.untuples_absorbed``, ``fuse.nodes_removed``.
    """
    regions_fused = 0
    ops_fused = 0
    untuples = 0
    nodes_removed = 0
    folds = _folds(graph, registry)
    arms = {arm for pair in folds for arm in pair}
    for name, template in graph.templates.items():
        regions = [] if name in arms else _find_regions(
            template, registry, folds
        )
        if not regions:
            continue
        removed: set[int] = set()
        for region in regions:
            exit_id = _fuse_region(template, region, graph)
            removed.update(m for m in region.members if m != exit_id)
            ops_fused += len(region.members)
            untuples += region.untuple is not None
        regions_fused += len(regions)
        _remove_nodes(template, removed)
        nodes_removed += len(removed)
    for arm in arms - graph.reachable_templates():
        del graph.templates[arm]
    if not regions_fused:
        return {}
    return {
        "fuse.chains_fused": regions_fused,
        "fuse.ops_fused": ops_fused,
        "fuse.untuples_absorbed": untuples,
        "fuse.nodes_removed": nodes_removed,
    }
