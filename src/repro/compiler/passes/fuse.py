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
  against every other region.  Each region of two or more nodes becomes
  one fused ``OP`` whose :attr:`~repro.graph.ir.Node.fused` recipe replays
  the members in topological order inside a single Python frame;
* an ``UNTUPLE`` whose package comes from an ``OP`` read by nothing else
  absorbs that node **regardless of its cost** (the ``split -> untuple``
  shape of every retina scatter: two fires become one); the region grows
  past the producer only when the producer is itself cheap.

A single-exit region **never delays a consumer**: the exit needed every
region input before it could fire anyway, and an interior value has no
reader outside the region, so nothing waits for an input it does not
use.  That is why the rule stops here.  Staying out, each needing its own
sizing: multi-exit regions (one exit's reader would wait for inputs only
another exit needs), ``modifies`` members (copy-on-write decisions are
per-node and must stay observable), callable and calibrated cost hints
(unknown until run time), and if-conversion.  Fusion never crosses
template boundaries and never touches expanding nodes
(``CALL``/``IF``/``CLOSURE``).  Results are bit-identical by
construction: the composed callable applies exactly the member functions
to exactly the values the dataflow edges would have carried
(intermediate values simply never pass through the block layer).

The pass mutates templates in place and re-finalizes them; run it after
``prune_unreachable`` so dead templates are not wasted effort.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...graph.ir import GraphProgram, Node, NodeKind, Port, Template
from ...runtime.operators import OperatorRegistry, OperatorSpec

#: Operators whose numeric cost hint is at or below this many simulated
#: ticks count as "cheap" for OP->OP fusion.  Chosen well above the
#: builtin scalar helpers (cost 1-2) and well below any kernel a Delirium
#: program would want dispatched on its own.
FUSE_COST_THRESHOLD = 100.0

#: Regions of at most this many operators spell every member in their
#: ``label`` (it lands in each ``TaskFired`` / timing-report row); longer
#: ones read ``first+…+exit (N ops)``.  No chain the old rule fused in a
#: shipped program or benchmark workload was longer (fanout sums 31
#: terms), so a region that was a chain keeps its label and its bytes.
#: The full recipe stays in ``name`` / ``fused`` / ``describe()``.
LABEL_FULL_OPS = 32


def _cheap(spec: OperatorSpec, threshold: float) -> bool:
    """Cheap enough to fuse through: no hint (machine default, tiny) or a
    numeric hint under the threshold.  Callable hints are conservatively
    expensive — their value is unknown until run time."""
    if spec.cost is None:
        return True
    if callable(spec.cost):
        return False
    return float(spec.cost) <= threshold


@dataclass
class _Region:
    """One single-exit cone: its ``OP`` members (collected exit-first, so
    in descending node id) and the absorbed untuple, if that is the exit."""

    members: list[int]
    untuple: int | None = None


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
    template: Template, registry: OperatorRegistry, threshold: float
) -> list[_Region]:
    """One descending sweep: readers are placed before what they read, so
    "every reader is in region R" is decidable when a node is reached."""
    region_of: dict[int, _Region] = {}
    regions: list[_Region] = []
    for n in range(len(template.nodes) - 1, -1, -1):
        node = template.nodes[n]
        if node.kind is NodeKind.UNTUPLE:
            region_of[n] = region = _Region([], untuple=n)
            regions.append(region)
            continue
        if node.kind is not NodeKind.OP or node.name not in registry:
            continue
        spec = registry.get(node.name)
        if spec.modifies:
            continue
        cheap = _cheap(spec, threshold)
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
        if cheap:  # nothing is fused *through* an operator that is not
            region_of[n] = region
    return [r for r in regions if len(r.members) + (r.untuple is not None) > 1]


def _label(names: list[str], untuple_n: int) -> str:
    tail = "+untuple" if untuple_n else ""
    if len(names) <= LABEL_FULL_OPS:
        return "+".join(names) + tail
    return f"{names[0]}+…+{names[-1]}{tail} ({len(names)} ops)"


def _fuse_region(template: Template, region: _Region) -> int:
    """Rewrite the region's exit in place as the fused super-node and
    return its id.

    Rewriting the *exit* (the untuple, when absorbed) keeps every
    downstream port reference valid — consumers already point at its
    outputs.  Interior members are deleted afterwards in one renumbering
    sweep per template.  Steps are emitted in ascending node id."""
    nodes = template.nodes
    members = region.members[::-1]
    step_index = {m: j for j, m in enumerate(members)}

    ext_slots: dict[Port, int] = {}
    steps = []
    for j, m in enumerate(members):
        refs = []
        for port in nodes[m].inputs:
            step = step_index.get(port.node)
            if step is None:
                refs.append(("i", ext_slots.setdefault(port, len(ext_slots))))
            else:
                # A ("t", j) may only name an earlier step: the sweep puts
                # a reader before what it reads, so ascending ids order a
                # region topologically — checked, not assumed.
                assert step < j, (template.name, m, port.node)
                refs.append(("t", step))
        steps.append((nodes[m].name, tuple(refs)))

    target = members[-1] if region.untuple is None else region.untuple
    untuple_n = 0 if region.untuple is None else nodes[target].n_outputs
    parts = [
        f"{name}({','.join(kind + str(k) for kind, k in refs)})"
        for name, refs in steps
    ]
    if untuple_n:
        parts.append(f"untuple{untuple_n}")
    nodes[target] = Node(
        kind=NodeKind.OP,
        inputs=list(ext_slots),
        n_outputs=untuple_n or 1,
        name="fused:" + ";".join(parts),
        fused=(tuple(steps), untuple_n),
        label=_label([name for name, _ in steps], untuple_n),
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
    graph: GraphProgram,
    registry: OperatorRegistry,
    cost_threshold: float = FUSE_COST_THRESHOLD,
) -> dict[str, int]:
    """Fuse every template in ``graph`` in place; return pass statistics.

    Statistics use the pipeline's ``pass.stat`` key convention so they
    merge into an :class:`~repro.compiler.passes.pipeline.
    OptimizationReport` unchanged: ``fuse.chains_fused`` (regions; the key
    predates them), ``fuse.ops_fused``, ``fuse.untuples_absorbed``,
    ``fuse.nodes_removed``.
    """
    regions_fused = 0
    ops_fused = 0
    untuples = 0
    nodes_removed = 0
    for template in graph.templates.values():
        regions = _find_regions(template, registry, cost_threshold)
        if not regions:
            continue
        removed: set[int] = set()
        for region in regions:
            exit_id = _fuse_region(template, region)
            removed.update(m for m in region.members if m != exit_id)
            ops_fused += len(region.members)
            untuples += region.untuple is not None
        regions_fused += len(regions)
        _remove_nodes(template, removed)
        nodes_removed += len(removed)
        # Fusion changes port fan-outs, so any pre-existing last-use
        # annotations on this template are stale; drop them and let the
        # donation pass (which always runs after fusion) recompute facts
        # on the final graph shape.  Dropping is the safe direction — a
        # missing donation is just a skipped optimization.
        for node in template.nodes:
            node.donated = None
    if not regions_fused:
        return {}
    return {
        "fuse.chains_fused": regions_fused,
        "fuse.ops_fused": ops_fused,
        "fuse.untuples_absorbed": untuples,
        "fuse.nodes_removed": nodes_removed,
    }
