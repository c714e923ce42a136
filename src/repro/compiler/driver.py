"""The Pythia compiler driver: source text to coordination graphs.

Pipeline (the pass names and order are exactly the rows of Table 1 in the
paper, and per-pass wall times are recorded under those names)::

    Lexing            scan the (macro-expanded) source into tokens
    Parsing           recursive-descent parse to an AST
    Macro Expansion   symbolic-constant substitution (textual, but timed
                      as its own pass like the original)
    Env Analysis      scoping, single-assignment, arity, free variables
    Optimization      inline + constprop + CSE + DCE, each function to its
                      fixpoint, callees first; dead functions dropped
    Graph Conversion  iterate lowering + template generation + the enabled
                      passes' graph halves

``iterate`` is lowered right after parsing, so every later stage sees a
program without one (:func:`~.lowering.lower_program` states the
contract).  Which passes exist, and in what order their halves run, is
:data:`~.passes.pipeline.PASSES`; this module names none of them.

The result is a :class:`CompiledProgram`: coordination graphs plus the
registry they were checked against, runnable on any executor.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from ..graph.ir import GraphProgram
from ..lang import ast
from ..lang.lexer import tokenize
from ..lang.parser import Parser
from ..lang.preprocessor import preprocess
from ..runtime.executors import RunResult, SequentialExecutor
from ..runtime.operators import OperatorRegistry, default_registry
from .analysis import analyze_program
from .graphgen import generate_graphs
from .lowering import lower_program
from .passes.pipeline import (
    GRAPH_PASS_ORDER,
    PASS_ORDER,
    PASSES,
    OptimizationReport,
    optimize,
)
from .symtab import analyze

#: Table 1 pass names, in the paper's order.
PASS_NAMES = (
    "Lexing",
    "Parsing",
    "Macro Expansion",
    "Env Analysis",
    "Optimization",
    "Graph Conversion",
)


@dataclass
class CompiledProgram:
    """A compiled Delirium program plus everything learned on the way."""

    graph: GraphProgram
    source_ast: ast.Program
    registry: OperatorRegistry
    optimization: OptimizationReport | None
    #: Wall seconds per compiler pass, keyed by the Table 1 names.
    pass_seconds: dict[str, float] = field(default_factory=dict)

    def run(
        self,
        args: tuple[Any, ...] = (),
        executor: Any | None = None,
    ) -> RunResult:
        """Execute the program (sequentially unless given an executor)."""
        executor = executor or SequentialExecutor()
        return executor.run(self.graph, args=args, registry=self.registry)


def compile_source(
    source: str,
    registry: OperatorRegistry | None = None,
    defines: dict[str, object] | None = None,
    optimize_passes: tuple[str, ...] | None = PASS_ORDER,
    strict: bool = True,
    entry: str = "main",
    prelude: bool = False,
) -> CompiledProgram:
    """Compile Delirium source text to coordination graphs.

    Parameters
    ----------
    source:
        Delirium program text (may contain ``#define`` directives).
    registry:
        Operator registry the program is checked against; defaults to the
        builtins.  Strict compilation rejects names that are neither bound,
        functions, nor registered operators.
    defines:
        Symbolic-constant values (the preprocessor's input), e.g.
        ``{"NUM_ITER": 4}``.
    optimize_passes:
        Which passes of :data:`~.passes.pipeline.PASSES` to run (``None``
        or ``()`` disables all — useful for ablations and for differential
        testing of the passes); a name enables both its halves.  The
        default is the passes with an AST half; the graph-only operator
        fusion pass is *not* in it, so default compilations keep the
        paper's graph shapes (the CLI enables it by default via
        ``--fuse``).  A fused node carries only its recipe; every process
        that runs it generates and binds the body itself
        (:func:`~repro.runtime.operators.fused_spec`).
    strict:
        Enforce unbound-name errors during environment analysis.
    entry:
        Name of the entry function (``main`` by convention).
    prelude:
        Prepend the coordination-structure prelude (section 9.2
        extension): ``par_index_map``, ``par_reduce``, ``par_split``.
    """
    registry = registry if registry is not None else default_registry()
    seconds: dict[str, float] = {}

    if prelude:
        from ..lang.prelude import PRELUDE_SOURCE

        source = PRELUDE_SOURCE + "\n" + source

    t0 = time.perf_counter()
    expanded = preprocess(source, defines)
    seconds["Macro Expansion"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    tokens = tokenize(expanded)
    seconds["Lexing"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    program = Parser(tokens).parse_program()
    seconds["Parsing"] = time.perf_counter() - t0

    # Lower iterate first: every later stage relies on none being left.
    t_lower0 = time.perf_counter()
    lower_program(program)
    lowering_seconds = time.perf_counter() - t_lower0

    t0 = time.perf_counter()
    analyze(program, known_operators=registry.names(), strict=strict)
    seconds["Env Analysis"] = time.perf_counter() - t0

    enabled = tuple(optimize_passes or ())
    ast_passes = tuple(p for p in enabled if p not in GRAPH_PASS_ORDER)
    t0 = time.perf_counter()
    report: OptimizationReport | None = None
    if ast_passes:
        report = optimize(program, registry, enabled=ast_passes, entry=entry)
    seconds["Optimization"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    env = analyze(program, known_operators=registry.names(), strict=strict)
    prog_analysis = analyze_program(env, pure_operators=registry.pure_names())
    graph = generate_graphs(program, env, prog_analysis, registry, strict)
    graph.entry = entry
    graph.entry_template()  # fail fast if the entry is missing
    graph.prune_unreachable()
    for name, _, graph_half in PASSES:
        if graph_half is None or name not in enabled:
            continue
        pass_stats = graph_half(graph, prog_analysis, registry)
        if report is None:
            report = OptimizationReport()
        if name not in report.enabled:
            report.enabled += (name,)
        for key, count in pass_stats.items():
            report.stats[key] = report.stats.get(key, 0) + count
    seconds["Graph Conversion"] = time.perf_counter() - t0 + lowering_seconds

    return CompiledProgram(
        graph=graph,
        source_ast=program,
        registry=registry,
        optimization=report,
        pass_seconds=seconds,
    )


def compile_file(
    path: str,
    registry: OperatorRegistry | None = None,
    defines: dict[str, object] | None = None,
    **kwargs: Any,
) -> CompiledProgram:
    """Compile a ``.dlm`` source file (see :func:`compile_source`)."""
    with open(path, "r", encoding="utf-8") as fh:
        return compile_source(fh.read(), registry, defines, **kwargs)


def run_source(
    source: str,
    args: tuple[Any, ...] = (),
    registry: OperatorRegistry | None = None,
    defines: dict[str, object] | None = None,
    executor: Any | None = None,
    **kwargs: Any,
) -> Any:
    """Compile and execute in one call; returns the program's result value."""
    compiled = compile_source(source, registry, defines, **kwargs)
    return compiled.run(args=args, executor=executor).value
