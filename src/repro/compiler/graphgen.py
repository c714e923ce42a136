"""Graph conversion: AST functions become coordination-graph templates.

This is the last pass of the Pythia pipeline ("Graph Conversion" in
Table 1).  Each Delirium function becomes a :class:`~repro.graph.ir.Template`;
conditional arms and local functions become auxiliary templates referenced
by ``IF`` and ``CLOSURE`` nodes.  The generated graphs obey the runtime's
two execution assumptions (every node fires exactly once; inputs appear
exactly once), because no control flow remains *inside* a template —
conditionals expand one arm lazily and calls expand callee templates.

Closure conversion: the free variables of a local function or conditional
arm that are bound to *values* in the enclosing template (parameters, let
bindings, other closures) become captures; names that resolve globally
(top-level functions, operators) are re-materialized inside the nested
template with fresh ``CLOSURE``/``OPREF`` nodes instead, so capture lists
stay small.  A recursive local function captures itself through a
placeholder that the runtime ties off when the closure is created.

Tail positions are marked structurally: a ``CALL`` or ``IF`` node whose
output is the template result inherits the parent's continuation at run
time, which is what makes lowered ``iterate`` loops run in constant
activation space.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ArityError, CompileError, UnboundNameError
from ..graph.ir import GraphProgram, Node, NodeKind, Port, Template
from ..lang import ast
from ..runtime.operators import OperatorRegistry
from ..runtime.values import NULL, _SELF
from .analysis import ProgramAnalysis, free_variables
from .symtab import EnvAnalysis


@dataclass
class _Env:
    """Code-generation environment: name -> value location."""

    ports: dict[str, Port] = field(default_factory=dict)
    #: Qualified template name for names bound to local functions (the
    #: closure value itself also lives in ``ports``); used for recursion
    #: and arity facts.
    local_funcs: dict[str, str] = field(default_factory=dict)

    def child(self) -> "_Env":
        return _Env(dict(self.ports), dict(self.local_funcs))


class _TemplateBuilder:
    """Accumulates nodes for one template."""

    def __init__(
        self, name: str, params: list[str], captures: list[str], source: str
    ) -> None:
        self.template = Template(
            name=name,
            params=list(params),
            captures=list(captures),
            source_function=source,
        )
        for p in params:
            self.template.nodes.append(
                Node(kind=NodeKind.PARAM, name=p, label=f"{name}:{p}")
            )
        for c in captures:
            self.template.nodes.append(
                Node(kind=NodeKind.CAPTURE, name=c, label=f"{name}:^{c}")
            )
        self._const_cache: dict[tuple[type, object], Port] = {}

    def add(self, node: Node) -> Port:
        self.template.nodes.append(node)
        return Port(len(self.template.nodes) - 1, 0)

    def const(self, value: object) -> Port:
        key = None
        if isinstance(value, (int, float, str, bool)):
            key = (type(value), value)
            cached = self._const_cache.get(key)
            if cached is not None:
                return cached
        port = self.add(
            Node(kind=NodeKind.CONST, value=value, label=f"const:{value!r}")
        )
        if key is not None:
            self._const_cache[key] = port
        return port

    def placeholder_port(self, name: str) -> Port:
        names = self.template.placeholder_names()
        return Port(names.index(name), 0)

    def finish(self, result: Port) -> Template:
        self.template.result = result
        node = self.template.nodes[result.node]
        if node.kind in (NodeKind.CALL, NodeKind.IF) and result.out == 0:
            node.tail = True
        return self.template.finalize()


class GraphGenerator:
    """Generates a :class:`GraphProgram` from a lowered AST program."""

    def __init__(
        self,
        program: ast.Program,
        env_analysis: EnvAnalysis,
        prog_analysis: ProgramAnalysis,
        registry: OperatorRegistry | None = None,
        strict: bool = True,
    ) -> None:
        self.program = program
        self.env_analysis = env_analysis
        self.prog_analysis = prog_analysis
        self.registry = registry
        self.strict = strict
        self.graph = GraphProgram(entry="main")
        self.top_level = {f.name: f for f in program.functions}
        self._arm_counter: dict[str, int] = {}

    # ------------------------------------------------------------------
    def run(self) -> GraphProgram:
        for f in self.program.functions:
            self._compile_function(f, f.name, captures=[], outer_env=_Env())
        return self.graph

    # ------------------------------------------------------------------
    def _compile_function(
        self,
        f: ast.FunDef,
        qualname: str,
        captures: list[str],
        outer_env: _Env,
        context: str | None = None,
    ) -> Template:
        """Compile one function (or arm) into a template.

        ``context`` is the *logical* enclosing function for recursion
        queries: conditional-arm templates pass their host function's
        qualname, because the environment analysis attributes their calls
        to the host (arms are just expressions of the host's body).
        """
        builder = _TemplateBuilder(
            qualname, f.params, captures, source=qualname.split(".")[0]
        )
        env = _Env(local_funcs=dict(outer_env.local_funcs))
        for p in f.params:
            env.ports[p] = builder.placeholder_port(p)
        for c in captures:
            env.ports[c] = builder.placeholder_port(c)
            # A capture of a local-function closure keeps its identity so
            # recursion facts survive into the nested template.
        result = self._emit(f.body, builder, env, context=context or qualname)
        template = builder.finish(result)
        self.graph.add(template)
        return template

    # ------------------------------------------------------------------
    def _is_operator(self, name: str) -> bool:
        if self.registry is not None:
            return name in self.registry
        return True  # without a registry, any unknown name may be one

    def _resolve_value(
        self, var: ast.Var, builder: _TemplateBuilder, env: _Env, context: str
    ) -> Port:
        """Emit the port carrying the value of ``var``."""
        port = env.ports.get(var.name)
        if port is not None:
            return port
        if var.name in self.top_level:
            return builder.add(
                Node(
                    kind=NodeKind.CLOSURE,
                    template=var.name,
                    label=f"closure:{var.name}",
                )
            )
        if self._is_operator(var.name) or not self.strict:
            # Lenient mode defers the existence check to the runtime
            # (UnknownOperatorError), like linking against a missing symbol.
            return builder.add(
                Node(kind=NodeKind.OPREF, name=var.name, label=f"opref:{var.name}")
            )
        raise UnboundNameError(
            f"{var.name!r} is not bound, not a function, and not a registered "
            "operator",
            var.line,
            var.column,
        )

    # ------------------------------------------------------------------
    def _emit(
        self, e: ast.Expr, builder: _TemplateBuilder, env: _Env, context: str
    ) -> Port:
        if isinstance(e, ast.Literal):
            return builder.const(e.value)
        if isinstance(e, ast.Null):
            return builder.const(NULL)
        if isinstance(e, ast.Var):
            return self._resolve_value(e, builder, env, context)
        if isinstance(e, ast.TupleExpr):
            ports = [self._emit(i, builder, env, context) for i in e.items]
            return builder.add(
                Node(kind=NodeKind.TUPLE, inputs=ports, label=f"tuple/{len(ports)}")
            )
        if isinstance(e, ast.Apply):
            return self._emit_apply(e, builder, env, context)
        if isinstance(e, ast.If):
            return self._emit_if(e, builder, env, context)
        if isinstance(e, ast.Let):
            return self._emit_let(e, builder, env, context)
        if isinstance(e, ast.Iterate):
            raise CompileError(
                "iterate reached graph generation; run lower_program first",
                e.line,
                e.column,
            )
        raise TypeError(f"unexpected AST node {type(e).__name__}")

    # ------------------------------------------------------------------
    def _emit_apply(
        self, e: ast.Apply, builder: _TemplateBuilder, env: _Env, context: str
    ) -> Port:
        arg_ports_later = e.args  # emitted below per branch
        if isinstance(e.callee, ast.Var):
            name = e.callee.name
            # Direct call to a statically known function?
            callee_qual: str | None = None
            if name in env.local_funcs:
                callee_qual = env.local_funcs[name]
            elif name not in env.ports and name in self.top_level:
                callee_qual = name
            if callee_qual is not None:
                callee_port = self._resolve_value(e.callee, builder, env, context)
                args = [self._emit(a, builder, env, context) for a in arg_ports_later]
                recursive = self.prog_analysis.is_recursive_call(
                    context, callee_qual
                )
                return builder.add(
                    Node(
                        kind=NodeKind.CALL,
                        inputs=[callee_port, *args],
                        recursive=recursive,
                        label=f"call:{name}",
                    )
                )
            if name not in env.ports and (
                self._is_operator(name) or not self.strict
            ):
                spec = (
                    self.registry.get(name)
                    if self.registry is not None and name in self.registry
                    else None
                )
                if (
                    spec is not None
                    and spec.arity is not None
                    and spec.arity != len(e.args)
                ):
                    raise ArityError(
                        f"operator {name!r} takes {spec.arity} argument(s), "
                        f"got {len(e.args)}",
                        e.line,
                        e.column,
                    )
                args = [self._emit(a, builder, env, context) for a in arg_ports_later]
                return builder.add(
                    Node(kind=NodeKind.OP, name=name, inputs=args, label=name)
                )
        # General case: computed callee (first-class function value).
        callee_port = self._emit(e.callee, builder, env, context)
        args = [self._emit(a, builder, env, context) for a in arg_ports_later]
        return builder.add(
            Node(
                kind=NodeKind.CALL,
                inputs=[callee_port, *args],
                recursive=False,
                label="call:<dynamic>",
            )
        )

    # ------------------------------------------------------------------
    def _captures_for(
        self, expr_free: list[str], env: _Env
    ) -> list[str]:
        """Free names that must be captured (port-valued in ``env``)."""
        return [name for name in expr_free if name in env.ports]

    def _emit_if(
        self, e: ast.If, builder: _TemplateBuilder, env: _Env, context: str
    ) -> Port:
        cond = self._emit(e.cond, builder, env, context)
        host = builder.template.name
        k = self._arm_counter.get(host, 0) + 1
        self._arm_counter[host] = k

        def make_arm(arm: ast.Expr, which: str) -> tuple[str, list[str]]:
            captures = self._captures_for(free_variables(arm, set()), env)
            name = f"{host}.if${k}.{which}"
            arm_fun = ast.FunDef(
                name=name, params=[], body=arm, line=arm.line, column=arm.column
            )
            self._compile_function(
                arm_fun, name, captures=captures, outer_env=env, context=context
            )
            return name, captures

        then_name, then_caps = make_arm(e.then, "then")
        else_name, else_caps = make_arm(e.orelse, "else")
        inputs = [cond]
        inputs += [env.ports[c] for c in then_caps]
        inputs += [env.ports[c] for c in else_caps]
        return builder.add(
            Node(
                kind=NodeKind.IF,
                inputs=inputs,
                then_template=then_name,
                else_template=else_name,
                n_then_captures=len(then_caps),
                label=f"if${k}",
            )
        )

    # ------------------------------------------------------------------
    def _emit_let(
        self, e: ast.Let, builder: _TemplateBuilder, env: _Env, context: str
    ) -> Port:
        inner = env.child()
        for b in e.bindings:
            if isinstance(b, ast.SimpleBinding):
                inner.ports[b.name] = self._emit(b.expr, builder, inner, context)
            elif isinstance(b, ast.TupleBinding):
                src = self._emit(b.expr, builder, inner, context)
                untuple = Node(
                    kind=NodeKind.UNTUPLE,
                    inputs=[src],
                    n_outputs=len(b.names),
                    label=f"untuple/{len(b.names)}",
                )
                builder.template.nodes.append(untuple)
                node_id = len(builder.template.nodes) - 1
                for i, nm in enumerate(b.names):
                    inner.ports[nm] = Port(node_id, i)
            elif isinstance(b, ast.FunBinding):
                self._emit_funbinding(b, builder, inner, context)
            else:  # pragma: no cover
                raise TypeError(f"unexpected binding {type(b).__name__}")
        return self._emit(e.body, builder, inner, context)

    def _emit_funbinding(
        self,
        b: ast.FunBinding,
        builder: _TemplateBuilder,
        env: _Env,
        context: str,
    ) -> None:
        f = b.func
        qualname = f"{context}.{f.name}"
        bound_here = set(f.params)
        raw_free = free_variables(f.body, bound_here)
        captures: list[str] = []
        self_capture = False
        for name in raw_free:
            if name == f.name:
                self_capture = True
                captures.append(name)
            elif name in env.ports:
                captures.append(name)
        nested_env = env.child()
        nested_env.local_funcs[f.name] = qualname
        self._compile_function(f, qualname, captures=captures, outer_env=nested_env)
        capture_ports: list[Port] = []
        for name in captures:
            if self_capture and name == f.name:
                capture_ports.append(builder.const(_SELF))
            else:
                capture_ports.append(env.ports[name])
        closure_port = builder.add(
            Node(
                kind=NodeKind.CLOSURE,
                template=qualname,
                inputs=capture_ports,
                label=f"closure:{f.name}",
            )
        )
        env.ports[f.name] = closure_port
        env.local_funcs[f.name] = qualname


def generate_graphs(
    program: ast.Program,
    env_analysis: EnvAnalysis,
    prog_analysis: ProgramAnalysis,
    registry: OperatorRegistry | None = None,
    strict: bool = True,
) -> GraphProgram:
    """Convert a lowered, analyzed AST program to coordination graphs."""
    return GraphGenerator(
        program, env_analysis, prog_analysis, registry, strict
    ).run()
