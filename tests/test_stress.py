"""Stress shapes: deep recursion, wide fan-outs, long loops, big graphs."""

import pytest

from repro import compile_source, default_registry
from repro.machine import SimulatedExecutor, uniform


class TestDepth:
    @pytest.mark.usefixtures("graph_path")
    def test_deep_non_tail_recursion(self):
        # 800 live activations unwound through the ready queue — no
        # Python recursion blowup (deliveries cross task boundaries).
        compiled = compile_source(
            """
            main(n) sum_to(n)
            sum_to(n) if n then add(n, sum_to(sub(n, 1))) else 0
            """
        )
        result = compiled.run(args=(800,))
        assert result.value == 800 * 801 // 2
        assert result.stats.activation_stats["peak_live"] >= 800

    def test_deep_tail_recursion_is_constant_space(self):
        compiled = compile_source(
            """
            main(n) go(0, n)
            go(i, n) if is_less(i, n) then go(incr(i), n) else i
            """
        )
        result = compiled.run(args=(5000,))
        assert result.value == 5000
        assert result.stats.activation_stats["peak_live"] <= 3

    def test_long_iterate(self):
        compiled = compile_source(
            "main(n) iterate { i = 0, incr(i)  s = 0, add(s, i) }"
            " while is_less(i, n), result s"
        )
        assert compiled.run(args=(2000,)).value == 2000 * 1999 // 2

    def test_deeply_nested_conditionals(self):
        depth = 60
        expr = "n"
        for _ in range(depth):
            expr = f"if is_greater(n, 0) then {expr} else neg(n)"
        compiled = compile_source(f"main(n) {expr}")
        assert compiled.run(args=(5,)).value == 5
        assert compiled.run(args=(-5,)).value == 5


class TestWidth:
    def test_wide_fork_join(self):
        width = 200
        reg = default_registry()
        reg.register(name="leaf", pure=True, cost=100.0)(lambda i: i)
        bindings = "\n      ".join(f"w{i} = leaf({i})" for i in range(width))
        acc = "w0"
        for i in range(1, width):
            acc = f"add({acc}, w{i})"
        compiled = compile_source(
            f"main()\n  let {bindings}\n  in {acc}", registry=reg
        )
        result = SimulatedExecutor(uniform(64)).run(
            compiled.graph, registry=reg
        )
        assert result.value == width * (width - 1) // 2
        # 200 independent leaves on 64 processors: ~4 waves.
        assert result.ticks < 100.0 * (width / 64 + 2) + width * 2

    def test_wide_dynamic_map(self):
        compiled = compile_source(
            "main(n) par_index_map(incr, 0, n)", prelude=True
        )
        value = compiled.run(args=(300,)).value
        assert value == list(range(1, 301))


class TestBigPrograms:
    def test_many_functions(self):
        n = 120
        parts = [f"f{i}(x) incr(f{i + 1}(x))" for i in range(n - 1)]
        parts.append(f"f{n - 1}(x) incr(x)")
        source = f"main(x) f0(x)\n" + "\n".join(parts)
        compiled = compile_source(source, optimize_passes=("constprop", "dce"))
        assert compiled.run(args=(0,)).value == n

    @pytest.mark.usefixtures("graph_path")
    def test_inliner_collapses_call_chain(self):
        n = 30
        parts = [f"g{i}(x) g{i + 1}(incr(x))" for i in range(n - 1)]
        parts.append(f"g{n - 1}(x) x")
        source = "main(x) g0(x)\n" + "\n".join(parts)
        full = compile_source(source)
        bare = compile_source(source, optimize_passes=())
        assert full.run(args=(0,)).value == bare.run(args=(0,)).value == n - 1
        # The chain inlines away: far fewer expansions at run time.
        assert (
            full.run(args=(0,)).stats.expansions
            < bare.run(args=(0,)).stats.expansions
        )
