"""The Gantt timeline tool and copy attribution."""

from repro.apps.retina import RetinaConfig, compile_retina
from repro.machine import SimulatedExecutor, cray_2
from repro.runtime.tracing import Tracer
from repro.tools import gantt, utilization_per_processor

from .programs import CopyView


def synthetic_trace() -> Tracer:
    t = Tracer()
    t.record("alpha", "op", 50, start=0, processor=0)
    t.record("beta", "op", 100, start=0, processor=1)
    t.record("alpha", "op", 50, start=50, processor=0)
    return t


class TestGantt:
    def test_rows_per_processor(self):
        art = gantt(synthetic_trace(), n_processors=2, width=20)
        lines = art.splitlines()
        assert lines[0].startswith("P0 |")
        assert lines[1].startswith("P1 |")

    def test_legend_present(self):
        art = gantt(synthetic_trace(), n_processors=2, width=20)
        assert "legend:" in art
        assert "alpha" in art and "beta" in art

    def test_busy_processor_fills_row(self):
        art = gantt(synthetic_trace(), n_processors=2, width=20)
        p1 = art.splitlines()[1]
        body = p1[p1.index("|") + 1 : p1.rindex("|")]
        assert "." not in body  # beta spans the whole makespan

    def test_empty_trace(self):
        assert gantt(Tracer(), 2) == "(empty trace)"

    def test_retina_v1_timeline_shows_idle_processors(self):
        # The visual version of the section 5.2 story: during post_up's
        # expensive half, three of four processors are idle.
        compiled = compile_retina(1, RetinaConfig(num_iter=1))
        result = SimulatedExecutor(cray_2(4), trace=True).run(
            compiled.graph, registry=compiled.registry
        )
        assert result.tracer is not None
        art = gantt(result.tracer, 4, width=60)
        idle_chars = sum(line.count(".") for line in art.splitlines()[:4])
        assert idle_chars > 40  # substantial idle area

    def test_distinct_glyphs(self):
        t = Tracer()
        for i, label in enumerate(["aa", "ab", "ba"]):
            t.record(label, "op", 10, start=i * 10, processor=0)
        art = gantt(t, 1, width=30, min_fraction=0.0)
        row = art.splitlines()[0]
        body = row[row.index("|") + 1 : row.rindex("|")]
        assert len({c for c in body if c != "."}) == 3


class TestUtilization:
    def test_per_processor_fractions(self):
        u = utilization_per_processor(synthetic_trace(), 2)
        assert u[1] == 1.0
        assert u[0] == 1.0  # two 50-tick spans over a 100-tick makespan

    def test_empty(self):
        assert utilization_per_processor(Tracer(), 3) == [0.0, 0.0, 0.0]


class TestCopyAttribution:
    def test_copies_attributed_to_forcing_operator(self):
        from repro import compile_source, default_registry
        from repro.runtime import SequentialExecutor

        reg = default_registry()
        reg.register(name="mk")(lambda: [0] * 100)
        reg.register(name="wr", modifies=(0,))(
            lambda l, v: (l.__setitem__(0, v), l)[1]
        )
        reg.register(name="rd", pure=True)(lambda l: l[0])
        compiled = compile_source(
            """
            main()
              let b = mk()
                  x = wr(b, 1)
                  y = wr(b, 2)
                  z = wr(b, 3)
              in <rd(x), rd(y), rd(z)>
            """,
            registry=reg,
        )
        view = CopyView()
        result = SequentialExecutor(bus=view.bus).run(
            compiled.graph, registry=reg
        )
        assert result.value == (1, 2, 3)
        copies, nbytes = view.take()
        assert copies == {"wr": result.stats.cow_copies}
        assert result.stats.cow_copies > 0
        assert nbytes["wr"] > 0
