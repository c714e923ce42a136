"""Corner coverage: values, truthiness, driver, preprocessor quirks."""

import numpy as np
import pytest

from repro import compile_source
from repro.compiler import compile_file
from repro.errors import SingleAssignmentError
from repro.runtime import (
    NULL,
    MultiValue,
    OperatorValue,
    SequentialExecutor,
    default_registry,
    is_truthy,
)
from repro.runtime.blocks import DataBlock


class TestValues:
    def test_null_singleton(self):
        from repro.runtime.values import _Null

        assert _Null() is NULL
        assert not NULL
        assert repr(NULL) == "NULL"

    def test_null_survives_pickling(self):
        import pickle

        assert pickle.loads(pickle.dumps(NULL)) is NULL

    def test_multivalue_repr_and_len(self):
        mv = MultiValue((1, "a"))
        assert len(mv) == 2
        assert repr(mv) == "<1, 'a'>"

    def test_operator_value_repr(self):
        assert repr(OperatorValue("incr")) == "operator:incr"


class TestTruthiness:
    def test_null_is_false(self):
        assert not is_truthy(NULL)

    def test_numbers(self):
        assert is_truthy(1) and is_truthy(-2) and not is_truthy(0)

    def test_block_judged_by_payload(self):
        assert is_truthy(DataBlock([1]))
        assert not is_truthy(DataBlock([]))

    def test_a_call_performs_no_import(self, monkeypatch):
        import builtins

        from repro.runtime import values

        imports = []
        real = builtins.__import__
        monkeypatch.setattr(
            builtins, "__import__",
            lambda *a, **k: imports.append(a[0]) or real(*a, **k),
        )
        for value in (NULL, 0, 3, "", DataBlock([1]), DataBlock([])):
            is_truthy(value)
        assert imports == []
        # The old home re-exports the one function.
        assert values.is_truthy is is_truthy

    def test_multielement_array_condition_raises(self):
        reg = default_registry()
        reg.register(name="arr")(lambda: np.array([1, 2]))
        compiled = compile_source(
            "main() if arr() then 1 else 2", registry=reg
        )
        with pytest.raises(Exception):
            SequentialExecutor().run(compiled.graph, registry=reg)

    def test_block_condition_in_program(self):
        reg = default_registry()
        reg.register(name="full")(lambda: [1])
        reg.register(name="empty")(lambda: [])
        compiled = compile_source(
            "main() <if full() then 1 else 2, if empty() then 1 else 2>",
            registry=reg,
        )
        assert SequentialExecutor().run(compiled.graph, registry=reg).value == (1, 2)


class TestFirstClassModifyingOperator:
    def test_modifies_respected_through_operator_value(self):
        reg = default_registry()
        reg.register(name="mk")(lambda: [0])
        reg.register(name="set9", modifies=(0,))(
            lambda l: (l.__setitem__(0, 9), l)[1]
        )
        reg.register(name="head", pure=True)(lambda l: l[0])
        compiled = compile_source(
            """
            main()
              let apply_fn(f, x) f(x)
                  b = mk()
                  w = apply_fn(set9, b)
              in <head(w), head(b)>
            """,
            registry=reg,
        )
        # set9 invoked through a first-class operator value must still
        # copy-on-write: b keeps 0.
        value = SequentialExecutor().run(compiled.graph, registry=reg).value
        assert value == (9, 0)


class TestDriverMisc:
    def test_compile_file(self, tmp_path):
        path = tmp_path / "p.dlm"
        path.write_text("main(n) add(n, K)\n")
        compiled = compile_file(str(path), defines={"K": 5})
        assert compiled.run(args=(2,)).value == 7

    def test_trivial_program_on_every_machine(self):
        from repro.machine import PRESETS, SimulatedExecutor

        compiled = compile_source("main() 1")
        for factory in PRESETS.values():
            assert (
                SimulatedExecutor(factory()).run(compiled.graph).value == 1
            )

    def test_duplicate_loopvar_rejected(self):
        with pytest.raises(SingleAssignmentError):
            compile_source(
                "main() iterate { i = 0, incr(i)  i = 1, incr(i) } "
                "while is_less(i, 3), result i"
            )


class TestPreprocessorQuirks:
    def test_define_without_value_is_just_a_comment(self):
        # '#' begins a comment, so a malformed directive is inert rather
        # than an error; documented behaviour.
        compiled = compile_source("#define X\nmain() 1")
        assert compiled.run().value == 1

    def test_defines_inside_strings_are_substituted(self):
        # Substitution is textual (like the original's preprocessor), so
        # words inside string literals are fair game — documented.
        from repro.lang import preprocess

        assert preprocess('f("N")', {"N": 3}) == 'f("3")'


class TestMemoryInventoryDescribe:
    def test_describe_mentions_replication(self):
        from repro.machine.memory import MemoryInventory

        inv = MemoryInventory(
            template_total=1000, peak_activation_total=100,
            processors=4, replicated=True,
        )
        assert "replicated x4" in inv.describe()
        assert inv.template_fraction == pytest.approx(4000 / 4100)

    def test_unreplicated_fraction(self):
        from repro.machine.memory import MemoryInventory

        inv = MemoryInventory(
            template_total=1000, peak_activation_total=1000,
            processors=4, replicated=False,
        )
        assert inv.template_fraction == pytest.approx(0.5)

    def test_empty_inventory(self):
        from repro.machine.memory import MemoryInventory

        assert MemoryInventory().template_fraction == 0.0


class TestTrafficDescribe:
    def test_describe(self):
        from repro.machine.memory import TrafficAccount

        t = TrafficAccount()
        t.charge_data(100, remote=True, processor=2)
        t.charge_data(50, remote=False, processor=1)
        t.charge_template(25)
        assert t.interconnect_bytes == 125
        assert "remote: 100" in t.describe()
        assert t.per_processor_remote == {2: 100}


class TestWorkstationPreset:
    def test_single_processor(self):
        from repro.machine import SimulatedExecutor, workstation

        from repro import compile_source

        machine = workstation()
        assert machine.processors == 1
        compiled = compile_source("main() add(1, 2)")
        assert SimulatedExecutor(machine).run(compiled.graph).value == 3

    def test_in_presets(self):
        from repro.machine import PRESETS

        assert "workstation" in PRESETS


class TestOptimizationReportDescribe:
    def test_describe_mentions_counts(self):
        from repro import compile_source

        compiled = compile_source(
            "main(n) let a = incr(n) b = incr(n) unused = add(1, 1) in add(a, b)"
        )
        assert compiled.optimization is not None
        text = compiled.optimization.describe()
        assert "eliminated" in text or "removed" in text

    def test_describe_when_idle(self):
        from repro import compile_source

        compiled = compile_source("main(n) n")
        text = compiled.optimization.describe()
        assert "nothing to do" in text
