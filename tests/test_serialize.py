"""Serialization round trips for compiled coordination graphs."""

import hashlib
import json

import pytest

from repro import compile_source, validate_program
from repro.compiler.passes.pipeline import FULL_PASS_ORDER
from repro.errors import GraphError
from repro.graph.serialize import (
    FORMAT_VERSION,
    dumps,
    load,
    loads,
    program_from_dict,
    program_to_dict,
    save,
)
from repro.runtime import SequentialExecutor

from tests.conftest import FACTORIAL_SRC, FIB_SRC, FORK_JOIN_SRC, fork_join_registry
from tests.test_optimizer_linear import (
    GOLDEN_DLC_SHA256,
    QUEENS_AS_WRITTEN_SHA256,
    golden_compiles,
)

ROUND_TRIP_SOURCES = [
    "main() 1",
    "main() NULL",
    "main(n) add(incr(n), 2)",
    "main(n) if n then <1, 2> else NULL",
    FACTORIAL_SRC,
    FIB_SRC,
    "main(n) let h(x) add(x, n) in h(h(1))",
]


class TestRoundTrips:
    @pytest.mark.parametrize("source", ROUND_TRIP_SOURCES)
    def test_json_round_trip_structure(self, source):
        original = compile_source(source).graph
        restored = loads(dumps(original))
        validate_program(restored)
        assert restored.entry == original.entry
        assert set(restored.templates) == set(original.templates)
        for name, template in original.templates.items():
            other = restored.templates[name]
            assert other.params == template.params
            assert other.captures == template.captures
            assert other.result == template.result
            assert len(other.nodes) == len(template.nodes)

    @pytest.mark.parametrize(
        "source,args,expected",
        [
            (FACTORIAL_SRC, (6,), 720),
            (FIB_SRC, (10,), 55),
            ("main(n) if n then <1, 2> else NULL", (1,), (1, 2)),
        ],
    )
    def test_restored_program_executes_identically(self, source, args, expected):
        original = compile_source(source)
        restored = loads(dumps(original.graph))
        value = SequentialExecutor().run(restored, args=args).value
        assert value == expected

    def test_fork_join_with_custom_registry(self):
        reg = fork_join_registry()
        original = compile_source(FORK_JOIN_SRC, registry=reg)
        restored = loads(dumps(original.graph))
        # The registry is runtime linkage, exactly like the paper's
        # compiled C operators: supply it at execution time.
        value = SequentialExecutor().run(restored, registry=reg).value
        assert value == 100

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "program.dlc")
        original = compile_source(FIB_SRC)
        save(original.graph, path)
        restored = load(path)
        assert SequentialExecutor().run(restored, args=(9,)).value == 34

    def test_pretty_printed_json(self):
        text = dumps(compile_source("main() 1").graph, indent=2)
        assert "\n" in text
        loads(text)


class TestErrors:
    def test_version_mismatch(self):
        data = program_to_dict(compile_source("main() 1").graph)
        data["format"] = 999
        with pytest.raises(GraphError, match="format"):
            program_from_dict(data)

    def test_unknown_marker(self):
        data = program_to_dict(compile_source("main() NULL").graph)
        for t in data["templates"].values():
            for node in t["nodes"]:
                if isinstance(node.get("value"), dict):
                    node["value"] = {"$delirium": "mystery"}
        with pytest.raises(GraphError):
            program_from_dict(data)

    def test_current_format_version(self):
        data = program_to_dict(compile_source("main() 1").graph)
        assert data["format"] == FORMAT_VERSION


class TestAppsSerialize:
    def test_queens_round_trips(self):
        from repro.apps.queens import compile_queens, solve_sequential

        compiled = compile_queens(5)
        restored = loads(dumps(compiled.graph))
        value = SequentialExecutor().run(
            restored, registry=compiled.registry
        ).value
        assert value == solve_sequential(5)

    def test_retina_round_trips(self):
        from repro.apps.retina import RetinaConfig, compile_retina, run_sequential

        cfg = RetinaConfig(height=32, width=32, num_iter=1)
        compiled = compile_retina(2, cfg)
        restored = loads(dumps(compiled.graph))
        value = SequentialExecutor().run(
            restored, registry=compiled.registry
        ).value
        assert value.signature() == run_sequential(cfg).signature()

    def test_older_last_use_lists_are_ignored(self):
        """Older builds wrote a ``donated`` list of input indices on some
        operator nodes.  Nothing reads it any more: a fused retina whose
        every operator lists all its inputs and one index past the last —
        lists the older validator refused, first for an edge from a
        closure capture — loads to this build's graph and runs to the
        reference frame."""
        from repro.apps.retina import RetinaConfig, compile_retina, run_sequential

        cfg = RetinaConfig(height=32, width=32, num_iter=1)
        compiled = compile_retina(2, cfg, fuse=True)
        restored = loads(_with_last_use_lists(dumps(compiled.graph)))
        assert dumps(restored) == dumps(compiled.graph)
        value = SequentialExecutor().run(
            restored, registry=compiled.registry
        ).value
        assert value.signature() == run_sequential(cfg).signature()


def _with_last_use_lists(text):
    """``text`` with the ``donated`` key an older build could write on
    every operator node: all its inputs, and one index past the last."""
    data = json.loads(text)
    for template in data["templates"].values():
        for node in template["nodes"]:
            if node["kind"] == "op":
                node["donated"] = list(range(len(node["inputs"]) + 1))
    return json.dumps(data)


@pytest.fixture(scope="module")
def golden():
    return golden_compiles()


#: ``(golden digests, the passes they were compiled with)``.
_GOLDENS = {
    "full": (GOLDEN_DLC_SHA256, FULL_PASS_ORDER),
    "as_written": (
        QUEENS_AS_WRITTEN_SHA256,
        tuple(p for p in FULL_PASS_ORDER if p != "inline"),
    ),
}


@pytest.mark.parametrize(
    "kind, name",
    [(kind, name) for kind, (digests, _) in _GOLDENS.items() for name in sorted(digests)],
)
def test_every_golden_loads_the_same_from_an_older_dump(golden, kind, name):
    """Each case study's dump, as a build with last-use lists wrote it,
    loads to the graph whose bytes are this build's golden."""
    digests, passes = _GOLDENS[kind]
    digest = digests[name]
    graph = compile_source(**golden[name], optimize_passes=passes).graph
    text = dumps(loads(_with_last_use_lists(dumps(graph))))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
