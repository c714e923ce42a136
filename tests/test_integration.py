"""End-to-end integration: whole programs through every layer, plus the CLI."""

import subprocess
import sys

import pytest

from repro import (
    compile_source,
    run_source,
    validate_program,
)
from repro.machine import SimulatedExecutor, butterfly, cray_ymp, sequent
from repro.runtime import SequentialExecutor, ThreadedExecutor


class TestRunSource:
    def test_one_liner(self):
        assert run_source("main() add(2, 3)") == 5

    def test_with_defines(self):
        assert run_source("main() add(N, N)", defines={"N": 21}) == 42

    def test_with_args(self):
        assert run_source("main(a, b) mul(a, b)", args=(6, 7)) == 42

    def test_with_custom_executor(self):
        value = run_source(
            "main() incr(41)", executor=ThreadedExecutor(2)
        )
        assert value == 42


class TestWholeProgramsEverywhere:
    """One program, every executor, every machine: identical results."""

    SRC = """
    main(n)
      let total = sum_to(n)
          evens = count_evens(0, n, 0)
      in <total, evens>
    sum_to(n)
      iterate { i = 1, incr(i)  s = 0, add(s, i) }
      while is_less_equal(i, n), result s
    count_evens(i, n, acc)
      if is_greater(i, n)
      then acc
      else count_evens(add(i, 2), n, incr(acc))
    """

    @pytest.fixture(scope="class")
    def compiled(self):
        return compile_source(self.SRC)

    def test_expected_value(self, compiled):
        assert compiled.run(args=(10,)).value == (55, 6)

    @pytest.mark.parametrize(
        "executor",
        [
            SequentialExecutor(),
            SequentialExecutor(seed=13),
            SequentialExecutor(use_priorities=False),
            ThreadedExecutor(3),
        ],
        ids=["seq", "seeded", "fifo", "threaded"],
    )
    def test_real_executors(self, compiled, executor):
        assert executor.run(compiled.graph, args=(10,)).value == (55, 6)

    @pytest.mark.parametrize(
        "machine",
        [cray_ymp(), sequent(), butterfly(4)],
        ids=["cray-ymp", "sequent", "butterfly"],
    )
    def test_simulated_machines(self, compiled, machine):
        result = SimulatedExecutor(machine).run(compiled.graph, args=(10,))
        assert result.value == (55, 6)
        assert result.ticks > 0

    def test_graph_validates(self, compiled):
        validate_program(compiled.graph)


class TestCompiledProgramAPI:
    def test_pass_seconds_recorded(self):
        compiled = compile_source("main() 1")
        from repro.compiler import PASS_NAMES

        assert set(compiled.pass_seconds) == set(PASS_NAMES)
        assert all(v >= 0 for v in compiled.pass_seconds.values())

    def test_optimization_report_attached(self):
        compiled = compile_source("main() add(1, 2)")
        assert compiled.optimization is not None
        assert compiled.optimization.rounds >= 1

    def test_custom_entry_point(self):
        compiled = compile_source(
            "main() 1\nother(x) incr(x)", entry="other"
        )
        result = SequentialExecutor().run(compiled.graph, args=(4,))
        assert result.value == 5

    def test_missing_entry_rejected(self):
        from repro.errors import GraphError

        with pytest.raises(GraphError):
            compile_source("helper(x) x", entry="main")


class TestCLI:
    def _run(self, *args, source="main(n) add(incr(n), N)\n"):
        import tempfile, os

        with tempfile.NamedTemporaryFile(
            "w", suffix=".dlm", delete=False
        ) as fh:
            fh.write(source)
            path = fh.name
        try:
            # Hermetic compile cache: the same tiny source recurs across
            # tests, and a hit from a previous process would change output
            # (no per-pass times on cached compiles).
            with tempfile.TemporaryDirectory() as cache_dir:
                proc = subprocess.run(
                    [sys.executable, "-m", "repro.tools.cli", *[
                        a.replace("FILE", path) for a in args
                    ]],
                    capture_output=True,
                    text=True,
                    timeout=120,
                    env={**os.environ, "DELIRIUM_CACHE_DIR": cache_dir},
                )
            return proc
        finally:
            os.unlink(path)

    def test_run_subcommand(self):
        proc = self._run("run", "FILE", "--arg", "1", "-D", "N=40")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "42"

    def test_run_on_machine(self):
        proc = self._run(
            "run", "FILE", "--arg", "1", "-D", "N=1",
            "--machine", "cray-ymp", "-p", "2",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "3"
        assert "cray-ymp" in proc.stderr

    def test_compile_subcommand(self):
        proc = self._run("compile", "FILE", "-D", "N=1")
        assert proc.returncode == 0, proc.stderr
        assert "template main" in proc.stdout
        assert "Lexing" in proc.stdout

    def test_viz_subcommand(self):
        proc = self._run("viz", "FILE", "-D", "N=1")
        assert proc.returncode == 0, proc.stderr
        assert "=== main" in proc.stdout

    def test_viz_dot(self):
        proc = self._run("viz", "FILE", "--dot", "-D", "N=1")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("digraph")

    def test_profile_subcommand(self):
        proc = self._run(
            "profile", "FILE", "--arg", "1", "-D", "N=1", "-p", "2"
        )
        assert proc.returncode == 0, proc.stderr
        assert "call of" in proc.stdout


FIB = """
main(n) fib(n)
fib(n)
  if is_less(n, 2)
  then n
  else add(fib(sub(n, 1)), fib(sub(n, 2)))
"""


class TestCLIParity:
    """A CLI run is configured like the library executor it names."""

    def test_default_run_takes_the_drain_loop(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.runtime import ReadyQueue
        from repro.tools import cli

        drains = []
        drain = ReadyQueue.drain

        def recording(self, fire):
            drains.append(fire)
            return drain(self, fire)

        monkeypatch.setattr(ReadyQueue, "drain", recording)
        path = tmp_path / "fib.dlm"
        path.write_text(FIB)
        assert cli.main(["run", str(path), "--arg", "10", "--no-cache"]) == 0
        assert capsys.readouterr().out.strip() == "55"
        assert len(drains) == 1
        # The library's sequential executor takes the same path.
        graph = compile_source(FIB).graph
        assert SequentialExecutor().run(graph, (10,)).value == 55
        assert len(drains) == 2

    def test_run_has_no_batch_flag(self, tmp_path, capsys):
        from repro.tools import cli

        path = tmp_path / "fib.dlm"
        path.write_text(FIB)
        with pytest.raises(SystemExit):
            cli.main(["run", str(path), "--arg", "3", "--no-batch"])
        assert "unrecognized arguments: --no-batch" in capsys.readouterr().err


class TestCLIEmitAndValidate:
    def _tmp_source(self, tmp_path, text="main(n) add(incr(n), 1)\n"):
        path = tmp_path / "prog.dlm"
        path.write_text(text)
        return str(path)

    def _cli(self, *args):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.tools.cli", *args],
            capture_output=True,
            text=True,
            timeout=120,
        )
        return proc

    def test_emit_then_run_dlc(self, tmp_path):
        src = self._tmp_source(tmp_path)
        dlc = str(tmp_path / "prog.dlc")
        proc = self._cli("compile", src, "--emit", dlc)
        assert proc.returncode == 0, proc.stderr
        assert "wrote" in proc.stdout
        proc = self._cli("run", dlc, "--arg", "5")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "7"

    def test_run_dlc_on_machine(self, tmp_path):
        src = self._tmp_source(tmp_path)
        dlc = str(tmp_path / "prog.dlc")
        assert self._cli("compile", src, "--emit", dlc).returncode == 0
        proc = self._cli("run", dlc, "--arg", "1", "--machine", "sequent")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "3"

    def test_validate_source(self, tmp_path):
        proc = self._cli("validate", self._tmp_source(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("OK:")

    def test_validate_dlc(self, tmp_path):
        src = self._tmp_source(tmp_path)
        dlc = str(tmp_path / "prog.dlc")
        assert self._cli("compile", src, "--emit", dlc).returncode == 0
        proc = self._cli("validate", dlc)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("OK:")


class TestThreadedTracing:
    def test_threaded_executor_records_op_timings(self):
        compiled = compile_source("main(n) add(incr(n), decr(n))")
        result = ThreadedExecutor(2, trace=True).run(compiled.graph, args=(5,))
        assert result.value == 10
        assert result.tracer is not None
        labels = sorted(r.label for r in result.tracer.op_records())
        assert labels == ["add", "decr", "incr"]
        assert all(r.ticks >= 0 for r in result.tracer.records)


class TestAppDrivers:
    """The `python -m repro.apps.<name>` entry points."""

    def _module(self, name, *args, timeout=300):
        return subprocess.run(
            [sys.executable, "-m", f"repro.apps.{name}", *args],
            capture_output=True,
            text=True,
            timeout=timeout,
        )

    def test_queens_driver(self):
        proc = self._module("queens", "5")
        assert proc.returncode == 0, proc.stderr
        assert "10 solution(s)" in proc.stdout

    def test_circuit_driver(self):
        proc = self._module("circuit", "120")
        assert proc.returncode == 0, proc.stderr
        assert "outputs:" in proc.stdout

    def test_raytracer_driver(self, tmp_path):
        out = str(tmp_path / "img.ppm")
        proc = self._module("raytracer", out)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "img.ppm").exists()

    def test_retina_driver(self):
        proc = self._module("retina", "2")
        assert proc.returncode == 0, proc.stderr
        assert "speedup" in proc.stdout


class TestColdStart:
    def test_import_loads_only_what_a_run_needs(self):
        """``networkx`` serves only ``to_networkx``, ``http.server`` only
        a started metrics server, ``scipy`` only the retina kernels."""
        script = (
            "import sys, repro\n"
            "heavy = ('networkx', 'http.server', 'scipy')\n"
            "print([m for m in heavy if m in sys.modules])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
