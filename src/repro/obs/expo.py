"""Metrics exposition: Prometheus text format and a scrape endpoint.

Renders a :class:`~repro.obs.metrics.MetricsRegistry` in the Prometheus
text exposition format (version 0.0.4) and, opt-in, serves it over a
stdlib-only HTTP endpoint — the scrape surface long-running runs and the
future server mode need.  No third-party client library: the format is a
few lines of text per metric and the server is ``http.server``.

Mapping from registry to families (all names get the ``delirium_``
namespace and are sanitized to ``[a-zA-Z0-9_:]``):

* counters — ``delirium_<name>`` (a ``counter``); per-label attribution
  is emitted as a parallel ``delirium_<name>_by_label{label="..."}``
  family so the bare total and the breakdown never mix samples;
* gauges — ``delirium_<name>`` plus ``delirium_<name>_high`` for the
  high-water mark;
* histograms — the standard cumulative ``_bucket{le="..."}`` / ``_sum``
  / ``_count`` triple.  Registry names of the form ``family/key`` (e.g.
  ``op_ticks/convol``) become one family with a ``key`` label;
* series are skipped — a scrape is a point sample, the time dimension is
  Prometheus's job.

:class:`MetricsServer` serves ``/metrics`` (the rendering) and
``/healthz`` (a JSON liveness document) from a daemon thread; bind port
``0`` to let the OS pick (``server.port`` reports the real one).
"""

from __future__ import annotations

import json
import re
import threading
from typing import TYPE_CHECKING, Any, Callable

from .metrics import MetricsRegistry

if TYPE_CHECKING:
    from http.server import ThreadingHTTPServer

#: Prefix for every exported family.
NAMESPACE = "delirium"

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_VALID_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [^ ]+( [0-9]+)?$"
)


def _metric_name(raw: str) -> str:
    name = _NAME_RE.sub("_", raw)
    if name and name[0].isdigit():
        name = "_" + name
    return f"{NAMESPACE}_{name}"


def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")


def _fmt(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value != value:  # NaN
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class _Family:
    """One metric family: TYPE header plus its sample lines, in order."""

    def __init__(self, name: str, kind: str) -> None:
        self.name = name
        self.kind = kind
        self.samples: list[str] = []

    def add(
        self,
        value: float,
        labels: dict[str, str] | None = None,
        suffix: str = "",
    ) -> None:
        if labels:
            inner = ",".join(
                f'{k}="{_escape_label(v)}"' for k, v in labels.items()
            )
            self.samples.append(
                f"{self.name}{suffix}{{{inner}}} {_fmt(value)}"
            )
        else:
            self.samples.append(f"{self.name}{suffix} {_fmt(value)}")

    def render(self) -> list[str]:
        return [f"# TYPE {self.name} {self.kind}", *self.samples]


def render_prometheus(registry: MetricsRegistry) -> str:
    """Render the registry as Prometheus text exposition format 0.0.4."""
    families: dict[str, _Family] = {}

    def family(name: str, kind: str) -> _Family:
        fam = families.get(name)
        if fam is None:
            fam = families[name] = _Family(name, kind)
        return fam

    for raw, counter in sorted(registry.counters.items()):
        fam = family(_metric_name(raw), "counter")
        fam.add(counter.value)
        if counter.by_label:
            by = family(_metric_name(raw) + "_by_label", "counter")
            for label, v in sorted(counter.by_label.items()):
                by.add(v, {"label": label})

    for raw, gauge in sorted(registry.gauges.items()):
        base, _, key = raw.partition("/")
        labels = {"key": key} if key else None
        fam = family(_metric_name(base), "gauge")
        fam.add(gauge.value, labels)
        high = family(_metric_name(base) + "_high", "gauge")
        high.add(gauge.high, labels)

    for raw, hist in sorted(registry.histograms.items()):
        base, _, key = raw.partition("/")
        fam = family(_metric_name(base), "histogram")
        labels = {"key": key} if key else {}
        cumulative = 0
        for bound, n in zip(hist.bounds, hist.counts):
            cumulative += n
            fam.add(cumulative, {**labels, "le": _fmt(bound)}, "_bucket")
        fam.add(hist.count, {**labels, "le": "+Inf"}, "_bucket")
        fam.add(hist.sum, labels or None, "_sum")
        fam.add(hist.count, labels or None, "_count")

    lines: list[str] = []
    for fam in families.values():
        lines.extend(fam.render())
    return "\n".join(lines) + ("\n" if lines else "")


def validate_prometheus_text(text: str) -> list[str]:
    """Lint a text-format exposition; returns problems (empty = valid).

    A conservative subset of what promtool checks: line syntax, TYPE
    headers preceding their samples, and cumulative (non-decreasing)
    histogram buckets.  Used by the test suite so validity is asserted
    without a Prometheus client dependency.
    """
    problems: list[str] = []
    typed: set[str] = set()
    bucket_runs: dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                typed.add(parts[2])
            continue
        if not _VALID_LINE.match(line):
            problems.append(f"line {lineno}: malformed sample {line!r}")
            continue
        name = re.split(r"[{ ]", line, maxsplit=1)[0]
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in typed:
                base = name[: -len(suffix)]
        if base not in typed and name not in typed:
            problems.append(f"line {lineno}: sample {name!r} has no TYPE")
        if name.endswith("_bucket") and '{' in line:
            series = line[: line.rindex("}") + 1]
            key = re.sub(r'le="[^"]*",?', "", series)
            value = float(line.rsplit(" ", 1)[1])
            if value < bucket_runs.get(key, 0.0):
                problems.append(
                    f"line {lineno}: histogram buckets not cumulative"
                )
            bucket_runs[key] = value
    return problems


class MetricsServer:
    """Opt-in stdlib HTTP endpoint serving ``/metrics`` and ``/healthz``.

    Parameters
    ----------
    registry:
        The registry to render, or a zero-argument callable returning
        one (server mode swaps registries per run).
    port:
        TCP port; ``0`` picks a free one (read it back from ``.port``).
    host:
        Bind address (default loopback).
    health:
        Optional zero-argument callable returning a JSON-serializable
        dict merged into the ``/healthz`` document.
    """

    def __init__(
        self,
        registry: MetricsRegistry | Callable[[], MetricsRegistry],
        port: int = 0,
        host: str = "127.0.0.1",
        health: Callable[[], dict[str, Any]] | None = None,
    ) -> None:
        self._registry = registry
        self._health = health
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self._host = host
        self._port = port

    @property
    def port(self) -> int:
        """The bound port (valid after :meth:`start`)."""
        if self._httpd is not None:
            return self._httpd.server_address[1]
        return self._port

    def render(self) -> str:
        registry = self._registry
        if callable(registry):
            registry = registry()
        return render_prometheus(registry)

    def health(self) -> dict[str, Any]:
        doc: dict[str, Any] = {"status": "ok"}
        if self._health is not None:
            doc.update(self._health())
        return doc

    def start(self) -> "MetricsServer":
        if self._httpd is not None:
            return self
        # Imported where the server starts: ``http.server`` brings
        # ``email`` and ``ssl`` along, and most runs never serve.
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - http.server API
                if self.path.split("?")[0] == "/metrics":
                    body = server.render().encode()
                    ctype = "text/plain; version=0.0.4; charset=utf-8"
                elif self.path.split("?")[0] == "/healthz":
                    body = json.dumps(server.health()).encode()
                    ctype = "application/json"
                else:
                    self.send_error(404)
                    return
                self.send_response(200)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args: Any) -> None:
                pass  # scrapes must not spam the run's stderr

        self._httpd = ThreadingHTTPServer((self._host, self._port), Handler)
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="delirium-metrics",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()
