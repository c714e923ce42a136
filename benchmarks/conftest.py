"""Shared helpers for the benchmark harness.

Every module in this directory regenerates one table or figure from the
paper's evaluation (see DESIGN.md section 6 for the index).  Benchmarks
print their reproduction tables straight to the terminal (bypassing
pytest's capture) so that ``pytest benchmarks/ --benchmark-only | tee``
produces a self-contained record, and use the ``benchmark`` fixture to
time the core operation of each experiment.
"""

from __future__ import annotations

import pytest


@pytest.fixture
def report(capsys):
    """Print a block of experiment output, bypassing capture."""

    def emit(title: str, body: str) -> None:
        with capsys.disabled():
            print()
            print(f"┌── {title} " + "─" * max(0, 66 - len(title)))
            for line in body.splitlines():
                print(f"│ {line}")
            print("└" + "─" * 70)

    return emit
