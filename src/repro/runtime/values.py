"""Runtime value kinds for Delirium programs.

Values flowing along coordination-graph edges are:

* plain immutable Python objects (ints, floats, strings, bools, bytes) —
  the "atomic values" of the language;
* :data:`NULL` — the distinguished null value (falsy, printable as
  ``NULL``), returned e.g. by failed backtracking tries;
* :class:`MultiValue` — a multiple-value package;
* :class:`Closure` — a template plus captured environment, produced by
  function references and consumed by call-closure nodes;
* :class:`OperatorValue` — an external operator used as a first-class
  value;
* :class:`~repro.runtime.blocks.DataBlock` — a reference-counted wrapper
  around any *mutable* payload (NumPy arrays, lists, application objects).

The engine is the only code that wraps/unwraps blocks; operators always see
raw payloads, exactly like C operators saw raw pointers in the original
system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from ..graph.ir import Template


class _Null:
    """Singleton type of the Delirium ``NULL`` value."""

    _instance: "_Null | None" = None

    def __new__(cls) -> "_Null":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "NULL"

    def __reduce__(self):  # keep singleton across pickling
        return (_Null, ())


#: The Delirium NULL value.
NULL = _Null()


@dataclass(frozen=True, slots=True)
class MultiValue:
    """A multiple-value package: ``<v1, ..., vn>``.

    Immutable; elements may be blocks.  Decomposed by ``UNTUPLE`` nodes or
    returned whole from functions.
    """

    items: tuple[Any, ...]

    def __len__(self) -> int:
        return len(self.items)

    def __repr__(self) -> str:
        inner = ", ".join(repr(i) for i in self.items)
        return f"<{inner}>"


@dataclass(frozen=True, slots=True)
class OperatorValue:
    """An external operator passed around as a first-class value."""

    name: str

    def __repr__(self) -> str:
        return f"operator:{self.name}"


class Closure:
    """A first-class function value: a template plus captured cells.

    ``cells`` holds one value per template capture, in template order.
    When the compiler proves a local function recursive, its own name may
    appear among its captures; :meth:`tie_self` fills that cell with the
    closure itself (a benign cycle — Python's GC handles it).
    """

    __slots__ = ("template", "cells")

    def __init__(self, template: "Template", cells: tuple[Any, ...]) -> None:
        self.template = template
        self.cells = cells

    def tie_self(self) -> "Closure":
        """Replace any self-capture placeholder with this closure."""
        if _SELF in self.cells:
            self.cells = tuple(
                self if c is _SELF else c for c in self.cells
            )
        return self

    def __repr__(self) -> str:
        return f"closure:{self.template.name}"


class _SelfPlaceholder:
    """Marker injected for a closure's own-name capture before tying."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<self>"


#: Placeholder used while constructing self-referential closures.
_SELF = _SelfPlaceholder()


def __getattr__(name: str) -> Any:
    # ``is_truthy`` judges a DataBlock by its payload, so it lives in
    # ``blocks`` (which imports this module); it is re-exported here.
    if name == "is_truthy":
        from .blocks import is_truthy

        return is_truthy
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
