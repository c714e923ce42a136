"""The Pythia compiler passes; :data:`.pipeline.PASSES` names them, in order."""

from . import constprop, cse, dce, inline
from .common import PassContext
from .pipeline import PASS_ORDER, OptimizationReport, optimize

__all__ = [
    "PASS_ORDER",
    "OptimizationReport",
    "PassContext",
    "constprop",
    "cse",
    "dce",
    "inline",
    "optimize",
]
