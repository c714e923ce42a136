"""Exception hierarchy for the Delirium reproduction.

Every failure surfaced by the language front end, the Pythia compiler, the
coordination-graph IR, the runtime, or the machine simulator derives from
:class:`DeliriumError`, so callers can catch one type at the API boundary.
The subtypes mirror the stages of the system:

* :class:`LexError` / :class:`ParseError` / :class:`PreprocessorError` —
  front-end failures, carrying source positions.
* :class:`CompileError` (and its refinements :class:`UnboundNameError`,
  :class:`SingleAssignmentError`, :class:`ArityError`) — semantic analysis
  and lowering failures.
* :class:`GraphError` — ill-formed coordination graphs (these indicate bugs
  in the compiler or hand-built graphs, not user programs).
* :class:`RuntimeFailure` (and :class:`OperatorError`,
  :class:`UnknownOperatorError`, :class:`PoolIrrecoverableError`) —
  failures while executing a graph.
* :class:`MachineError` — misconfigured machine models or simulator misuse.
"""

from __future__ import annotations


class DeliriumError(Exception):
    """Base class for every error raised by this package."""


class SourceError(DeliriumError):
    """An error attributable to a position in Delirium source text.

    Parameters
    ----------
    message:
        Human-readable description of the problem.
    line, column:
        1-based source position, when known. ``0`` means "unknown".
    """

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        self.line = line
        self.column = column
        if line:
            message = f"{line}:{column}: {message}"
        super().__init__(message)


class LexError(SourceError):
    """The scanner met a character sequence that is not a Delirium token."""


class ParseError(SourceError):
    """The token stream does not match the Delirium grammar."""


class PreprocessorError(SourceError):
    """Bad symbolic-constant definitions or substitution cycles."""


class CompileError(SourceError):
    """Semantic error discovered by the Pythia compiler."""


class UnboundNameError(CompileError):
    """A variable or function name is used but never bound."""


class SingleAssignmentError(CompileError):
    """A name is bound more than once in the same scope.

    Delirium is a single-assignment language (section 3 of the paper); the
    compiler rejects any rebinding rather than silently shadowing.
    """


class ArityError(CompileError):
    """A function or operator is applied to the wrong number of arguments."""


class GraphError(DeliriumError):
    """A coordination graph violates a structural invariant."""


class RuntimeFailure(DeliriumError):
    """An error occurred while the runtime executed a coordination graph."""


class OperatorError(RuntimeFailure):
    """A registered operator raised an exception while executing.

    The original exception is preserved as ``__cause__`` and the operator
    name is recorded so node-timing reports can point at the culprit.
    When the fire ran under a supervised executor the error additionally
    carries where and how it failed:

    ``node_id``
        Coordination-graph node id of the firing (``-1`` when unknown).
    ``attempts``
        One entry per execution attempt, oldest first — ``(attempt,
        worker_pid, outcome)`` where ``outcome`` is a short string such as
        ``"raised: ValueError('boom')"``, ``"worker crashed"``, or
        ``"timed out after 2.0s"``.  Empty for unsupervised failures.
    ``worker_pid``
        Pid of the worker that executed the final attempt (``None`` for
        in-process execution).
    ``label``
        What the message calls the operator, if not ``operator`` (a fused
        node's label; its name spells the whole recipe).
    """

    def __init__(
        self,
        operator: str,
        cause: BaseException,
        *,
        node_id: int = -1,
        attempts: tuple[tuple[int, int | None, str], ...] = (),
        worker_pid: int | None = None,
        label: str = "",
    ) -> None:
        self.operator = operator
        self.node_id = node_id
        self.attempts = attempts
        self.worker_pid = worker_pid
        message = f"operator {label or operator!r} failed: {cause!r}"
        if node_id >= 0:
            message += f" (node {node_id})"
        if attempts:
            history = "; ".join(
                f"attempt {n}" + (f" [pid {pid}]" if pid else "") + f": {out}"
                for n, pid, out in attempts
            )
            message += f" after {len(attempts)} attempt(s): {history}"
        super().__init__(message)
        self.__cause__ = cause


class UnknownOperatorError(RuntimeFailure):
    """A graph names an operator that is not in the registry."""

    def __init__(self, operator: str) -> None:
        self.operator = operator
        super().__init__(
            f"unknown operator {operator!r}: not registered and not a "
            "Delirium function in the compiled program"
        )


class PoolIrrecoverableError(RuntimeFailure):
    """The process worker pool cannot be kept alive.

    Raised (or caught by the degradation ladder) when worker respawns
    exceed :attr:`~repro.runtime.supervise.FaultPolicy.max_respawns`, or
    the pool cannot be constructed at all.
    """

    def __init__(self, reason: str, respawns: int = 0) -> None:
        self.reason = reason
        self.respawns = respawns
        message = f"worker pool irrecoverable: {reason}"
        if respawns:
            message += f" (after {respawns} respawn(s))"
        super().__init__(message)


class MachineError(DeliriumError):
    """Invalid machine-model parameters or simulator state."""
