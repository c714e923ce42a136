"""The Delirium runtime: values, blocks, operators, engine, executors."""

from .activation import Activation, ActivationPool, TemplatePlan
from .checkpoint import (
    Checkpoint,
    CheckpointCadence,
    CheckpointError,
    CheckpointMismatchError,
    read_checkpoint,
    write_checkpoint,
)
from .blocks import (
    DataBlock,
    get_block_hook,
    is_truthy,
    release,
    retain,
    set_block_hook,
    unwrap,
    wrap_payload,
)
from .engine import (
    EngineStats,
    ExecutionState,
    PendingOp,
    PurityViolationError,
)
from .executors import (
    ProcessExecutor,
    RunResult,
    SequentialExecutor,
    ThreadedExecutor,
)
from .operators import (
    OperatorRegistry,
    OperatorSpec,
    builtin_registry,
    default_registry,
)
from .scheduler import (
    PRIORITY_CALL,
    PRIORITY_NORMAL,
    PRIORITY_RECURSIVE_CALL,
    ReadyQueue,
    Task,
)
from .stream import (
    END,
    CallableSource,
    JsonlSink,
    LineSource,
    MemorySink,
    StreamError,
    StreamResult,
    StreamRunner,
    count_source,
)
from .supervise import FaultPolicy, Supervisor, run_with_retries
from .tracing import NodeTiming, Tracer
from .values import NULL, Closure, MultiValue, OperatorValue
from .workers import (
    DispatchPolicy,
    RegistryRef,
    WorkerPool,
    cleanup_arenas,
    install_arena_signal_cleanup,
)

__all__ = [
    "Activation",
    "ActivationPool",
    "CallableSource",
    "Checkpoint",
    "CheckpointCadence",
    "CheckpointError",
    "CheckpointMismatchError",
    "Closure",
    "DataBlock",
    "DispatchPolicy",
    "END",
    "EngineStats",
    "ExecutionState",
    "FaultPolicy",
    "JsonlSink",
    "LineSource",
    "MemorySink",
    "MultiValue",
    "NULL",
    "NodeTiming",
    "OperatorRegistry",
    "OperatorSpec",
    "OperatorValue",
    "PRIORITY_CALL",
    "PRIORITY_NORMAL",
    "PRIORITY_RECURSIVE_CALL",
    "PendingOp",
    "ProcessExecutor",
    "PurityViolationError",
    "ReadyQueue",
    "RegistryRef",
    "RunResult",
    "SequentialExecutor",
    "StreamError",
    "StreamResult",
    "StreamRunner",
    "Supervisor",
    "Task",
    "TemplatePlan",
    "ThreadedExecutor",
    "Tracer",
    "WorkerPool",
    "builtin_registry",
    "cleanup_arenas",
    "count_source",
    "default_registry",
    "get_block_hook",
    "install_arena_signal_cleanup",
    "is_truthy",
    "read_checkpoint",
    "release",
    "set_block_hook",
    "retain",
    "run_with_retries",
    "unwrap",
    "wrap_payload",
    "write_checkpoint",
]
