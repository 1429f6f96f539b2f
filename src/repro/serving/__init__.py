"""Streaming model-serving layer: versioned registry + micro-batching engine.

See ``docs/serving.md`` for the architecture and metrics reference,
``docs/store.md`` for crash-safe persistence (:class:`ModelRegistry`'s
``store=`` parameter) and warm-restart recovery, and the "Health,
hedging, and brownout" section of ``docs/serving.md`` for the
tail-tolerance layer (:mod:`repro.serving.health`).
"""

from .engine import (
    BrownoutShedError,
    EngineOverloadedError,
    EngineStoppedError,
    ModelEvaluationError,
    PredictionEngine,
)
from .health import (
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    BrownoutController,
    HealthTracker,
    HedgedFuture,
    HedgePolicy,
    LatencyDigest,
)
from .registry import ModelRegistry, ModelVersion, PublishRejectedError, model_key
from .sharding import JournalFollower, ShardDeadError, ShardRouter

__all__ = [
    "BrownoutController",
    "BrownoutShedError",
    "EngineOverloadedError",
    "EngineStoppedError",
    "HealthTracker",
    "HedgePolicy",
    "HedgedFuture",
    "JournalFollower",
    "LatencyDigest",
    "ModelEvaluationError",
    "ModelRegistry",
    "ModelVersion",
    "PRIORITY_HIGH",
    "PRIORITY_LOW",
    "PRIORITY_NORMAL",
    "PredictionEngine",
    "PublishRejectedError",
    "ShardDeadError",
    "ShardRouter",
    "model_key",
]
