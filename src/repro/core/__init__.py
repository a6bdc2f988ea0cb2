"""PERCIVAL's core: the in-browser perceptual ad blocker.

The paper's primary contribution, as a library:

* :class:`AdClassifier` — preprocessing + the compressed CNN; verdicts
  and probabilities per decoded bitmap,
* :class:`PercivalBlocker` — the render-pipeline face of the system:
  implements the hook the browser substrate calls after every image
  decode, with the synchronous (blocking) and asynchronous (memoizing)
  deployments of §1.1,
* :class:`GradCam` — salience maps for the Figure 4 interpretability
  analysis,
* :class:`InferenceWorkerPool` — multiprocess inference sharding:
  batched verdicts scatter across worker processes, weights shipped
  once via shared memory (``PERCIVAL_WORKERS`` sizes it, 0 disables),
* :func:`get_reference_classifier` — the train-once-and-cache entry
  point experiments and examples share.
"""

from repro.core.config import (
    PercivalConfig,
    ServeSettings,
    configured_worker_count,
    knob,
)
from repro.core.preprocessing import preprocess_bitmap, preprocess_batch
from repro.core.classifier import (
    AdClassifier,
    PlanExport,
    PrecisionRejectedError,
)
from repro.core.workerpool import InferenceWorkerPool, WorkerPoolError
from repro.core.blocker import PercivalBlocker, BlockDecision
from repro.core.gradcam import GradCam
from repro.core.modelstore import (
    ModelStore,
    get_reference_classifier,
    get_worker_pool,
    shutdown_worker_pool,
)
from repro.core.revisit import RevisitMemory

__all__ = [
    "PercivalConfig",
    "ServeSettings",
    "configured_worker_count",
    "knob",
    "preprocess_bitmap",
    "preprocess_batch",
    "AdClassifier",
    "PlanExport",
    "PrecisionRejectedError",
    "InferenceWorkerPool",
    "WorkerPoolError",
    "PercivalBlocker",
    "BlockDecision",
    "GradCam",
    "get_reference_classifier",
    "get_worker_pool",
    "shutdown_worker_pool",
    "ModelStore",
    "RevisitMemory",
]
