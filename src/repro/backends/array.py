"""The array backend: one compiled matmul kernel behind four registry names.

Each pairwise step of the shared
:class:`~repro.tensornet.planner.ContractionPlan` is lowered once per
plan digest to a permute → reshape → ``matmul`` step
(:func:`repro.backends.xp.compiled_for`) and run by one chunked executor
(:func:`repro.backends.xp.contract_chunks`) against an
:class:`~repro.backends.xp.ArrayNamespace`.  The registry names only
bind a namespace:

* ``dense`` and ``einsum`` — numpy (two names for one engine, kept so
  wire requests, cache keys and ``RunStats.backend`` strings stay put);
* ``einsum-torch`` / ``einsum-cupy`` — torch tensors (CPU or CUDA) /
  cupy arrays.

Sliced plans contract ``slice_batch`` slices per chunk along a leading
batch axis (``slice_batch=1`` runs one slice per chunk), so
``slice_batch × peak intermediate`` bounds memory.

The optional-dependency names resolve their namespace at
*construction*: ``get_backend("einsum-torch")`` without torch raises
:class:`~repro.backends.xp.MissingDependencyError` with the install
hint, while the registry entry itself always imports and lists.
"""

from __future__ import annotations

from typing import ClassVar, Dict, Optional, Sequence, Set

from ..tensornet import ContractionStats, TensorNetwork
from ..tensornet.planner import (
    BatchedSliceApplier,
    ContractionPlan,
    iter_slice_assignments,
)
from .base import ContractionBackend
from .xp import compiled_for, contract_chunks, resolve_namespace


class ArrayBackend(ContractionBackend):
    """Compiled matmul execution of a shared contraction plan.

    The subclasses below bind a registry name and a namespace; construct
    one of them (or use :func:`~repro.backends.get_backend`), since the
    name is what worker processes rebuild a backend from.
    """

    #: array namespace the backend contracts with; subclasses override.
    namespace: ClassVar[str] = "numpy"
    supports_batched_slices = True

    def __init__(self, **options):
        super().__init__(**options)
        # Resolves eagerly: a missing optional library or an impossible
        # device fails here, at construction, with the real reason.
        self.xp = resolve_namespace(self.namespace, self.device)

    @property
    def resolved_device(self) -> str:
        """The device the namespace actually placed the backend on."""
        return self.xp.device

    def contract_scalar(
        self,
        network: TensorNetwork,
        stats: Optional[ContractionStats] = None,
        cacheable_tensor_ids: Optional[Set[int]] = None,
        plan: Optional[ContractionPlan] = None,
        assignments: Optional[Sequence[Dict[str, int]]] = None,
    ) -> complex:
        plan = self._resolve_plan(network, stats, plan, assignments)
        dispatched = self._dispatch_slices(network, plan, stats, assignments)
        if dispatched is not None:
            return dispatched
        if assignments is None:
            assignments = iter_slice_assignments(plan)
        return contract_chunks(
            self.xp,
            compiled_for(plan),
            BatchedSliceApplier(network.tensors, plan.slices),
            list(assignments),
            self.effective_slice_batch(plan),
            stats,
        )


class DenseBackend(ArrayBackend):
    """The array backend under its ``dense`` registry name."""

    name = "dense"


class NumpyEinsumBackend(ArrayBackend):
    """The array backend under its ``einsum`` registry name."""

    name = "einsum"


class TorchEinsumBackend(ArrayBackend):
    """The array backend on torch tensors (CPU or CUDA)."""

    name = "einsum-torch"
    namespace = "torch"


class CupyEinsumBackend(ArrayBackend):
    """The array backend on cupy arrays (CUDA)."""

    name = "einsum-cupy"
    namespace = "cupy"
