"""Pluggable contraction backends.

The protocol lives in :mod:`repro.backends.base`; two engines ship
built in, pre-registered under five names:

* ``"tdd"`` — Tensor Decision Diagrams (the paper's engine);
* ``"dense"`` and ``"einsum"`` — two names for one array backend
  (:class:`~repro.backends.array.ArrayBackend`): every plan step is
  lowered once per plan to a permute → reshape → ``matmul`` step on
  numpy, with batched sliced execution;
* ``"einsum-torch"`` / ``"einsum-cupy"`` — the same compiled kernel on
  torch tensors (CPU or CUDA) / cupy arrays.  These registry entries
  always exist; when the optional library is missing they are excluded
  from :func:`available_backends`, reported by
  :func:`backend_availability` with the install hint, and constructing
  one raises :class:`~repro.backends.xp.MissingDependencyError` — never
  an import-time failure.

All engines execute the same
:class:`~repro.tensornet.planner.ContractionPlan`.  Register your own
with::

    from repro.backends import ContractionBackend, register_backend

    class MyBackend(ContractionBackend):
        name = "mine"
        def contract_scalar(self, network, stats=None,
                            cacheable_tensor_ids=None, plan=None):
            plan = plan or self.plan_for(network)
            ...

    register_backend("mine", MyBackend)
"""

from .base import (
    ContractionBackend,
    available_backends,
    backend_availability,
    get_backend,
    register_backend,
    registered_backends,
    resolve_backend,
    unregister_backend,
)
from .array import (
    ArrayBackend,
    CupyEinsumBackend,
    DenseBackend,
    NumpyEinsumBackend,
    TorchEinsumBackend,
)
from .tdd import TddBackend
from .xp import (
    AUTO_SLICE_BATCH_BUDGET,
    NAMESPACES,
    ArrayNamespace,
    MissingDependencyError,
    namespace_available,
    resolve_namespace,
)

register_backend(TddBackend.name, TddBackend, overwrite=True)
register_backend(DenseBackend.name, DenseBackend, overwrite=True)
register_backend(NumpyEinsumBackend.name, NumpyEinsumBackend, overwrite=True)
register_backend(
    TorchEinsumBackend.name, TorchEinsumBackend,
    overwrite=True, requires="torch",
)
register_backend(
    CupyEinsumBackend.name, CupyEinsumBackend,
    overwrite=True, requires="cupy",
)

__all__ = [
    "AUTO_SLICE_BATCH_BUDGET",
    "ArrayBackend",
    "ArrayNamespace",
    "ContractionBackend",
    "CupyEinsumBackend",
    "DenseBackend",
    "MissingDependencyError",
    "NAMESPACES",
    "NumpyEinsumBackend",
    "TddBackend",
    "TorchEinsumBackend",
    "available_backends",
    "backend_availability",
    "get_backend",
    "namespace_available",
    "register_backend",
    "registered_backends",
    "resolve_backend",
    "resolve_namespace",
    "unregister_backend",
]
