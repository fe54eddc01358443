"""The array-namespace layer: one compiled matmul kernel, any array library.

Every step of a :class:`~repro.tensornet.planner.ContractionPlan` is a
pairwise product: permute both operands, view them as matrices, and
multiply.  This module lowers each step to that form once per plan
(:func:`compile_plan`, memoised by digest in :func:`compiled_for`) and
runs it through one chunked executor (:func:`contract_chunks`), against
an :class:`ArrayNamespace` — numpy by default, torch or cupy for the
``einsum-torch`` / ``einsum-cupy`` backends.  A namespace needs only a
permute, a (broadcasting) ``matmul``, a gather and a sum, so the *same*
compiled plan runs on numpy arrays, torch tensors (CPU or CUDA) or cupy
arrays.

Design rules:

* **Lazy imports.**  torch and cupy are optional dependencies; importing
  :mod:`repro.backends` must never import them.  :func:`namespace_available`
  probes installability without importing, :func:`resolve_namespace`
  imports on first use and raises a :class:`MissingDependencyError` with
  the ``pip install repro[torch]`` / ``repro[cupy]`` hint when absent.
* **One host↔device transfer per plan-execution boundary.**  Input tensors
  move to the device once (:meth:`ArrayNamespace.from_host`), every
  intermediate stays on-device, and only the final scalar comes back
  (:meth:`ArrayNamespace.sum_scalar`).  Slice gathering happens on-device
  via advanced indexing, so an 8192-slice contraction is still two
  transfers, not 8192.
* **One executor.**  A sliced plan's assignments run in chunks of
  ``slice_batch``: every slice-varying operand gains a leading batch axis
  and each plan step is one batched ``matmul`` over the whole chunk.  An
  unsliced plan is one chunk of one assignment with no batch axis, so it
  takes the same path.  Peak memory is ``slice_batch ×`` the largest
  per-slice intermediate, plus the permuted operand copies of one step.
"""

from __future__ import annotations

import abc
import importlib.util
import math
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .. import trace as _trace
from ..tensornet import ContractionStats
from ..tensornet.planner import BatchedSliceApplier, ContractionPlan

#: Names :func:`resolve_namespace` understands, in documentation order.
NAMESPACES = ("numpy", "torch", "cupy")

#: Element budget the automatic ``slice_batch`` sizes against: with
#: ``slice_batch=None`` a backend picks the largest batch whose
#: ``batch × peak per-slice intermediate`` stays under this many
#: elements (2M complex128 elements ≈ 32 MiB of batched intermediate).
AUTO_SLICE_BATCH_BUDGET = 1 << 21

#: pip extras installing each optional namespace (the error-message hint).
_INSTALL_HINTS = {
    "torch": "pip install repro[torch]",
    "cupy": "pip install repro[cupy]",
}


class MissingDependencyError(ImportError):
    """An optional array library is not installed.

    Subclasses :class:`ImportError` so generic import handling applies,
    and carries the human-facing install hint in its message.  Raised at
    *backend construction* (``get_backend("einsum-torch")``), never at
    :mod:`repro.backends` import time — the registry entries for optional
    backends always exist and report their unavailability truthfully.
    """


def namespace_available(name: str) -> Optional[str]:
    """Why ``name`` is unavailable, or ``None`` when it is usable.

    The probe is ``importlib.util.find_spec`` — it checks installability
    without paying the (potentially seconds-long) import, so registry
    listings stay cheap.  ``resolve_namespace`` still performs the real
    import and reports genuine import failures.
    """
    if name == "numpy":
        return None
    if name not in NAMESPACES:
        return f"unknown array namespace {name!r}"
    try:
        spec = importlib.util.find_spec(name)
    except (ImportError, ValueError):  # pragma: no cover - exotic loaders
        spec = None
    if spec is None:
        return (
            f"optional dependency {name!r} is not installed "
            f"({_INSTALL_HINTS[name]})"
        )
    return None


class ArrayNamespace(abc.ABC):
    """The array operations the contraction kernels need, on one device.

    Operands are opaque to callers: :meth:`from_host` turns a host
    ndarray into whatever the namespace contracts (numpy ndarray, torch
    tensor, cupy array), :meth:`permute`, ``reshape``, :meth:`matmul`
    and advanced indexing combine them, and :meth:`sum_scalar` is the
    single device→host exit.
    """

    #: namespace name ("numpy" / "torch" / "cupy")
    name: str = ""

    def __init__(self, device: Optional[str] = None):
        self.device = self._resolve_device(device)

    @abc.abstractmethod
    def _resolve_device(self, device: Optional[str]) -> str:
        """Validate and normalise the requested device string."""

    @abc.abstractmethod
    def from_host(self, array: np.ndarray):
        """Place a host ndarray on the namespace's device (one transfer)."""

    @abc.abstractmethod
    def index_array(self, values: Sequence[int]):
        """Integer gather-index array on the device."""

    @abc.abstractmethod
    def permute(self, operand, axes: Tuple[int, ...]):
        """``operand`` with its axes reordered to ``axes``."""

    @abc.abstractmethod
    def matmul(self, lhs, rhs):
        """Matrix product, broadcasting over leading batch axes."""

    @abc.abstractmethod
    def sum_scalar(self, operand) -> complex:
        """Sum every element and return it as a host complex."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(device={self.device!r})"


class NumpyNamespace(ArrayNamespace):
    """The reference namespace: host numpy, no transfers."""

    name = "numpy"

    def _resolve_device(self, device: Optional[str]) -> str:
        if device not in (None, "cpu"):
            raise ValueError(
                f"the numpy namespace runs on 'cpu' only, got "
                f"device={device!r}; use backend 'einsum-torch' or "
                "'einsum-cupy' for accelerator devices"
            )
        return "cpu"

    def from_host(self, array: np.ndarray):
        return array

    def index_array(self, values: Sequence[int]):
        return np.asarray(values, dtype=np.intp)

    # Bound straight to numpy: no Python frame per call on the hot path.
    permute = staticmethod(np.ndarray.transpose)
    matmul = staticmethod(np.matmul)

    def sum_scalar(self, operand) -> complex:
        return complex(np.sum(operand))


class TorchNamespace(ArrayNamespace):
    """torch tensors on ``cpu`` (default) or any torch device string."""

    name = "torch"

    def __init__(self, device: Optional[str] = None):
        self._torch = _import_module("torch")
        super().__init__(device)

    def _resolve_device(self, device: Optional[str]) -> str:
        device = device or "cpu"
        try:
            resolved = self._torch.device(device)
        except (RuntimeError, ValueError) as exc:
            raise ValueError(
                f"torch rejected device {device!r}: {exc}"
            ) from None
        if resolved.type == "cuda" and not self._torch.cuda.is_available():
            raise ValueError(
                f"device {device!r} requested but torch reports CUDA "
                "unavailable on this host"
            )
        return str(resolved)

    def from_host(self, array: np.ndarray):
        return self._torch.as_tensor(array, device=self.device)

    def index_array(self, values: Sequence[int]):
        return self._torch.as_tensor(
            np.asarray(values, dtype=np.int64), device=self.device
        )

    def permute(self, operand, axes):
        return self._torch.permute(operand, axes)

    def matmul(self, lhs, rhs):
        return self._torch.matmul(lhs, rhs)

    def sum_scalar(self, operand) -> complex:
        return complex(operand.sum().item())


class CupyNamespace(ArrayNamespace):
    """cupy arrays on the current (or an explicit ``cuda:N``) GPU."""

    name = "cupy"

    def __init__(self, device: Optional[str] = None):
        self._cupy = _import_module("cupy")
        super().__init__(device)

    def _resolve_device(self, device: Optional[str]) -> str:
        if device in (None, "cuda"):
            return "cuda"
        if device.startswith("cuda:"):
            try:
                int(device.split(":", 1)[1])
            except ValueError:
                raise ValueError(
                    f"bad cupy device {device!r}; use 'cuda' or 'cuda:N'"
                ) from None
            return device
        raise ValueError(
            f"the cupy namespace runs on CUDA devices only, got "
            f"device={device!r}"
        )

    def _device_id(self) -> int:
        return int(self.device.split(":")[1]) if ":" in self.device else (
            self._cupy.cuda.runtime.getDevice()
        )

    def from_host(self, array: np.ndarray):
        with self._cupy.cuda.Device(self._device_id()):
            return self._cupy.asarray(array)

    def index_array(self, values: Sequence[int]):
        with self._cupy.cuda.Device(self._device_id()):
            return self._cupy.asarray(np.asarray(values, dtype=np.intp))

    def permute(self, operand, axes):
        return self._cupy.transpose(operand, axes)

    def matmul(self, lhs, rhs):
        return self._cupy.matmul(lhs, rhs)

    def sum_scalar(self, operand) -> complex:
        return complex(operand.sum().item())


def _import_module(name: str):
    """Import an optional dependency, raising the typed error when absent."""
    try:
        return __import__(name)
    except ImportError as exc:
        raise MissingDependencyError(
            f"optional dependency {name!r} is not installed "
            f"({_INSTALL_HINTS[name]}): {exc}"
        ) from exc


_NAMESPACE_CLASSES = {
    "numpy": NumpyNamespace,
    "torch": TorchNamespace,
    "cupy": CupyNamespace,
}


def resolve_namespace(
    name: str, device: Optional[str] = None
) -> ArrayNamespace:
    """An :class:`ArrayNamespace` for ``name`` placed on ``device``.

    Raises :class:`MissingDependencyError` when the library is not
    installed and ``ValueError`` for unknown names or devices the
    namespace cannot honour (e.g. ``cuda`` without a visible GPU) — so a
    misconfigured backend fails at construction with the real reason,
    never deep inside a contraction.
    """
    try:
        cls = _NAMESPACE_CLASSES[name]
    except KeyError:
        raise ValueError(
            f"unknown array namespace {name!r}; "
            f"choose from {list(NAMESPACES)}"
        ) from None
    return cls(device)


# --- compiled plans ---------------------------------------------------------


class CompiledStep(NamedTuple):
    """One plan step lowered to permute → reshape → ``matmul``.

    The lhs is permuted to ``(kept…, shared…)`` and viewed as an
    ``(m, k)`` matrix, the rhs to ``(shared…, kept…)`` as ``(k, n)``;
    their product reshaped to ``out_shape`` is the merged operand, whose
    axes already follow the step's output labels (lhs survivors, then rhs
    survivors), so no output transpose is needed.  An operand that varies
    per slice carries a leading batch axis: its permutation keeps axis 0
    first, its matrix shape gains a ``-1`` batch dimension, and
    ``matmul`` broadcasts a one-sided batch.  ``None`` axes mark an
    identity permutation, which is skipped.
    """

    lhs: int
    rhs: int
    lhs_axes: Optional[Tuple[int, ...]]
    rhs_axes: Optional[Tuple[int, ...]]
    lhs_shape: Tuple[int, ...]
    rhs_shape: Tuple[int, ...]
    out_shape: Tuple[int, ...]


@dataclass(frozen=True)
class CompiledPlan:
    """A :class:`ContractionPlan` lowered for :func:`contract_chunks`."""

    steps: Tuple[CompiledStep, ...]
    #: whether the final operand varies per slice (carries a batch axis)
    out_batched: bool
    #: per-slice rank and element count of the largest intermediate
    peak_rank: int
    peak_size: int


def _lower(
    axes: List[int], rows: int, cols: int, batched: bool
) -> Tuple[Optional[Tuple[int, ...]], Tuple[int, ...]]:
    """One operand's permutation (``None`` if identity) and matrix
    shape, with the batch axis leading when ``batched``."""
    if batched:
        axes = [0] + [ax + 1 for ax in axes]
    identity = axes == list(range(len(axes)))
    return (
        None if identity else tuple(axes),
        (-1, rows, cols) if batched else (rows, cols),
    )


def compile_plan(plan: ContractionPlan) -> CompiledPlan:
    """Lower every step of ``plan`` to a permute/reshape/matmul triple.

    Sliced labels are fixed per slice, so they vanish from every operand;
    operands that carried one vary per slice and are lowered with a
    leading batch axis.  The kept labels come in the step's output order
    and the shared ones in lhs order.  Backends memoise the result by
    :meth:`ContractionPlan.digest` (:func:`compiled_for`), so Algorithm
    I's thousands of structurally identical contractions — and every
    slice of a sliced plan — pay the lowering once.
    """
    dims = plan.dims
    sliced = set(plan.slices)
    ops: List[Tuple[str, ...]] = [
        tuple(lab for lab in labs if lab not in sliced)
        for labs in plan.inputs
    ]
    batched: List[bool] = [
        any(lab in sliced for lab in labs) for labs in plan.inputs
    ]
    steps: List[CompiledStep] = []
    for step in plan.steps:
        a, b = ops[step.lhs], ops[step.rhs]
        output = step.output
        split = len(a) - len(step.eliminated)
        shared = [lab for lab in a if lab in step.eliminated]
        out_shape = tuple([dims[lab] for lab in output])
        m = math.prod(out_shape[:split])
        n = math.prod(out_shape[split:])
        k = math.prod([dims[lab] for lab in shared])
        a_batched, b_batched = batched[step.lhs], batched[step.rhs]
        # A step whose output is not lhs survivors then rhs survivors
        # fails in tuple.index or in the first permute, never silently.
        lhs_axes, lhs_shape = _lower(
            [a.index(lab) for lab in (*output[:split], *shared)],
            m, k, a_batched,
        )
        rhs_axes, rhs_shape = _lower(
            [b.index(lab) for lab in (*shared, *output[split:])],
            k, n, b_batched,
        )
        out_batched = a_batched or b_batched
        steps.append(CompiledStep(
            step.lhs, step.rhs, lhs_axes, rhs_axes, lhs_shape, rhs_shape,
            (-1,) + out_shape if out_batched else out_shape,
        ))
        for seq in (ops, batched):
            del seq[step.rhs]
            del seq[step.lhs]
        ops.append(output)
        batched.append(out_batched)
    return CompiledPlan(
        steps=tuple(steps),
        out_batched=any(batched),  # one operand is left
        peak_rank=plan.width(),
        peak_size=plan.peak_size() if plan.steps else 0,
    )


#: Process-wide compiled-plan memo, keyed by
#: :meth:`ContractionPlan.digest` — shared across backend instances and
#: warm inside worker processes.  Bounded defensively; real workloads
#: hold a handful of plans.
_COMPILED_MEMO: Dict[str, CompiledPlan] = {}
_COMPILED_MEMO_CAP = 512


def compiled_for(plan: ContractionPlan) -> CompiledPlan:
    """The lowered form of ``plan``, computed once per digest."""
    digest = plan.digest()
    compiled = _COMPILED_MEMO.get(digest)
    if compiled is None:
        if len(_COMPILED_MEMO) >= _COMPILED_MEMO_CAP:
            _COMPILED_MEMO.clear()
        with _trace.span("plan.compile") as compile_span:
            compiled = compile_plan(plan)
            compile_span.set(steps=len(compiled.steps))
        _COMPILED_MEMO[digest] = compiled
    return compiled


# --- the executor -----------------------------------------------------------


def contract_chunks(
    xp: ArrayNamespace,
    compiled: CompiledPlan,
    applier: BatchedSliceApplier,
    assignments: Sequence[Dict[str, int]],
    slice_batch: int,
    stats: Optional[ContractionStats] = None,
) -> complex:
    """Contract slice assignments in chunks of ``slice_batch``.

    Each chunk gathers every slice-varying tensor along a leading batch
    axis (one advanced-indexing gather per tensor, on-device) and runs
    one ``matmul`` per plan step over the whole chunk — so a chunk of B
    slices costs ``len(plan.steps)`` kernels instead of
    ``B × len(plan.steps)``.  An unsliced plan is one chunk of its one
    (empty) assignment.  Partial sums accumulate in assignment order.

    ``stats`` keep per-slice semantics: the intermediate rank and size
    are per-slice figures (the slicing bound and ``plan.peak_size()``
    are), and ``batched_slice_calls`` counts chunks only when more than
    one slice can share a chunk.
    """
    if slice_batch < 1:
        raise ValueError("slice_batch must be at least 1")
    permute, matmul = xp.permute, xp.matmul
    total = 0j
    chunks = 0
    for start in range(0, len(assignments), slice_batch):
        chunk = assignments[start:start + slice_batch]
        chunks += 1
        with _trace.span("slices.chunk") as chunk_span:
            chunk_span.set(slices=len(chunk), device=str(xp.device))
            with _trace.span("slices.transfer"):
                ops = applier.gather(xp, chunk)
            for (lhs, rhs, lhs_axes, rhs_axes,
                 lhs_shape, rhs_shape, out_shape) in compiled.steps:
                a, b = ops[lhs], ops[rhs]
                del ops[rhs]
                del ops[lhs]
                if lhs_axes is not None:
                    a = permute(a, lhs_axes)
                if rhs_axes is not None:
                    b = permute(b, rhs_axes)
                merged = matmul(a.reshape(lhs_shape), b.reshape(rhs_shape))
                ops.append(merged.reshape(out_shape))
            value = xp.sum_scalar(ops[0])
            if not compiled.out_batched:
                # No batch axis left (every unsliced plan, whose chunk is
                # one slice): the value is the same for each slice.
                value *= len(chunk)
            total += value
    if stats is not None:
        stats.num_pairwise_contractions += chunks * len(compiled.steps)
        stats.max_intermediate_rank = max(
            stats.max_intermediate_rank, compiled.peak_rank
        )
        stats.max_intermediate_size = max(
            stats.max_intermediate_size, compiled.peak_size
        )
        if slice_batch > 1 and len(assignments) > 1:
            stats.batched_slice_calls += chunks
    return total
