"""Tests for the array-namespace layer and batched slice execution.

Three concerns, mirroring the layers of :mod:`repro.backends.xp`:

* **truthful availability** — optional namespaces probe without import,
  registry entries for torch/cupy backends always exist, and a missing
  library surfaces as :class:`MissingDependencyError` at construction,
  never as an import error at ``import repro.backends`` time;
* **compiled plans** — each step is lowered once per plan digest to a
  permute/reshape/matmul triple and memoised process-wide;
* **batched == looped == unsliced** — property tests pin the batched
  kernel, the one-slice-per-chunk sweep and the unsliced contraction
  to the ``Tensor.contract`` oracle within 1e-9, including ragged final
  chunks (``num_slices % slice_batch != 0``).
"""

import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.backends import (
    AUTO_SLICE_BATCH_BUDGET,
    DenseBackend,
    MissingDependencyError,
    NumpyEinsumBackend,
    TddBackend,
    TorchEinsumBackend,
    available_backends,
    backend_availability,
    get_backend,
    namespace_available,
    registered_backends,
    resolve_namespace,
)
from repro.backends.xp import _COMPILED_MEMO, compile_plan, compiled_for
from repro.core import fidelity_collective, jamiolkowski_fidelity_dense
from repro.core.session import CheckConfig
from repro.library import qft
from repro.noise import depolarizing, insert_random_noise
from repro.tensornet import Tensor, TensorNetwork, build_plan

from oracle import tensordot_reference

TORCH_MISSING = namespace_available("torch")

requires_torch = pytest.mark.skipif(
    TORCH_MISSING is not None, reason=TORCH_MISSING or "torch installed"
)
requires_no_torch = pytest.mark.skipif(
    TORCH_MISSING is None, reason="torch is installed on this host"
)


# --- availability truth -----------------------------------------------------


class TestNamespaceAvailability:
    def test_numpy_always_available(self):
        assert namespace_available("numpy") is None

    def test_unknown_namespace_reports_reason(self):
        reason = namespace_available("tensorflow")
        assert reason is not None and "unknown" in reason

    @pytest.mark.parametrize("name", ["torch", "cupy"])
    def test_probe_matches_find_spec(self, name):
        import importlib.util

        missing = namespace_available(name)
        if importlib.util.find_spec(name) is None:
            assert missing is not None
            assert f"repro[{name}]" in missing
        else:
            assert missing is None

    def test_resolve_unknown_namespace(self):
        with pytest.raises(ValueError):
            resolve_namespace("tensorflow")

    def test_numpy_rejects_accelerator_device(self):
        with pytest.raises(ValueError) as excinfo:
            resolve_namespace("numpy", device="cuda")
        assert "einsum-torch" in str(excinfo.value)

    @requires_no_torch
    def test_missing_namespace_raises_typed_import_error(self):
        with pytest.raises(MissingDependencyError) as excinfo:
            resolve_namespace("torch")
        assert issubclass(MissingDependencyError, ImportError)
        assert "repro[torch]" in str(excinfo.value)


class TestRegistryTruth:
    def test_optional_backends_always_registered(self):
        names = registered_backends()
        assert {"einsum-torch", "einsum-cupy"} <= set(names)

    def test_availability_table_covers_registry(self):
        table = backend_availability()
        assert set(table) == set(registered_backends())
        for name in ("tdd", "dense", "einsum"):
            assert table[name] is None
        assert table["einsum-torch"] == namespace_available("torch")
        assert table["einsum-cupy"] == namespace_available("cupy")

    def test_available_backends_are_instantiable(self):
        for name in available_backends():
            assert get_backend(name).name == name

    @requires_no_torch
    def test_unavailable_backend_fails_at_construction(self):
        # Registered (so the error is the dependency, not the name) but
        # constructing it raises the typed, hint-carrying ImportError.
        assert "einsum-torch" in registered_backends()
        assert "einsum-torch" not in available_backends()
        with pytest.raises(MissingDependencyError):
            get_backend("einsum-torch")

    def test_importing_backends_never_imports_optional_deps(self):
        root = str(Path(repro.__file__).resolve().parents[1])
        code = (
            f"import sys; sys.path.insert(0, {root!r}); "
            "import repro.backends; "
            "assert 'torch' not in sys.modules, 'torch imported eagerly'; "
            "assert 'cupy' not in sys.modules, 'cupy imported eagerly'"
        )
        subprocess.run([sys.executable, "-c", code], check=True)


class TestConfigValidation:
    def test_unavailable_backend_named_in_config_error(self):
        table = backend_availability()
        unavailable = [n for n, why in table.items() if why is not None]
        if not unavailable:
            pytest.skip("every registered backend is available here")
        with pytest.raises(ValueError) as excinfo:
            CheckConfig(backend=unavailable[0])
        assert "unavailable" in str(excinfo.value)

    def test_slice_batch_must_be_positive(self):
        with pytest.raises(ValueError):
            CheckConfig(slice_batch=0)

    def test_cpu_backend_rejects_cuda_device(self):
        with pytest.raises(ValueError) as excinfo:
            CheckConfig(backend="einsum", device="cuda")
        assert "einsum-torch" in str(excinfo.value)


# --- compiled plans ---------------------------------------------------------


def _tiny_sliced_plan():
    rng = np.random.default_rng(7)
    # A triangle of bond-4 edges: merging any pair leaves a rank-2
    # intermediate of 16 elements, so a bound of 4 forces slicing.
    tensors = [
        Tensor(rng.standard_normal((4, 4)), ["a", "b"]),
        Tensor(rng.standard_normal((4, 4)), ["b", "c"]),
        Tensor(rng.standard_normal((4, 4)), ["c", "a"]),
    ]
    network = TensorNetwork(tensors)
    plan = build_plan(network, max_intermediate_size=4)
    assert plan.slices, "fixture must force slicing"
    return network, plan


class TestCompiledPlans:
    def test_batched_operands_keep_the_batch_axis_first(self):
        _, plan = _tiny_sliced_plan()
        compiled = compile_plan(plan)
        assert compiled.out_batched
        for cstep in compiled.steps:
            for axes, shape in (
                (cstep.lhs_axes, cstep.lhs_shape),
                (cstep.rhs_axes, cstep.rhs_shape),
            ):
                assert len(shape) in (2, 3)
                if len(shape) == 3:  # batched: (-1, rows, cols)
                    assert shape[0] == -1
                    assert axes is None or axes[0] == 0
            assert (cstep.out_shape[:1] == (-1,)) == (
                len(cstep.lhs_shape) == 3 or len(cstep.rhs_shape) == 3
            )

    def test_unsliced_plan_has_no_batch_axis(self):
        network, _ = _tiny_sliced_plan()
        compiled = compile_plan(build_plan(network))
        assert not compiled.out_batched
        for cstep in compiled.steps:
            assert len(cstep.lhs_shape) == len(cstep.rhs_shape) == 2
            assert -1 not in cstep.out_shape

    def test_step_matrices_match_the_plan(self):
        network, _ = _tiny_sliced_plan()
        plan = build_plan(network)
        compiled = compile_plan(plan)
        assert compiled.peak_size == plan.peak_size()
        for cstep, step in zip(compiled.steps, plan.steps):
            m, k = cstep.lhs_shape
            k2, n = cstep.rhs_shape
            assert k == k2
            assert m * n == step.output_size
            assert m * k * n == step.flops

    def test_step_output_not_lhs_then_rhs_is_rejected(self):
        import dataclasses

        network, _ = _tiny_sliced_plan()
        plan = build_plan(network)
        first = plan.steps[0]
        swapped = dataclasses.replace(first, output=first.output[::-1])
        bad = dataclasses.replace(plan, steps=(swapped,) + plan.steps[1:])
        with pytest.raises(ValueError):
            compile_plan(bad)

    def test_compiled_for_memoises_by_digest(self):
        _, plan = _tiny_sliced_plan()
        _COMPILED_MEMO.pop(plan.digest(), None)
        first = compiled_for(plan)
        assert compiled_for(plan) is first
        assert plan.digest() in _COMPILED_MEMO

    def test_einsum_path_reuses_compiled_plan(self):
        network, plan = _tiny_sliced_plan()
        backend = NumpyEinsumBackend(max_intermediate_size=4)
        value = backend.contract_scalar(network, plan=plan)
        assert compiled_for(plan) is compiled_for(plan)
        ref = tensordot_reference(network)
        assert abs(value - ref) < 1e-9


class TestEffectiveSliceBatch:
    def test_unsliced_plan_never_batches(self):
        ideal = qft(2)
        noisy = insert_random_noise(ideal, 1, seed=0)
        backend = NumpyEinsumBackend()
        from repro.core.miter import algorithm_network

        network = algorithm_network(noisy, ideal, "alg2")
        plan = backend.plan_for(network)
        assert not plan.slices
        assert backend.effective_slice_batch(plan) == 1

    def test_explicit_slice_batch_pins(self):
        _, plan = _tiny_sliced_plan()
        assert NumpyEinsumBackend(slice_batch=5).effective_slice_batch(
            plan
        ) == 5
        assert NumpyEinsumBackend(slice_batch=1).effective_slice_batch(
            plan
        ) == 1

    def test_auto_batch_respects_budget_and_slice_count(self):
        _, plan = _tiny_sliced_plan()
        batch = NumpyEinsumBackend().effective_slice_batch(plan)
        assert 1 <= batch <= plan.num_slices()
        assert batch * plan.peak_size() <= max(
            AUTO_SLICE_BATCH_BUDGET, plan.peak_size()
        )

    def test_non_batching_backend_always_loops(self):
        _, plan = _tiny_sliced_plan()
        assert not TddBackend.supports_batched_slices
        assert TddBackend(slice_batch=64).effective_slice_batch(plan) == 1

    def test_bad_slice_batch_rejected_at_construction(self):
        with pytest.raises(ValueError):
            NumpyEinsumBackend(slice_batch=0)


# --- batched == looped == unsliced ------------------------------------------


@st.composite
def closed_networks(draw):
    """A random closed network: each label lands on exactly two slots."""
    num_tensors = draw(st.integers(min_value=2, max_value=4))
    num_edges = draw(st.integers(min_value=2, max_value=7))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    slots = [[] for _ in range(num_tensors)]
    dims = {}
    for e in range(num_edges):
        label = f"e{e}"
        dims[label] = int(rng.integers(2, 4))
        a, b = rng.integers(0, num_tensors, size=2)
        slots[int(a)].append(label)
        slots[int(b)].append(label)
    tensors = []
    for labels in slots:
        shape = tuple(dims[lab] for lab in labels)
        data = rng.uniform(-1, 1, size=shape) + 1j * rng.uniform(
            -1, 1, size=shape
        )
        tensors.append(Tensor(data, labels))
    return TensorNetwork(tensors)


class TestBatchedAgreesWithLooped:
    """The satellite invariant: batched == looped == unsliced to 1e-9."""

    @settings(max_examples=40, deadline=None)
    @given(
        network=closed_networks(),
        backend_cls=st.sampled_from([DenseBackend, NumpyEinsumBackend]),
        slice_batch=st.sampled_from([1, 2, 3, 7, None]),
        bound=st.sampled_from([2, 4, 16]),
    )
    def test_property(self, network, backend_cls, slice_batch, bound):
        reference = tensordot_reference(network)
        scale = max(1.0, abs(reference))
        looped = backend_cls(
            max_intermediate_size=bound, slice_batch=1
        ).contract_scalar(network)
        under_test = backend_cls(
            max_intermediate_size=bound, slice_batch=slice_batch
        ).contract_scalar(network)
        assert abs(looped - reference) < 1e-9 * scale
        assert abs(under_test - reference) < 1e-9 * scale
        assert abs(under_test - looped) < 1e-9 * scale

    @pytest.mark.parametrize("backend_name", ["tdd", "dense", "einsum"])
    @pytest.mark.parametrize("slice_batch", [1, 3, None])
    def test_circuit_fidelity_all_backends(self, backend_name, slice_batch):
        # 3 is deliberately ragged: the slice counts here are powers of
        # two, so the final chunk is short.  tdd accepts the knob but
        # loops regardless — agreement must hold either way.
        ideal = qft(3)
        noisy = insert_random_noise(
            ideal, 2, channel_factory=lambda: depolarizing(0.98), seed=13
        )
        ref = jamiolkowski_fidelity_dense(noisy, ideal)
        backend = get_backend(
            backend_name, max_intermediate_size=8, slice_batch=slice_batch
        )
        result = fidelity_collective(noisy, ideal, backend=backend)
        assert abs(result.fidelity - ref) < 1e-9
        assert result.stats.slice_count > 1
        if backend.supports_batched_slices and slice_batch != 1:
            assert result.stats.batched_slice_calls > 0
        else:
            assert result.stats.batched_slice_calls == 0

    def test_oversized_slice_batch_is_one_chunk(self):
        network, plan = _tiny_sliced_plan()
        ref = tensordot_reference(network)
        value = NumpyEinsumBackend(
            max_intermediate_size=4, slice_batch=10**6
        ).contract_scalar(network)
        assert abs(value - ref) < 1e-9

    def test_stats_keep_per_slice_semantics(self):
        from repro.tensornet import ContractionStats

        network, plan = _tiny_sliced_plan()
        stats = ContractionStats()
        NumpyEinsumBackend(
            max_intermediate_size=4, slice_batch=4
        ).contract_scalar(network, stats=stats)
        assert 0 < stats.max_intermediate_size <= plan.peak_size()
        assert stats.batched_slice_calls >= 1


# --- the torch path ---------------------------------------------------------


def _install_fake_torch(monkeypatch):
    """A numpy-backed stand-in exposing the slice of torch the kernels use."""

    class _Device:
        def __init__(self, spec):
            spec = str(spec)
            if not spec or spec.split(":")[0] not in ("cpu", "cuda"):
                raise RuntimeError(f"Expected cpu or cuda, got {spec}")
            self.type = spec.split(":")[0]
            self._spec = spec

        def __str__(self):
            return self._spec

    fake = types.ModuleType("torch")
    fake.device = _Device
    fake.cuda = types.SimpleNamespace(is_available=lambda: False)
    fake.as_tensor = lambda array, device=None: np.asarray(array)
    fake.matmul = np.matmul
    fake.permute = np.transpose
    monkeypatch.setitem(sys.modules, "torch", fake)
    return fake


class TestTorchBackend:
    def test_fake_torch_drives_batched_contraction(self, monkeypatch):
        _install_fake_torch(monkeypatch)
        network, _ = _tiny_sliced_plan()
        ref = tensordot_reference(network)
        backend = TorchEinsumBackend(max_intermediate_size=4, slice_batch=3)
        assert backend.name == "einsum-torch"
        assert backend.resolved_device == "cpu"
        value = backend.contract_scalar(network)
        assert abs(value - ref) < 1e-9

    def test_fake_torch_rejects_unavailable_cuda(self, monkeypatch):
        _install_fake_torch(monkeypatch)
        with pytest.raises(ValueError) as excinfo:
            TorchEinsumBackend(device="cuda")
        assert "CUDA" in str(excinfo.value)

    @requires_torch
    def test_real_torch_agrees_with_numpy(self):
        ideal = qft(3)
        noisy = insert_random_noise(
            ideal, 2, channel_factory=lambda: depolarizing(0.98), seed=13
        )
        ref = jamiolkowski_fidelity_dense(noisy, ideal)
        for slice_batch in (1, None):
            backend = get_backend(
                "einsum-torch",
                max_intermediate_size=64,
                slice_batch=slice_batch,
            )
            value = fidelity_collective(noisy, ideal, backend=backend)
            assert abs(value.fidelity - ref) < 1e-9
