"""The compiled matmul kernel against independent references.

``dense`` and ``einsum`` are two names for one array backend, so neither
can check the other.  The references here are independent of the kernel:

* :meth:`Tensor.contract` (``np.tensordot``) driven step by step through
  :func:`~repro.tensornet.planner.execute_plan` — same plan, another
  kernel;
* the TDD backend and the dense ``process_fidelity`` baseline, where a
  row is small enough for them to be quick.

Rows are the Table I rows of the benchmark of record (qft5, qv_n5d5,
qv_n7d5, 7x1mod15, grover3, rb2) plus qft7 and bv13, with the seeded
noise of ``benchmarks/_common.py``.  Each row runs unsliced and sliced
at ``peak_size() // 8``; where that bound implies more than
:data:`MAX_TEST_SLICES` subplans (7x1mod15 and bv13) the divisor halves
until it does not.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.api import CheckRequest, CircuitSpec, Engine, NoiseSpec
from repro.backends import get_backend
from repro.baseline import process_fidelity
from repro.core import fidelity_collective
from repro.core.miter import alg2_trace_network
from repro.tensornet import slice_plan
from repro.trace import tree_phase_seconds

from oracle import tensordot_reference

#: Slice-count ceiling for the sliced variant (keeps tier-1 fast).
MAX_TEST_SLICES = 1024

ROWS = (
    "qft5", "qv_n5d5", "qv_n7d5", "7x1mod15", "grover3", "rb2",
    "qft7", "bv13",
)
#: Rows on which TDD's alg2 and the dense process-fidelity baseline
#: finish in about a second.
SMALL_ROWS = ("qft5", "grover3", "rb2", "7x1mod15")


def _table1_rows():
    path = Path(__file__).resolve().parents[2] / "benchmarks" / "_common.py"
    spec = importlib.util.spec_from_file_location("_table1_common", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module
    spec.loader.exec_module(module)
    return module.TABLE1_BY_NAME


TABLE1_BY_NAME = _table1_rows()


def sliced_variant(plan):
    divisor = 8
    while True:
        try:
            sliced = slice_plan(
                plan, plan.peak_size() // divisor,
                max_slices=MAX_TEST_SLICES,
            )
        except ValueError:
            divisor //= 2
            continue
        assert sliced.slices
        return sliced


@pytest.fixture(scope="module", params=ROWS)
def row(request):
    workload = TABLE1_BY_NAME[request.param]
    network = alg2_trace_network(workload.noisy(), workload.ideal())
    plan = get_backend("dense").plan_for(network)
    return {
        "network": network,
        "plan": plan,
        "sliced": sliced_variant(plan),
        "reference": tensordot_reference(network, plan),
    }


class TestAgainstTensordot:
    @pytest.mark.parametrize("backend", ["dense", "einsum"])
    def test_unsliced(self, row, backend):
        value = get_backend(backend).contract_scalar(
            row["network"], plan=row["plan"]
        )
        reference = row["reference"]
        assert abs(value - reference) <= 1e-9 * abs(reference)

    @pytest.mark.parametrize("slice_batch", [None, 1])
    @pytest.mark.parametrize("backend", ["dense", "einsum"])
    def test_sliced(self, row, backend, slice_batch):
        value = get_backend(
            backend, slice_batch=slice_batch
        ).contract_scalar(row["network"], plan=row["sliced"])
        reference = row["reference"]
        assert abs(value - reference) <= 1e-9 * abs(reference)


class TestAgainstTddAndBaseline:
    @pytest.mark.parametrize("name", SMALL_ROWS)
    def test_fidelity_agrees(self, name):
        workload = TABLE1_BY_NAME[name]
        ideal, noisy = workload.ideal(), workload.noisy()
        plan = get_backend("dense").plan_for(
            alg2_trace_network(noisy, ideal)
        )
        sliced_bound = sliced_variant(plan).peak_size()
        values = [fidelity_collective(noisy, ideal, backend="tdd").fidelity]
        for backend in ("dense", "einsum"):
            for bound in (None, sliced_bound):
                values.append(fidelity_collective(
                    noisy, ideal,
                    backend=get_backend(backend, max_intermediate_size=bound),
                ).fidelity)
        reference = process_fidelity(noisy, ideal)
        assert np.allclose(values, reference, rtol=0, atol=1e-9)


class TestPhaseAttribution:
    @pytest.mark.parametrize("backend", ["dense", "einsum"])
    def test_unsliced_check_attributes_execute(self, backend):
        request = CheckRequest(
            ideal=CircuitSpec.from_library("qft", num_qubits=3),
            noise=NoiseSpec(noises=2, seed=0),
            epsilon=0.05,
            config={"backend": backend, "algorithm": "alg2", "trace": True},
        )
        with Engine() as engine:
            response = engine.check(request)
        assert response.ok
        phases = tree_phase_seconds(response.result.trace)
        assert phases.get("execute", 0.0) > 0
