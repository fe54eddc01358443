"""The test-side reference kernel for the array backend.

``Tensor.contract`` (``np.tensordot``) driven step by step through
:func:`~repro.tensornet.planner.execute_plan`: the same plan as the
backend under test, contracted by another kernel.
"""

from repro.tensornet import Tensor, build_plan
from repro.tensornet.planner import execute_plan


def tensordot_reference(network, plan=None) -> complex:
    """The network's scalar, contracted pairwise by ``Tensor.contract``."""
    return execute_plan(
        plan if plan is not None else build_plan(network), network,
        load=list,
        merge=lambda a, b, step: a.contract(b),
        scalar=Tensor.scalar,
    )
