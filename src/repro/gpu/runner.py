"""GPU workload runner: spec/graph -> populate -> kernel -> metrics."""

from __future__ import annotations

from typing import Any

from ..datagen.spec import GraphSpec
from ..formats.convert import csr_to_coo
from .device import K40, GPUMetrics, time_kernel
from .kernels import GPU_KERNELS, UNDIRECTED_KERNELS


def run_gpu_workload(name: str, spec: GraphSpec,
                     **params: Any) -> tuple[dict[str, Any], GPUMetrics]:
    """Run GPU kernel ``name`` on dataset ``spec`` on the K40.

    The device graph comes from the spec's CSR (the populate step's
    output); kernels on the undirected view get the symmetrized CSR.
    Returns ``(outputs, metrics)``.
    """
    try:
        kernel_cls = GPU_KERNELS[name]
    except KeyError:
        raise KeyError(f"no GPU kernel for {name!r}; "
                       f"available: {sorted(GPU_KERNELS)}") from None
    csr = spec.csr()
    if name in UNDIRECTED_KERNELS:
        csr = csr.undirected()
    coo = csr_to_coo(csr)
    outputs, stats = kernel_cls().run(csr, coo, l2_bytes=K40.l2_bytes, **params)
    return outputs, time_kernel(stats, K40)
