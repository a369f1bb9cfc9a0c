"""The 8 GraphBIG GPU kernels (paper Table 3: "8 GPU workloads").

Kernels taking the *undirected* view (kCore, CComp, GColor, TC) expect a
symmetrized CSR — :func:`repro.gpu.runner.run_gpu_workload` handles the
per-kernel view selection.
"""

from .base import GPUKernel, frontier_expand
from .bcentr import GPUBcentr
from .bfs import GPUBfs
from .ccomp import GPUCcomp
from .dcentr import GPUDcentr
from .gcolor import GPUGcolor
from .kcore import GPUKcore
from .spath import GPUSpath
from .tc import GPUTc

#: Registry of GPU kernels keyed by workload name.
GPU_KERNELS: dict[str, type[GPUKernel]] = {
    k.NAME: k for k in (GPUBfs, GPUSpath, GPUKcore, GPUCcomp, GPUGcolor,
                        GPUTc, GPUDcentr, GPUBcentr)
}

#: Workloads whose GPU kernel operates on the undirected (symmetrized) view.
UNDIRECTED_KERNELS = frozenset({"kCore", "CComp", "GColor", "TC"})

__all__ = ["GPU_KERNELS", "GPUBcentr", "GPUBfs", "GPUCcomp", "GPUDcentr",
           "GPUGcolor", "GPUKcore", "GPUKernel", "GPUSpath", "GPUTc",
           "UNDIRECTED_KERNELS", "frontier_expand"]
