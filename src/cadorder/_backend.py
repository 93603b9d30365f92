"""The arithmetic kernel, under the name the benchmark looks it up by.

The package has one kernel, ``cadorder._kernel_py``.  This alias stays only
because ``perfbench/tracer.py`` resolves ``cadorder._backend:kernel`` for the
``kernel.kmul`` and ``kernel.kexact_div`` metrics, and
``perfbench/workloads.py`` imports ``BACKEND`` to record it with each result.
"""

from cadorder import _kernel_py as kernel

BACKEND: str = kernel.IMPL
