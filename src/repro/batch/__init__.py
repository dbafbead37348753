"""Batched fast-path execution engine.

The faithful models in :mod:`repro.fma` and :mod:`repro.fp` evaluate one
digit-level operation at a time; this subsystem executes the same
arithmetic *bit-identically* but orders of magnitude cheaper, so the
solver/HLS/experiment layers can push thousands of FMAs through one
call:

* :func:`fma_batch` / :func:`dot_batch` / :func:`accumulate_batch` --
  batched entry points over the carry-save units and the [12] MAC;
* :func:`select_engine` -- the one place that picks the engine
  (faithful / tuple kernel / NumPy lane engine) a batch call runs on;
* :func:`accelerate_engine` plus the ``Fast*Engine`` classes -- drop-in
  fast twins of the :class:`~repro.fma.chain.FmaEngine` family, used by
  the ``use_batch=`` switches in ``hls.simulate``/``hls.execute`` and
  ``experiments.fig14``;
* :class:`FastCSKernel` -- the tuple-based PCS/FCS datapath kernel
  (compiled Wallace trees; the window stages of :mod:`.stages`);
* the integer IEEE kernels (:func:`fp_add_fast` & co.) backing the
  classic/discrete engines;
* cache management for the memoized hardware lookups
  (:func:`hw_cache_info`, :func:`clear_hw_caches`).

The scalar paths remain the reference model; every fast component is
pinned to them by the differential harness in
``tests/test_batch_differential.py``.
"""

from .api import (accumulate_batch, dot_batch, fma_batch, requested_backend,
                  select_engine)
from .cskernel import FastCSKernel, bit_positions, kernel_for
from .engines import (BACKENDS, FastCSFmaEngine, FastDiscreteMulAddEngine,
                      FastFusedIeeeEngine, accelerate_engine)
from .ieee_fast import (as_format_fast, fp_add_fast, fp_fma_fast,
                        fp_mul_fast, round_to_format)
from .memo import clear_hw_caches, hw_cache_info
from .trees import clear_tree_cache, tree_depth, tree_fn
from .vector import VectorCSKernel, clear_vector_cache, vector_kernel_for

__all__ = [
    "fma_batch", "dot_batch", "accumulate_batch",
    "accelerate_engine", "FastCSFmaEngine", "FastDiscreteMulAddEngine",
    "FastFusedIeeeEngine", "FastCSKernel", "kernel_for", "bit_positions",
    "BACKENDS", "select_engine", "requested_backend",
    "VectorCSKernel", "vector_kernel_for", "clear_vector_cache",
    "fp_add_fast", "fp_mul_fast", "fp_fma_fast", "as_format_fast",
    "round_to_format",
    "hw_cache_info", "clear_hw_caches",
    "tree_fn", "tree_depth", "clear_tree_cache",
]
