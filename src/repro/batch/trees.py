"""Specialized straight-line Wallace trees for the batched fast path.

The scalar multiplier (:func:`repro.cs.multiplier.multiply_mantissa` over
:func:`repro.cs.csa.reduce_rows`) reduces one partial-product row list
with a generic loop: list churn, per-compressor masking, one Python-level
``csa3`` call per 3:2 level.  The *shape* of that tree, however, depends
only on the number of rows -- which for a multiplier is the popcount of
the ``B`` significand -- so the batched engine compiles one straight-line
Python function per row count and reuses it for every operation.

Two exactness-preserving shortcuts make the generated code cheaper than
a faithful transcription while remaining bit-identical:

* **Shared sub-expressions.**  ``x ^ y`` appears in both the sum
  (``x ^ y ^ z``) and the majority carry
  (``(x & y) | ((x ^ y) & z)``), so each 3:2 level costs six big-int
  operations instead of nine.
* **No per-level masks (upward information flow).**  Every compressor
  output bit ``j`` depends only on input bits ``<= j`` (the operators
  are ``&``, ``|``, ``^`` and ``<< 1``), so truncating each level to the
  window modulus commutes with computing the whole tree unmasked and
  truncating once at the end.  The tree therefore never masks; the
  caller masks its two outputs once, whatever the sign or width of the
  multiplicand.

The generated functions take ``(c_eff, positions)`` -- the wrapped
common multiplicand and the ascending set-bit positions of the ``B``
significand -- and return a ``(sum, carry)`` pair equal, after a final
``& mask``, to what the faithful ``reduce_rows`` produces at that mask's
width.
"""

from __future__ import annotations

__all__ = ["tree_fn", "tree_depth", "tree_source", "clear_tree_cache"]

#: Compiled row_count -> function cache.  Populated on demand;
#: compilation costs a few hundred microseconds per row count and is
#: amortized over the process lifetime.
_TREES: dict[int, object] = {}

_DEPTHS: dict[int, int] = {}


def tree_depth(rows: int) -> int:
    """3:2 levels needed for ``rows`` partial products (memoized twin of
    :func:`repro.cs.csa.csa_tree_depth`)."""
    d = _DEPTHS.get(rows)
    if d is None:
        n, d = rows, 0
        while n > 2:
            n = 2 * (n // 3) + (n % 3)
            d += 1
        _DEPTHS[rows] = d
    return d


def tree_source(rows: int) -> tuple[str, str]:
    """Source text of the specialized reduction for ``rows`` rows.

    Replicates the exact combination order of
    :func:`repro.cs.csa.reduce_rows`: triples ``(i, i+1, i+2)`` per
    level, remainders appended after the compressed pairs.
    """
    name = f"_tree{rows}"
    lines = [f"def {name}(c_eff, P):"]
    lines += [f"    r{i} = c_eff << P[{i}]" for i in range(rows)]
    work = [f"r{i}" for i in range(rows)]
    tmp = 0
    while len(work) > 2:
        nxt = []
        for i in range(0, len(work) - 2, 3):
            x, y, z = work[i], work[i + 1], work[i + 2]
            t, s, c = f"t{tmp}", f"s{tmp}", f"c{tmp}"
            tmp += 1
            lines.append(f"    {t} = {x} ^ {y}")
            lines.append(f"    {s} = {t} ^ {z}")
            lines.append(f"    {c} = (({x} & {y}) | ({t} & {z})) << 1")
            nxt.append(s)
            nxt.append(c)
        rem = len(work) % 3
        if rem:
            nxt.extend(work[-rem:])
        work = nxt
    s_out = work[0] if work else "0"
    c_out = work[1] if len(work) > 1 else "0"
    lines.append(f"    return {s_out}, {c_out}")
    return "\n".join(lines), name


def tree_fn(rows: int):
    """Compiled specialized reduction (cached)."""
    fn = _TREES.get(rows)
    if fn is None:
        src, name = tree_source(rows)
        ns: dict[str, object] = {}
        exec(compile(src, f"<csa-tree {rows}>", "exec"), ns)
        fn = ns[name]
        _TREES[rows] = fn
    return fn


def clear_tree_cache() -> None:
    """Drop all compiled trees (mainly for tests)."""
    _TREES.clear()
