"""Batch execution for the serving layer.

The unit of execution is a **payload**: one coalesced micro-batch of
same-``(op, fmt)`` requests, flattened to plain ints so it crosses a
process boundary cheaply.  :func:`execute_payload` is the module-level
(picklable) work function; :class:`BatchExecutor` routes every payload
through :func:`repro.faults.resilient.run_resilient`, so one shared
recovery policy covers the whole repo:

* ``isolation="inline"`` (default): the payload runs in the calling
  (worker-pool) thread -- ``run_resilient`` still provides bounded
  retry with backoff and structured failure records;
* ``isolation="process"``: the payload runs in a child process with the
  full per-attempt wall-clock timeout, hung-worker reclaim and
  broken-pool respawn machinery (slower: a pool is spawned per payload;
  meant for untrusted/long batches, and for the resilience tests).

Payloads carrying a ``verify`` level instead route through the
:class:`repro.guard.voting.GuardedExecutor`: the whole batch executes
under the armed residue checkers and, on a flag (or unconditionally in
DMR/TMR mode), is re-executed and voted on.  Process isolation composes:
guard replicas then run on distinct pool workers.

Failures are two-level by design.  A *request* that cannot be computed
(accumulator overflow, malformed operands) yields a per-item error
record inside an otherwise successful payload -- it never fails its
batchmates and is never retried.  Only *infrastructure* failures (hang,
crash, worker death) fail the payload and engage retry; after the last
attempt every request in the batch gets a structured ``error`` response
carrying the resilient error record's ``kind``.
"""

from __future__ import annotations

import numpy as np

from ..batch import (dot_batch, fma_batch, kernel_for, select_engine,
                     vector_kernel_for)
from ..fma.accumulator import PcsAccumulator
from ..fma.classic import ClassicFmaUnit
from ..fma.convert import cs_to_ieee, ieee_to_cs
from ..fma.csfma import FcsFmaUnit, PcsFmaUnit
from ..fma.dotprod import FusedDotProductUnit
from ..fp.formats import BINARY64
from ..faults.resilient import RetryPolicy, run_resilient
from .protocol import Request, fp_to_word, word_to_fp

__all__ = ["execute_payload", "reference_result", "BatchExecutor",
           "payload_from_requests"]


def _units():
    """Per-process unit singletons (compiled kernels are cached per
    params, so workers pay the warm-up once)."""
    global _UNIT_CACHE
    try:
        return _UNIT_CACHE
    except NameError:
        _UNIT_CACHE = {"classic": ClassicFmaUnit(BINARY64),
                       "pcs": PcsFmaUnit(), "fcs": FcsFmaUnit()}
        return _UNIT_CACHE


def payload_from_requests(op: str, fmt: str, requests: "list[Request]",
                          verify: str | None = None,
                          backend: str | None = None) -> dict:
    """Flatten one coalesced batch into a picklable payload dict."""
    payload = {"op": op, "fmt": fmt,
               "items": [(r.a, r.b, r.c) for r in requests]}
    if verify is not None:
        payload["verify"] = verify
    if backend is not None:
        payload["backend"] = backend
    return payload


def _exec_fma(fmt: str, items, backend: str | None) -> list:
    unit = _units()[fmt]
    if fmt == "classic":
        out = []
        for a, b, c in items:
            r = unit.fma(word_to_fp(a), word_to_fp(b), word_to_fp(c))
            out.append(("ok", fp_to_word(r)))
        return out
    a = [word_to_fp(w) for w, _b, _c in items]
    b = [word_to_fp(w) for _a, w, _c in items]
    c = [word_to_fp(w) for _a, _b, w in items]
    results = fma_batch(a, b, c, unit=unit, backend=backend)
    if backend == "faithful":
        return [("ok", fp_to_word(cs_to_ieee(r))) for r in results]
    kernel = kernel_for(unit)
    lift, to_ieee = kernel.lift_cs, kernel.to_ieee
    return [("ok", fp_to_word(to_ieee(lift(r)))) for r in results]


def _exec_dot_vector(unit, items) -> list:
    """Whole-payload vector evaluation of a coalesced dot batch: the
    word vectors go straight into :meth:`VectorCSKernel.dot_many_words`
    (no per-element ``word_to_fp``)."""
    vk = vector_kernel_for(unit)
    lens = [len(aw) for aw, _bw, _c in items]
    T = max(lens)
    N = len(items)
    a = np.zeros((T, N), np.uint64)
    b = np.zeros((T, N), np.uint64)
    for i, (aw, bw, _c) in enumerate(items):
        if lens[i]:
            a[:lens[i], i] = aw
            b[:lens[i], i] = bw
    tuples = vk.dot_many_words(a, b, lens=np.asarray(lens, np.int64))
    to_ieee = vk.kernel.to_ieee
    return [("ok", fp_to_word(to_ieee(t))) for t in tuples]


def _exec_dot(fmt: str, items, backend: str | None) -> list:
    unit = _units()[fmt]
    if items and select_engine("dot-lanes", unit, len(items),
                               backend) == "vector":
        return _exec_dot_vector(unit, items)
    out = []
    for aw, bw, _c in items:
        a = [word_to_fp(w) for w in aw]
        b = [word_to_fp(w) for w in bw]
        out.append(("ok", fp_to_word(dot_batch(a, b, unit=unit,
                                                backend=backend))))
    return out


def _exec_acc(items, backend: str | None) -> list:
    from ..batch import accumulate_batch

    out = []
    for aw, bw, _c in items:
        a = [word_to_fp(w) for w in aw]
        b = [word_to_fp(w) for w in bw]
        try:
            acc = accumulate_batch(a, b, use_batch=backend != "faithful")
            out.append(("ok", fp_to_word(acc.result())))
        except ArithmeticError as exc:
            out.append(("error", "exception",
                        f"{type(exc).__name__}: {exc}"))
    return out


def execute_payload(payload: dict) -> list:
    """Execute one payload; returns one record per item, in order.

    Records are ``("ok", result_word)`` or
    ``("error", kind, message)``.  Request-level failures are captured
    per item; anything else propagates (and becomes an infrastructure
    failure handled by the resilient wrapper).
    """
    op = payload["op"]
    fmt = payload["fmt"]
    items = payload["items"]
    backend = payload.get("backend")
    if op == "fma":
        return _exec_fma(fmt, items, backend)
    if op == "dot":
        return _exec_dot(fmt, items, backend)
    if op == "acc":
        return _exec_acc(items, backend)
    raise ValueError(f"unknown op {op!r}")


def reference_result(req: Request) -> "tuple":
    """The oracle for one request: the faithful scalar models, no batch
    kernels, no serving layer.  Differential tests compare every served
    response against this, bit for bit."""
    units = _units()
    if req.op == "fma":
        if req.fmt == "classic":
            r = units["classic"].fma(word_to_fp(req.a), word_to_fp(req.b),
                                     word_to_fp(req.c))
            return ("ok", fp_to_word(r))
        unit = units[req.fmt]
        r = unit.fma(ieee_to_cs(word_to_fp(req.a), unit.params),
                     word_to_fp(req.b),
                     ieee_to_cs(word_to_fp(req.c), unit.params))
        return ("ok", fp_to_word(cs_to_ieee(r)))
    a = [word_to_fp(w) for w in req.a]
    b = [word_to_fp(w) for w in req.b]
    if req.op == "dot":
        return ("ok",
                fp_to_word(FusedDotProductUnit(units[req.fmt]).dot(a, b)))
    acc = PcsAccumulator()
    try:
        for ai, bi in zip(a, b):
            acc.accumulate(ai, bi)
    except ArithmeticError as exc:
        return ("error", "exception", f"{type(exc).__name__}: {exc}")
    return ("ok", fp_to_word(acc.result()))


# ---------------------------------------------------------------------------


class _GuardedPayload:
    """Picklable work unit for :class:`repro.guard.voting.GuardedExecutor`:
    one full payload execution per guard replica (the batch is the unit
    of detection -- a flagged check re-executes the whole payload)."""

    def __init__(self, work_fn, payload: dict):
        self.work_fn = work_fn
        self.payload = payload

    def __call__(self, execution: int) -> list:
        return self.work_fn(self.payload)


class BatchExecutor:
    """Synchronous payload runner with the shared recovery policy.

    One instance is owned by the server and invoked from its bounded
    worker-pool threads; :meth:`run` blocks the calling thread, never
    the event loop.  ``work_fn`` is injectable (module-level picklable
    callable) so the resilience tests can substitute hanging or
    crashing workloads without touching the datapath.
    """

    def __init__(self, *, isolation: str = "inline",
                 timeout_s: float | None = None,
                 retry: RetryPolicy | None = None,
                 rng_seed: int = 0, work_fn=None):
        if isolation not in ("inline", "process"):
            raise ValueError("isolation must be 'inline' or 'process'")
        self.isolation = isolation
        self.timeout_s = timeout_s
        self.retry = retry if retry is not None else RetryPolicy(
            max_attempts=2, backoff_base_s=0.001, backoff_cap_s=0.01)
        self.rng_seed = rng_seed
        self.work_fn = work_fn if work_fn is not None else execute_payload
        self._calls = 0

    def run(self, payload: dict,
            ) -> "tuple[list | None, dict | None, int, str | None]":
        """Run one payload; returns ``(records, error, attempts, guard)``.

        Exactly one of ``records``/``error`` is ``None``; ``error`` is
        the structured record from :class:`~repro.faults.resilient.
        WorkResult` (``kind`` = timeout / worker-died / exception).
        ``guard`` is ``None`` for plain payloads and the guard
        classification (``clean``/``corrected``/``uncorrectable``) for
        payloads carrying a ``verify`` level.
        """
        self._calls += 1
        verify = payload.get("verify")
        if verify:
            return self._run_guarded(payload, verify)
        process = self.isolation == "process"
        run = run_resilient(
            self.work_fn, [payload],
            workers=2 if process else 1,
            timeout_s=self.timeout_s if process else None,
            retry=self.retry,
            rng_seed=self.rng_seed + self._calls,
            always_pool=process)
        result = run.results[0]
        if result.ok:
            return result.value, None, result.attempts, None
        return None, result.error or {"kind": "lost"}, result.attempts, None

    def _run_guarded(self, payload: dict, verify: str,
                     ) -> "tuple[list | None, dict | None, int, str]":
        """Verified path: residue checkers armed, re-execution + voting
        on a flag.  An ``uncorrectable`` outcome carries no records --
        the caller must answer every batchmate with an error, never
        with data."""
        from ..guard.voting import GuardedExecutor, GuardPolicy

        process = self.isolation == "process"
        policy = GuardPolicy(
            mode=verify,
            workers=2 if process else 1,
            timeout_s=self.timeout_s if process else None)
        executor = GuardedExecutor(policy,
                                   rng_seed=self.rng_seed + self._calls)
        outcome = executor.run(_GuardedPayload(self.work_fn, payload))
        if outcome.ok:
            return outcome.value, None, outcome.executions, outcome.status
        flagged = outcome.flagged
        return None, {
            "kind": "uncorrectable",
            "message": f"no clean quorum within {outcome.executions} "
                       f"execution(s) ({flagged} flagged)",
        }, outcome.executions, outcome.status
