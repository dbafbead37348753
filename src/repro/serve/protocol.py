"""Request/response model and JSON-lines wire format for ``repro.serve``.

Operands travel as binary64 **bit patterns** (hex strings on the wire,
plain ints in process), exactly like the golden-vector corpus -- the
serving layer never passes through ``float`` and therefore never loses
a payload NaN or a signed zero.  Three operations are served:

``fma``
    scalar ``r = a + b*c`` through one unit (``classic``/``pcs``/``fcs``;
    the CS units lift ``a``/``c`` exactly via ``ieee_to_cs`` and lower
    the result once, as the conformance oracle does);
``dot``
    fused inner product over equal-length vectors (``pcs``/``fcs``);
``acc``
    a [12]-style PCS accumulation of all products ``a[i]*b[i]``,
    normalized once at the end.

A response is exactly one of three shapes (``status`` field):

* ``ok`` -- carries ``result`` (one hex word);
* ``rejected`` -- the request was **never executed**: admission or the
  queue shed it (``reason`` in :data:`REJECT_REASONS`); safe to retry;
* ``error`` -- the request was attempted and failed (``kind`` +
  ``message``); ``kind`` mirrors the structured error records of
  :mod:`repro.faults.resilient` (``timeout`` / ``worker-died`` /
  ``exception``) plus ``bad-request`` for malformed input and
  ``uncorrectable`` for a guarded batch the CED layer rejected.

A request may opt into concurrent error detection with ``verify``
(one of :data:`VERIFY_LEVELS`): its batch then executes under the
:mod:`repro.guard` residue checkers and redundant-execution voting,
and an ``ok`` response carries the guard classification (``clean`` or
``corrected``) in the ``guard`` field.  An ``uncorrectable`` batch is
*never* returned as data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..batch.engines import BACKENDS
# the binary64 word codec lives in the fp layer; re-exported for clients
from ..fp.value import FPValue, fp_to_word, word_to_fp

__all__ = ["Request", "Response", "OPS", "FORMATS", "REJECT_REASONS",
           "VERIFY_LEVELS", "word_to_hex", "hex_to_word",
           "encode_request", "decode_request", "encode_response",
           "decode_response", "ProtocolError", "fp_to_word",
           "word_to_fp"]

#: served operations and the operand formats each accepts.
OPS: dict[str, tuple[str, ...]] = {
    "fma": ("classic", "pcs", "fcs"),
    "dot": ("pcs", "fcs"),
    "acc": ("pcs",),
}
FORMATS = ("classic", "pcs", "fcs")

#: structured rejection reasons (the overload policy's vocabulary).
REJECT_REASONS = ("queue-full", "slow-start", "deadline", "draining")

#: per-request verification levels (the guard's policy modes).
VERIFY_LEVELS = ("residue", "dmr", "tmr")

_WORD_MASK = (1 << 64) - 1


class ProtocolError(ValueError):
    """Malformed request or response (wire or in-process)."""


def word_to_hex(word: int) -> str:
    return "0x%016x" % (word & _WORD_MASK)


def hex_to_word(text: str) -> int:
    try:
        word = int(text, 16)
    except (TypeError, ValueError):
        raise ProtocolError(f"not a binary64 bit pattern: {text!r}")
    if not 0 <= word <= _WORD_MASK:
        raise ProtocolError(f"bit pattern out of range: {text!r}")
    return word


@dataclass(frozen=True)
class Request:
    """One serving request, operands as binary64 bit words.

    ``a``/``b``/``c`` are single words for ``fma`` and equal-length word
    tuples (``a``, ``b``; no ``c``) for ``dot``/``acc``.  ``timeout_s``
    is the client's deadline budget, measured from admission; the
    micro-batcher sheds the request (``rejected``/``deadline``) if it is
    still queued when the budget runs out.  ``verify`` opts the request
    into the guarded execution path (:data:`VERIFY_LEVELS`); verified
    requests only coalesce with batchmates at the same level.
    ``backend`` pins the evaluation machinery for this request
    (:data:`repro.batch.engines.BACKENDS`; ``None`` uses the server
    default); requests only coalesce with batchmates on the same
    backend, since the backend is a batch-level execution property.
    """

    req_id: int | str
    op: str
    fmt: str = "pcs"
    a: "int | tuple[int, ...]" = 0
    b: "int | tuple[int, ...]" = 0
    c: int | None = None
    timeout_s: float | None = None
    verify: str | None = None
    backend: str | None = None

    def validate(self) -> None:
        if self.op not in OPS:
            raise ProtocolError(f"unknown op {self.op!r}")
        if self.fmt not in OPS[self.op]:
            raise ProtocolError(
                f"op {self.op!r} does not accept format {self.fmt!r}")
        if self.op == "fma":
            for name, v in (("a", self.a), ("b", self.b), ("c", self.c)):
                if not isinstance(v, int):
                    raise ProtocolError(f"fma operand {name} must be one "
                                        f"binary64 word")
        else:
            if self.c is not None:
                raise ProtocolError(f"{self.op} takes no c operand")
            if (not isinstance(self.a, tuple)
                    or not isinstance(self.b, tuple)
                    or len(self.a) != len(self.b)):
                raise ProtocolError(
                    f"{self.op} needs equal-length a/b vectors")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ProtocolError("timeout_s must be positive")
        if self.verify is not None and self.verify not in VERIFY_LEVELS:
            raise ProtocolError(
                f"verify must be one of {VERIFY_LEVELS}")
        if self.backend is not None and self.backend not in BACKENDS:
            raise ProtocolError(
                f"backend must be one of {BACKENDS}")

    @property
    def n_elements(self) -> int:
        return 1 if self.op == "fma" else len(self.a)


@dataclass(frozen=True)
class Response:
    """Outcome of one request (see module docstring for the shapes)."""

    req_id: int | str
    status: str                      # "ok" | "rejected" | "error"
    result: int | None = None        # ok: binary64 word
    reason: str | None = None        # rejected: REJECT_REASONS entry
    kind: str | None = None          # error: timeout/worker-died/...
    message: str | None = None
    attempts: int = 0
    meta: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"


# ---------------------------------------------------------------------------
# JSON-lines wire codec


def _words(value, what: str) -> "int | tuple[int, ...]":
    if isinstance(value, str):
        return hex_to_word(value)
    if isinstance(value, (list, tuple)):
        return tuple(hex_to_word(w) if isinstance(w, str) else _int_word(w)
                     for w in value)
    return _int_word(value, what)


def _int_word(value, what: str = "operand") -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"{what} must be a hex string or int word")
    if not 0 <= value <= _WORD_MASK:
        raise ProtocolError(f"{what} out of 64-bit range")
    return value


def decode_request(obj: dict) -> Request:
    """Build a validated :class:`Request` from a decoded JSON object."""
    if not isinstance(obj, dict):
        raise ProtocolError("request must be a JSON object")
    if "id" not in obj:
        raise ProtocolError("request needs an id")
    req_id = obj["id"]
    if not isinstance(req_id, (int, str)):
        raise ProtocolError("id must be an int or string")
    op = obj.get("op")
    if not isinstance(op, str):
        raise ProtocolError("request needs an op")
    fmt = obj.get("fmt", "pcs")
    timeout = obj.get("timeout_s")
    if timeout is not None and not isinstance(timeout, (int, float)):
        raise ProtocolError("timeout_s must be a number")
    verify = obj.get("verify")
    if verify is not None and not isinstance(verify, str):
        raise ProtocolError("verify must be a string")
    backend = obj.get("backend")
    if backend is not None and not isinstance(backend, str):
        raise ProtocolError("backend must be a string")
    c = obj.get("c")
    req = Request(
        req_id=req_id, op=op, fmt=fmt,
        a=_words(obj.get("a", 0), "a"), b=_words(obj.get("b", 0), "b"),
        c=None if c is None else _int_word(
            hex_to_word(c) if isinstance(c, str) else c, "c"),
        timeout_s=None if timeout is None else float(timeout),
        verify=verify, backend=backend)
    req.validate()
    return req


def encode_request(req: Request) -> dict:
    """JSON-ready dict for one request (hex operand encoding)."""
    def enc(v):
        if isinstance(v, tuple):
            return [word_to_hex(w) for w in v]
        return word_to_hex(v)

    obj: dict = {"id": req.req_id, "op": req.op, "fmt": req.fmt,
                 "a": enc(req.a), "b": enc(req.b)}
    if req.c is not None:
        obj["c"] = word_to_hex(req.c)
    if req.timeout_s is not None:
        obj["timeout_s"] = req.timeout_s
    if req.verify is not None:
        obj["verify"] = req.verify
    if req.backend is not None:
        obj["backend"] = req.backend
    return obj


def encode_response(resp: Response) -> dict:
    obj: dict = {"id": resp.req_id, "status": resp.status}
    if resp.status == "ok":
        obj["result"] = word_to_hex(resp.result)
    elif resp.status == "rejected":
        obj["reason"] = resp.reason
    else:
        obj["kind"] = resp.kind
        obj["message"] = resp.message or ""
    if resp.attempts:
        obj["attempts"] = resp.attempts
    if resp.meta.get("guard"):
        obj["guard"] = resp.meta["guard"]
    return obj


def decode_response(obj: dict) -> Response:
    if not isinstance(obj, dict) or "status" not in obj:
        raise ProtocolError("response must be an object with a status")
    status = obj["status"]
    meta = {"guard": obj["guard"]} if "guard" in obj else {}
    if status == "ok":
        return Response(obj.get("id"), "ok",
                        result=hex_to_word(obj["result"]),
                        attempts=obj.get("attempts", 0), meta=meta)
    if status == "rejected":
        return Response(obj.get("id"), "rejected",
                        reason=obj.get("reason"))
    if status == "error":
        return Response(obj.get("id"), "error", kind=obj.get("kind"),
                        message=obj.get("message"),
                        attempts=obj.get("attempts", 0), meta=meta)
    raise ProtocolError(f"unknown response status {status!r}")


def pack_sequence(xs: Sequence[FPValue]) -> tuple[int, ...]:
    """Convenience: FPValues -> wire words (used by clients/tests)."""
    return tuple(fp_to_word(x) for x in xs)


__all__.append("pack_sequence")
