"""Wire format, micro-batcher mechanics, and the TCP/JSON-lines
frontend of :mod:`repro.serve`.

The codec tests pin the wire contract (hex binary64 words, structured
response shapes); the batcher tests drive the coalescing logic with a
fake clock so both flush knobs and the deadline clipping are checked
deterministically; the TCP tests run a real server on an ephemeral
port and assert end-to-end bit identity plus graceful handling of
malformed lines.
"""

from __future__ import annotations

import asyncio
import json
import math

import pytest

from repro.fp.formats import BINARY64
from repro.fp.value import FPValue
from repro.serve import FmaServer, Request, ServeConfig
from repro.serve.batcher import Entry, MicroBatcher
from repro.serve.protocol import (ProtocolError, Response, decode_request,
                                  decode_response, encode_request,
                                  encode_response, fp_to_word, hex_to_word,
                                  word_to_fp, word_to_hex)

from _serve_util import assert_stats_counted, run

pytestmark = pytest.mark.serial


# ---------------------------------------------------------------------------
# binary64 word conversions


class TestWordConversions:
    @pytest.mark.parametrize("x", [0.0, 1.0, -1.0, 1.5, -2.75, 3.141592653589793,
                                   2.0 ** 100, -(2.0 ** -100), 1e308])
    def test_roundtrip_matches_struct(self, x):
        import struct

        word = struct.unpack("<Q", struct.pack("<d", x))[0]
        fp = word_to_fp(word)
        assert fp_to_word(fp) == word
        assert fp.to_float() == x

    def test_signed_zero_and_inf(self):
        assert fp_to_word(word_to_fp(0x8000000000000000)) == 0x8000000000000000
        assert fp_to_word(word_to_fp(0x7FF0000000000000)) == 0x7FF0000000000000
        assert fp_to_word(word_to_fp(0xFFF0000000000000)) == 0xFFF0000000000000

    def test_nan_canonicalized(self):
        # any NaN payload decodes to NaN and re-encodes as the quiet NaN
        for word in (0x7FF8000000000000, 0x7FF0000000000001,
                     0xFFFFFFFFFFFFFFFF):
            fp = word_to_fp(word)
            assert fp.is_nan
            assert fp_to_word(fp) == 0x7FF8000000000000

    def test_subnormal_flushes_to_signed_zero(self):
        assert fp_to_word(word_to_fp(0x0000000000000001)) == 0
        assert fp_to_word(word_to_fp(0x8000000000000001)) == (1 << 63)

    def test_hex_codec(self):
        assert word_to_hex(0x3FF0000000000000) == "0x3ff0000000000000"
        assert hex_to_word("0x3FF0000000000000") == 0x3FF0000000000000
        with pytest.raises(ProtocolError):
            hex_to_word("not-hex")
        with pytest.raises(ProtocolError):
            hex_to_word("0x1" + "0" * 16)      # 65+ bits

    def test_matches_from_float(self):
        for x in (1.0, -0.5, 1234.5678, 2.0 ** -500):
            assert (fp_to_word(FPValue.from_float(x, BINARY64))
                    == fp_to_word(word_to_fp(fp_to_word(
                        FPValue.from_float(x, BINARY64)))))


# ---------------------------------------------------------------------------
# request/response codec


def fma_obj(**kw) -> dict:
    obj = {"id": 1, "op": "fma", "fmt": "pcs",
           "a": "0x3ff0000000000000", "b": "0x4000000000000000",
           "c": "0x3fe0000000000000"}
    obj.update(kw)
    return obj


class TestRequestCodec:
    def test_fma_roundtrip(self):
        req = decode_request(fma_obj(timeout_s=0.25))
        assert req.op == "fma" and req.fmt == "pcs"
        assert req.a == 0x3FF0000000000000
        assert req.timeout_s == 0.25
        assert decode_request(encode_request(req)) == req

    def test_vector_roundtrip(self):
        req = decode_request({"id": "v1", "op": "dot", "fmt": "fcs",
                              "a": ["0x3ff0000000000000"] * 3,
                              "b": ["0x4000000000000000"] * 3})
        assert req.n_elements == 3
        assert decode_request(encode_request(req)) == req

    def test_int_words_accepted(self):
        req = decode_request(fma_obj(a=0x3FF0000000000000))
        assert req.a == 0x3FF0000000000000

    @pytest.mark.parametrize("mutate", [
        {"op": "nope"},                          # unknown op
        {"fmt": "classic", "op": "dot"},         # op/fmt mismatch
        {"a": ["0x0"], "b": ["0x0", "0x0"], "op": "acc", "fmt": "pcs",
         "c": None},                             # length mismatch
        {"a": True},                             # bool is not a word
        {"a": -1},                               # negative word
        {"timeout_s": "soon"},                   # non-numeric timeout
        {"timeout_s": 0},                        # non-positive budget
        {"id": None},                            # id required
    ])
    def test_malformed_requests_raise(self, mutate):
        obj = fma_obj()
        obj.update(mutate)
        obj = {k: v for k, v in obj.items() if v is not None or k == "id"}
        with pytest.raises(ProtocolError):
            decode_request(obj)

    def test_missing_id_raises(self):
        obj = fma_obj()
        del obj["id"]
        with pytest.raises(ProtocolError):
            decode_request(obj)


class TestResponseCodec:
    def test_ok_roundtrip(self):
        resp = Response(7, "ok", result=0x4008000000000000, attempts=2)
        back = decode_response(encode_response(resp))
        assert back.ok and back.result == resp.result
        assert back.attempts == 2

    def test_rejected_roundtrip(self):
        resp = Response(8, "rejected", reason="queue-full")
        back = decode_response(encode_response(resp))
        assert back.status == "rejected" and back.reason == "queue-full"

    def test_error_roundtrip(self):
        resp = Response(9, "error", kind="timeout", message="hung",
                        attempts=3)
        back = decode_response(encode_response(resp))
        assert back.kind == "timeout" and back.message == "hung"

    def test_unknown_status_raises(self):
        with pytest.raises(ProtocolError):
            decode_response({"id": 1, "status": "maybe"})


class TestVerifyProtocol:
    def test_verify_roundtrip(self):
        req = decode_request(fma_obj(verify="residue"))
        assert req.verify == "residue"
        assert encode_request(req)["verify"] == "residue"
        assert decode_request(encode_request(req)) == req

    def test_verify_defaults_to_off(self):
        req = decode_request(fma_obj())
        assert req.verify is None
        assert "verify" not in encode_request(req)

    @pytest.mark.parametrize("bad", ["paranoid", "", 3, True])
    def test_invalid_verify_rejected(self, bad):
        with pytest.raises(ProtocolError):
            decode_request(fma_obj(verify=bad))

    def test_guard_meta_roundtrip(self):
        resp = Response(4, "ok", result=0x3FF0000000000000,
                        meta={"guard": "corrected"})
        wire = encode_response(resp)
        assert wire["guard"] == "corrected"
        assert decode_response(wire).meta == {"guard": "corrected"}
        # uncorrectable batches answer with an error carrying the
        # classification -- never with data
        err = Response(5, "error", kind="uncorrectable", message="x",
                       meta={"guard": "uncorrectable"})
        wire = encode_response(err)
        assert wire["guard"] == "uncorrectable"
        assert "result" not in wire


# ---------------------------------------------------------------------------
# micro-batcher mechanics (fake clock, manual timers)


class FakeLoop:
    """Deterministic clock + timer wheel for driving the batcher."""

    def __init__(self):
        self.now = 0.0
        self.timers = []          # (fire_at, cb, handle)

    def clock(self) -> float:
        return self.now

    def schedule(self, delay, cb):
        handle = _Handle()
        self.timers.append((self.now + delay, cb, handle))
        return handle

    def advance(self, dt: float) -> None:
        self.now += dt
        due = [(t, cb, h) for t, cb, h in self.timers
               if t <= self.now and not h.cancelled]
        self.timers = [(t, cb, h) for t, cb, h in self.timers
                       if t > self.now and not h.cancelled]
        for _t, cb, _h in sorted(due, key=lambda x: x[0]):
            cb()

    def pending_delays(self):
        return [t - self.now for t, _cb, h in self.timers
                if not h.cancelled]


class _Handle:
    cancelled = False

    def cancel(self):
        self.cancelled = True


def make_batcher(loop: FakeLoop, batches: list, *, max_batch=4,
                 max_wait_s=0.010, **kw) -> MicroBatcher:
    return MicroBatcher(max_batch=max_batch, max_wait_s=max_wait_s,
                        clock=loop.clock, schedule=loop.schedule,
                        on_batch=lambda k, es: batches.append((k, es)),
                        **kw)


def entry(i, op="fma", fmt="pcs", t=0.0, deadline=None) -> Entry:
    return Entry(req=Request(req_id=i, op=op, fmt=fmt, a=0, b=0,
                             c=0 if op == "fma" else None),
                 fut=None, t_enqueue=t, deadline=deadline)


class TestMicroBatcher:
    def test_flush_at_max_batch_without_timer(self):
        loop, batches = FakeLoop(), []
        mb = make_batcher(loop, batches, max_batch=3)
        for i in range(3):
            mb.put(entry(i))
        assert len(batches) == 1
        key, es = batches[0]
        assert key == "fma.pcs" and [e.req.req_id for e in es] == [0, 1, 2]
        assert mb.depth("fma.pcs") == 0

    def test_partial_batch_flushes_at_max_wait(self):
        loop, batches = FakeLoop(), []
        mb = make_batcher(loop, batches, max_batch=8, max_wait_s=0.010)
        mb.put(entry(0))
        mb.put(entry(1))
        assert not batches
        loop.advance(0.009)
        assert not batches                       # not yet
        loop.advance(0.002)
        assert len(batches) == 1 and len(batches[0][1]) == 2

    def test_queues_are_per_op_and_format(self):
        loop, batches = FakeLoop(), []
        mb = make_batcher(loop, batches, max_batch=2)
        mb.put(entry(0, fmt="pcs"))
        mb.put(entry(1, fmt="fcs"))
        assert not batches                       # distinct queues
        mb.put(entry(2, fmt="pcs"))
        assert len(batches) == 1 and batches[0][0] == "fma.pcs"
        mb.put(entry(3, op="dot", fmt="fcs"))
        assert mb.depths() == {"fma.fcs": 1, "dot.fcs": 1}

    def test_timer_clipped_to_tightest_deadline(self):
        loop, batches = FakeLoop(), []
        mb = make_batcher(loop, batches, max_batch=8, max_wait_s=0.050,
                          shed_margin_s=0.001)
        mb.put(entry(0, deadline=0.004))         # budget < max_wait
        (delay,) = loop.pending_delays()
        assert delay == pytest.approx(0.003)     # deadline - margin
        loop.advance(0.0035)
        assert len(batches) == 1                 # flushed before expiry

    def test_burst_larger_than_max_batch_drains_in_chunks(self):
        loop, batches = FakeLoop(), []
        mb = make_batcher(loop, batches, max_batch=4)
        for i in range(10):
            mb.put(entry(i))
        # two full batches leave immediately; the remainder waits
        assert [len(es) for _k, es in batches] == [4, 4]
        loop.advance(0.011)
        assert [len(es) for _k, es in batches] == [4, 4, 2]
        ids = [e.req.req_id for _k, es in batches for e in es]
        assert ids == list(range(10))            # order preserved

    def test_flush_all_drains_everything(self):
        loop, batches = FakeLoop(), []
        mb = make_batcher(loop, batches, max_batch=8)
        mb.put(entry(0))
        mb.put(entry(1, op="dot", fmt="fcs"))
        mb.flush_all()
        assert sorted(k for k, _es in batches) == ["dot.fcs", "fma.pcs"]
        assert mb.depths() == {}

    def test_validation(self):
        loop = FakeLoop()
        with pytest.raises(ValueError):
            make_batcher(loop, [], max_batch=0)
        with pytest.raises(ValueError):
            make_batcher(loop, [], max_wait_s=-1.0)

    def test_verified_requests_never_coalesce_with_unverified(self):
        loop, batches = FakeLoop(), []
        mb = make_batcher(loop, batches, max_batch=2)
        plain = entry(0)
        checked = Entry(req=Request(req_id=1, op="fma", fmt="pcs",
                                    a=0, b=0, c=0, verify="residue"),
                        fut=None)
        assert (MicroBatcher.key_for(plain.req)
                != MicroBatcher.key_for(checked.req))
        mb.put(plain)
        mb.put(checked)
        assert not batches                       # distinct queues
        assert mb.depths() == {"fma.pcs": 1, "fma.pcs.residue": 1}


# ---------------------------------------------------------------------------
# TCP/JSON-lines frontend


async def tcp_session(server: FmaServer, lines: list[bytes],
                      n_replies: int) -> list[dict]:
    tcp = await server.serve_tcp("127.0.0.1", 0)
    _host, port = tcp.sockets[0].getsockname()[:2]
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    for line in lines:
        writer.write(line)
    await writer.drain()
    writer.write_eof()
    replies = []
    for _ in range(n_replies):
        raw = await asyncio.wait_for(reader.readline(), timeout=10.0)
        assert raw, "connection closed before all replies arrived"
        replies.append(json.loads(raw))
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    return replies


class TestTcpFrontend:
    def test_end_to_end_bit_identity(self):
        """Requests over TCP produce exactly the direct-engine words."""
        from repro.serve.executor import reference_result

        reqs = [Request(req_id=i, op="fma", fmt=fmt,
                        a=fp_to_word(FPValue.from_float(1.0 + i, BINARY64)),
                        b=fp_to_word(FPValue.from_float(1.5, BINARY64)),
                        c=fp_to_word(FPValue.from_float(-0.25 * i, BINARY64)))
                for i, fmt in enumerate(["pcs", "fcs", "classic"] * 3)]
        lines = [(json.dumps(encode_request(r)) + "\n").encode()
                 for r in reqs]

        async def body():
            cfg = ServeConfig(max_batch=4, max_wait_s=0.002,
                              slow_start=False)
            async with FmaServer(cfg) as s:
                return await tcp_session(s, lines, len(reqs))

        replies = run(body())
        by_id = {r["id"]: r for r in replies}
        assert len(by_id) == len(reqs)
        for req in reqs:
            reply = by_id[req.req_id]
            assert reply["status"] == "ok"
            assert hex_to_word(reply["result"]) == reference_result(req)[1]

    def test_malformed_lines_get_structured_errors(self):
        lines = [b"this is not json\n",
                 b'{"id": 5, "op": "nope"}\n',
                 b'{"op": "fma"}\n',
                 (json.dumps(fma_obj(id=6)) + "\n").encode()]

        async def body():
            async with FmaServer(ServeConfig(slow_start=False)) as s:
                return await tcp_session(s, lines, 4)

        replies = run(body())
        good = [r for r in replies if r["status"] == "ok"]
        bad = [r for r in replies if r["status"] == "error"]
        assert len(good) == 1 and good[0]["id"] == 6
        assert len(bad) == 3
        assert all(r["kind"] == "bad-request" for r in bad)

    def test_pipelined_lines_coalesce_into_batches(self):
        """Many requests written in one burst share kernel batches."""
        lines = [(json.dumps(fma_obj(id=i)) + "\n").encode()
                 for i in range(32)]

        async def body():
            cfg = ServeConfig(max_batch=16, max_wait_s=0.005,
                              slow_start=False)
            async with FmaServer(cfg) as s:
                replies = await tcp_session(s, lines, 32)
                return replies, dict(s.stats)

        replies, stats = run(body())
        assert all(r["status"] == "ok" for r in replies)
        assert sorted(r["id"] for r in replies) == list(range(32))
        assert stats["max_batch_size"] > 1       # coalescing happened

    def test_blank_lines_ignored(self):
        lines = [b"\n", b"  \n",
                 (json.dumps(fma_obj(id=0)) + "\n").encode()]

        async def body():
            async with FmaServer(ServeConfig(slow_start=False)) as s:
                return await tcp_session(s, lines, 1)

        (reply,) = run(body())
        assert reply["status"] == "ok" and reply["id"] == 0

    def test_oversized_line_gets_error_and_connection_survives(self):
        """Regression: a request line beyond the stream limit used to
        raise out of ``readline`` and kill the connection without any
        response.  It must answer a structured error and keep serving
        the same connection."""
        lines = [b"x" * 20000 + b"\n",
                 (json.dumps(fma_obj(id=7)) + "\n").encode()]

        async def body():
            cfg = ServeConfig(slow_start=False, tcp_line_limit=4096)
            async with FmaServer(cfg) as s:
                return await tcp_session(s, lines, 2)

        first, second = run(body())
        assert first["status"] == "error"
        assert first["kind"] == "bad-request"
        assert second["status"] == "ok" and second["id"] == 7

    def test_unterminated_oversized_line_closes_cleanly(self):
        """An oversized line that never ends (client gone) must still
        produce one structured error, then a clean close -- no hang, no
        silent drop."""
        async def body():
            cfg = ServeConfig(slow_start=False, tcp_line_limit=4096)
            async with FmaServer(cfg) as s:
                tcp = await s.serve_tcp("127.0.0.1", 0)
                port = tcp.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port)
                writer.write(b"y" * 9000)        # no newline, ever
                await writer.drain()
                writer.write_eof()
                reply = json.loads(await asyncio.wait_for(
                    reader.readline(), timeout=10.0))
                eof = await asyncio.wait_for(reader.readline(),
                                             timeout=10.0)
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
                return reply, eof

        reply, eof = run(body())
        assert reply["status"] == "error"
        assert reply["kind"] == "bad-request"
        assert eof == b""                        # clean close after

    def test_verify_over_the_wire(self):
        lines = [(json.dumps(fma_obj(id=11, verify="residue"))
                  + "\n").encode()]

        async def body():
            async with FmaServer(ServeConfig(slow_start=False)) as s:
                return await tcp_session(s, lines, 1)

        (reply,) = run(body())
        assert reply["status"] == "ok"
        assert reply["guard"] == "clean"


# ---------------------------------------------------------------------------
# serve-layer telemetry


class TestServeTelemetry:
    def test_instruments_fire_when_armed(self):
        from repro.telemetry import collecting

        async def body():
            cfg = ServeConfig(max_batch=4, max_wait_s=0.002,
                              slow_start=False, max_pending=2)
            async with FmaServer(cfg) as s:
                resps = await asyncio.gather(
                    *(s.submit(Request(req_id=i, op="fma", fmt="pcs",
                                       a=0x3FF0000000000000,
                                       b=0x4000000000000000,
                                       c=0x3FE0000000000000))
                      for i in range(5)))
                return resps, dict(s.stats)

        with collecting() as report:
            resps, stats = run(body())
        assert_stats_counted(stats, report)
        counters = report.counters
        assert sum(1 for r in resps if r.ok) == 2
        assert counters["serve.requests.admitted"] == 2
        assert counters["serve.requests.rejected.queue-full"] == 3
        assert counters["serve.responses.ok"] == 2
        assert counters["serve.batches"] >= 1
        assert any(k.startswith("serve.batch.size_le.") for k in counters)
        spans = report.spans
        assert "serve.request.total" in spans
        assert "serve.stage.exec" in spans

    def test_silent_when_unarmed(self):
        # nothing above should have leaked a collector; the autouse
        # isolation fixture would fail the test otherwise.  Run one
        # request with no collector armed as an explicit smoke check.
        async def body():
            async with FmaServer(ServeConfig(slow_start=False)) as s:
                return await s.submit(Request(
                    req_id=0, op="fma", fmt="pcs", a=0x3FF0000000000000,
                    b=0x3FF0000000000000, c=0x3FF0000000000000))

        assert run(body()).ok


def test_nan_and_inf_travel_unharmed():
    """Payload specials survive the wire and the engines."""
    async def body():
        async with FmaServer(ServeConfig(slow_start=False)) as s:
            nan = await s.submit(Request(
                req_id="nan", op="fma", fmt="classic",
                a=0x7FF8000000000000, b=0x3FF0000000000000,
                c=0x3FF0000000000000))
            inf = await s.submit(Request(
                req_id="inf", op="fma", fmt="classic",
                a=0x7FF0000000000000, b=0x3FF0000000000000,
                c=0x3FF0000000000000))
            return nan, inf

    nan, inf = run(body())
    assert nan.ok and math.isnan(word_to_fp(nan.result).to_float())
    assert inf.ok and word_to_fp(inf.result).to_float() == math.inf
