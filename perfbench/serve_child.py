"""Traced serving child: ``python -m repro.serve`` with call-granularity
spans and ``repro.telemetry`` armed for the process lifetime.

Run as ``python perfbench/serve_child.py <repro.serve arguments>``.
Control is by signal, so the wire protocol stays untouched:

* ``SIGUSR1`` clears every span and counter, then prints ``RESET``;
* ``SIGUSR2`` prints ``TRACE <json>`` with everything recorded since
  the last reset, then clears it.

The parent signals only while the server is idle (between phases).
"""

from __future__ import annotations

import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import repro.serve.executor as executor_mod  # noqa: E402
import repro.serve.server as server_mod  # noqa: E402
from repro.guard.voting import GuardedExecutor  # noqa: E402
from repro.serve.__main__ import main as serve_main  # noqa: E402
from repro.telemetry import Telemetry, collecting  # noqa: E402

from spans import Tracer  # noqa: E402


class RecordingTelemetry(Telemetry):
    """Telemetry that also keeps every queue-wait observation, so the
    parent can take percentiles instead of the span's min/mean/max."""

    __slots__ = ("queue_ns",)

    def __init__(self):
        super().__init__()
        self.queue_ns: list[int] = []

    def observe(self, tag: str, ns: int) -> None:
        super().observe(tag, ns)
        if tag == "serve.stage.queue":
            self.queue_ns.append(ns)

    def clear(self) -> None:
        self.counters.clear()
        self.spans.clear()
        self.gauges.clear()
        self.events.clear()
        self.queue_ns.clear()


class TimedJson:
    """Stand-in for the ``json`` module inside ``repro.serve.server``."""

    JSONDecodeError = json.JSONDecodeError

    def __init__(self, tracer: Tracer):
        self._tracer = tracer

    def loads(self, s):
        with self._tracer.span("serve.protocol.json_loads"):
            return json.loads(s)

    def dumps(self, obj, **kwargs):
        with self._tracer.span("serve.protocol.json_dumps"):
            return json.dumps(obj, **kwargs)


def install(tracer: Tracer) -> None:
    def api_name(op):
        return lambda args, kwargs: (
            f"batch.api.{op}.{kwargs.get('backend') or 'auto'}")

    server_mod.json = TimedJson(tracer)
    tracer.wrap(server_mod, "decode_request", "serve.protocol.decode")
    tracer.wrap(server_mod, "encode_response", "serve.protocol.encode")
    tracer.wrap(server_mod.BatchExecutor, "run",
                lambda args, kwargs: "serve.executor."
                + ("verified" if args[1].get("verify") else "plain"),
                sample=lambda args, kwargs, r: len(args[1]["items"]))
    tracer.wrap(executor_mod, "execute_payload",
                lambda args, kwargs: "serve.payload.{op}.{fmt}".format(
                    **args[0]))
    tracer.wrap(executor_mod, "fma_batch", api_name("fma"))
    tracer.wrap(executor_mod, "dot_batch", api_name("dot"))
    tracer.wrap(GuardedExecutor, "run", "guard.run")


def main(argv: list[str]) -> int:
    tracer = Tracer(sampled=("serve.executor.",))
    install(tracer)
    tel = RecordingTelemetry()

    def on_reset(signum, frame):
        tracer.reset()
        tel.clear()
        print("RESET", flush=True)

    def on_dump(signum, frame):
        snap = {"calls": tracer.calls, "total_ns": tracer.total_ns,
                "self_ns": tracer.self_ns, "samples": tracer.samples,
                "counters": dict(tel.counters),
                "queue_ns": list(tel.queue_ns)}
        print("TRACE " + json.dumps(snap), flush=True)
        tracer.reset()
        tel.clear()

    signal.signal(signal.SIGUSR1, on_reset)
    signal.signal(signal.SIGUSR2, on_dump)
    with collecting(tel):
        return serve_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
