"""CLI for the serving layer: ``python -m repro.serve``.

Default action starts the TCP/JSON-lines frontend and runs until
interrupted (SIGINT triggers a graceful drain).  ``--self-test`` spins
the server in-process, drives it with a seeded open-loop workload, and
prints a JSON summary -- the CI smoke mode, no sockets needed.

Exit status: 0 on success (including ``--help``), 1 when a run fails
(self-test lost responses or server crash), 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

from ..faults.resilient import RetryPolicy
from .loadgen import LoadSpec, percentile, run_open_loop
from .server import FmaServer, ServeConfig

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Async micro-batching FMA serving frontend "
                    "(JSON lines over TCP; see docs/SERVING.md).")
    ap.add_argument("--host", default="127.0.0.1")
    ap.add_argument("--port", type=int, default=8571,
                    help="TCP port (default 8571; 0 = ephemeral)")
    ap.add_argument("--max-batch", type=int, default=64,
                    help="micro-batch size cap (default 64)")
    ap.add_argument("--max-wait-ms", type=float, default=2.0,
                    help="micro-batch wait deadline (default 2ms)")
    ap.add_argument("--workers", type=int, default=4,
                    help="concurrent batch executions (default 4)")
    ap.add_argument("--max-pending", type=int, default=1024,
                    help="hard bound on queued+in-flight requests")
    ap.add_argument("--no-slow-start", action="store_true",
                    help="disable the slow-start admission window")
    ap.add_argument("--default-timeout-ms", type=float, default=None,
                    help="per-request budget when the client sends none")
    ap.add_argument("--isolation", choices=("inline", "process"),
                    default="inline",
                    help="batch execution isolation (default inline)")
    ap.add_argument("--exec-timeout", type=float, default=None,
                    help="per-attempt execution timeout in seconds "
                         "(process isolation only)")
    ap.add_argument("--retries", type=int, default=2,
                    help="max attempts per batch (default 2)")
    ap.add_argument("--no-kernels", action="store_true",
                    help="serve through the faithful scalar models "
                         "instead of the repro.batch kernels")
    ap.add_argument("--backend", choices=("auto", "vector", "tuple",
                                          "faithful"), default=None,
                    help="default batch backend for requests that do "
                         "not pin one (default: auto, which runs the "
                         "tuple kernel below the lane engine's measured "
                         "crossovers of 768 fma lanes, 72 dots per "
                         "payload or 1280 elements per dot; the "
                         "default --max-batch 64 reaches neither "
                         "batch size)")
    ap.add_argument("--self-test", action="store_true",
                    help="run a seeded in-process workload and exit")
    ap.add_argument("--self-test-requests", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    return ap


def _config(args) -> ServeConfig:
    return ServeConfig(
        max_batch=args.max_batch,
        max_wait_s=args.max_wait_ms / 1000.0,
        workers=args.workers,
        max_pending=args.max_pending,
        slow_start=not args.no_slow_start,
        default_timeout_s=(None if args.default_timeout_ms is None
                           else args.default_timeout_ms / 1000.0),
        use_batch=not args.no_kernels,
        backend=args.backend,
        isolation=args.isolation,
        exec_timeout_s=args.exec_timeout,
        retry=RetryPolicy(max_attempts=args.retries,
                          backoff_base_s=0.001, backoff_cap_s=0.05),
        rng_seed=args.seed)


async def _self_test(config: ServeConfig, n: int, seed: int) -> int:
    spec = LoadSpec(n_requests=n, seed=seed)
    async with FmaServer(config) as srv:
        report = await run_open_loop(srv, spec)
        summary = {
            "requests": n,
            "responses": len(report.responses),
            "ok": report.n_ok,
            "rejected": report.n_rejected,
            "errors": report.n_error,
            "duplicates": len(report.duplicates),
            "throughput_rps": round(report.throughput(), 1),
            "p50_ms": round(percentile(report.latencies_s, 50) * 1e3, 3),
            "p99_ms": round(percentile(report.latencies_s, 99) * 1e3, 3),
            "stats": srv.stats,
        }
    print(json.dumps(summary, indent=2, sort_keys=True))
    lost = n - len(report.responses)
    return 0 if (lost == 0 and not report.duplicates
                 and report.n_error == 0) else 1


async def _serve(config: ServeConfig, host: str, port: int) -> int:
    async with FmaServer(config) as srv:
        tcp = await srv.serve_tcp(host, port)
        addr = tcp.sockets[0].getsockname()
        print(f"repro.serve listening on {addr[0]}:{addr[1]} "
              f"(max_batch={config.max_batch}, "
              f"max_wait={config.max_wait_s * 1e3:g}ms, "
              f"workers={config.workers})", flush=True)
        try:
            await asyncio.Event().wait()   # until cancelled
        except asyncio.CancelledError:
            pass
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.max_batch < 1:
        parser.error("--max-batch must be >= 1")
    if args.max_wait_ms < 0:
        parser.error("--max-wait-ms must be >= 0")
    if args.workers < 1:
        parser.error("--workers must be >= 1")
    if args.max_pending < 1:
        parser.error("--max-pending must be >= 1")
    if args.retries < 1:
        parser.error("--retries must be >= 1")
    if not 0 <= args.port <= 65535:
        parser.error("--port must be in [0, 65535]")
    if args.self_test_requests < 1:
        parser.error("--self-test-requests must be >= 1")
    config = _config(args)
    try:
        if args.self_test:
            return asyncio.run(_self_test(config, args.self_test_requests,
                                          args.seed))
        return asyncio.run(_serve(config, args.host, args.port))
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    sys.exit(main())
