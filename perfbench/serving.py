"""Stage ``serve_mixed``: a ``repro.serve`` child process driven over one
loopback TCP connection by a client owned by the benchmark.

Sequence per child: spawn, wait for the ``listening`` banner, connect,
answer a discarded warm-up burst (all of that is set-up), then run
short segments of two phases, which a run interleaves with the other
stages' tasks.  Capacity and set-up time are scaled by :mod:`clock`
like the in-process times; latency is not, because at this load it is
mostly the batcher's fixed wait rather than CPU time:

* phase (a): an open loop at ``OPEN_RATE_HZ`` with +-20% seeded jitter.
  Every request is timed from its *scheduled* send time, so a stall of
  the client or the server is charged to every request it delays; how
  late the client itself sent is reported separately.  p50 is taken
  per ``OPEN_SEGMENT_S`` segment and the run reports its median over
  segments, so a slow spell of the host that covers a few segments
  does not move it; p99 is pooled over all segments;
* phase (b): a closed loop keeping ``WINDOW`` requests outstanding;
  capacity is the median over segments of ok responses received
  before the segment's deadline per second.

Every response is checked against ``repro.serve.executor.
reference_result`` after the measurement, in ``ORACLE_PROCS`` worker
processes (this file run as a script).  Lost and duplicated responses
are failures.  Every process started here is stopped and waited for on
every path out, and :func:`stop_all` is the last-resort sweep.
"""

from __future__ import annotations

import asyncio
import json
import os
import queue
import random
import signal
import statistics
import subprocess
import sys
import threading
import time

from inputs import encode_lines, serve_requests

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: about a quarter of closed-loop capacity on a 2-vCPU x86 VM (~1.8k
#: req/s); near 60% the p99 of such a shared host swings by 2x from run
#: to run, and its slow spells can halve capacity
OPEN_RATE_HZ = 400.0
JITTER = 0.2
WINDOW = 64
WARMUP = 200
MAX_BATCH = 64
WORKERS = 2
SERVER_ARGS = ("--port", "0", "--workers", str(WORKERS), "--no-slow-start",
               "--max-pending", "65536", "--max-batch", str(MAX_BATCH))
OPEN_SEGMENT_S = 1.0       # 400 requests, about 9 segments a run
SEGMENT_S = 1.0            # one closed-loop segment
CLOSED_LINES_PER_S = 3000  # stream length per closed-loop second
REPLY_TIMEOUT_S = 20.0
ORACLE_PROCS = 2

#: server children not yet stopped
_LIVE: set = set()


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return env


def stop_all() -> None:
    """Stop every server child still running."""
    for child in list(_LIVE):
        child.stop()


class ServerChild:
    """One server process; ``traced`` runs it under serve_child.py."""

    def __init__(self, root: str, traced: bool):
        cmd = ([sys.executable, os.path.join(HERE, "serve_child.py")]
               if traced else [sys.executable, "-m", "repro.serve"])
        self.proc = subprocess.Popen(cmd + list(SERVER_ARGS), cwd=root,
                                     env=child_env(root),
                                     stdout=subprocess.PIPE, text=True)
        _LIVE.add(self)
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        try:
            banner = self.wait_line("repro.serve listening on ", 60.0)
            self.port = int(banner.split()[3].rsplit(":", 1)[1])
        except BaseException:
            self.stop()
            raise

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def wait_line(self, prefix: str, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        while True:
            try:
                line = self._lines.get(
                    timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise RuntimeError(f"server child: no {prefix!r} line")
            if line is None:
                raise RuntimeError("server child exited early")
            if line.startswith(prefix):
                return line

    def reset(self) -> None:
        self.proc.send_signal(signal.SIGUSR1)
        self.wait_line("RESET", 10.0)

    def dump(self) -> dict:
        self.proc.send_signal(signal.SIGUSR2)
        return json.loads(self.wait_line("TRACE ", 10.0)[6:])

    def rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGINT)
                try:
                    self.proc.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            _LIVE.discard(self)
        self._reader.join(timeout=5)
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()


class Conn:
    """One client connection; a background task files every reply."""

    def __init__(self, reader, writer):
        self.reader, self.writer = reader, writer
        self.replies: dict = {}          # id -> reply object
        self.recv_t: dict = {}           # id -> loop time of arrival
        self.duplicates = 0
        self.arrivals: asyncio.Queue = asyncio.Queue()
        self._task = asyncio.ensure_future(self._receive())

    @classmethod
    async def open(cls, port: int) -> "Conn":
        r, w = await asyncio.open_connection("127.0.0.1", port,
                                             limit=1 << 22)
        return cls(r, w)

    async def _receive(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            line = await self.reader.readline()
            if not line:
                return
            t = loop.time()
            obj = json.loads(line)
            rid = obj.get("id")
            if rid in self.replies:
                self.duplicates += 1
            else:
                self.replies[rid] = obj
                self.recv_t[rid] = t
            self.arrivals.put_nowait(rid)

    async def await_replies(self, n: int) -> int:
        """Wait for ``n`` more arrivals; returns how many came."""
        got = 0
        try:
            while got < n:
                await asyncio.wait_for(self.arrivals.get(),
                                       REPLY_TIMEOUT_S)
                got += 1
        except asyncio.TimeoutError:
            pass
        return got

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass


async def closed_loop(conn: Conn, lines: list, seconds: float | None
                      ) -> tuple[int, float]:
    """Keep ``WINDOW`` requests outstanding until the lines run out or
    ``seconds`` pass; drain, and return ``(sent, deadline)``."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + seconds if seconds else float("inf")
    sent = outstanding = 0
    while True:
        while (outstanding < WINDOW and sent < len(lines)
               and loop.time() < deadline):
            conn.writer.write(lines[sent])
            sent += 1
            outstanding += 1
        await conn.writer.drain()
        if outstanding == 0:
            return sent, deadline
        if not await conn.await_replies(1):
            return sent, deadline       # lost replies; counted later
        outstanding -= 1


async def open_loop(conn: Conn, lines: list, due_offsets: list
                    ) -> tuple[list, list]:
    """Send line ``i`` at ``start + due_offsets[i]``; returns the due and
    actual send times (loop clock)."""
    loop = asyncio.get_running_loop()
    start = loop.time() + 0.01
    due = [start + off for off in due_offsets]
    sent_t = [0.0] * len(lines)
    i, n = 0, len(lines)
    while i < n:
        now = loop.time()
        if due[i] > now:
            await asyncio.sleep(due[i] - now)
            now = loop.time()
        while i < n and due[i] <= now:
            conn.writer.write(lines[i])
            sent_t[i] = now
            i += 1
        await conn.writer.drain()
    await conn.await_replies(n)
    return due, sent_t


def percentile(values: list, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1,
                      int(round(p / 100.0 * len(ordered))) - 1))
    return ordered[rank]


def _offsets(seed: str, n: int, rate: float) -> list:
    rng = random.Random(f"arrivals:{seed}")
    out, t = [], 0.0
    for _ in range(n):
        out.append(t)
        t += (1.0 + JITTER * (2 * rng.random() - 1)) / rate
    return out


class Stage:
    """The serving stage as interleavable segments.

    :meth:`setup` spawns ``trials`` servers one after another, timing
    spawn-to-warm on each, and keeps the last; every open-loop and
    closed-loop segment is then a task of its own.  With ``traced``
    the child runs under serve_child.py and each segment's spans and
    counters are collected separately per phase."""

    def __init__(self, root: str, wl, seed: int, open_s: float,
                 closed_s: float, clock, traced: bool = False,
                 trials: int = 1):
        self.root, self.wl, self.seed, self.clock = root, wl, seed, clock
        self.traced, self.trials = traced, trials
        n_open = max(1, round(open_s / OPEN_SEGMENT_S))
        n_closed = max(1, round(closed_s / SEGMENT_S))
        per_open = int(OPEN_RATE_HZ * OPEN_SEGMENT_S)
        per_closed = int(CLOSED_LINES_PER_S * SEGMENT_S)
        next_id = WARMUP
        self.open_segs, self.closed_segs = [], []
        for k in range(n_open):
            objs = serve_requests(wl, seed, f"open{k}", next_id, per_open)
            self.open_segs.append(
                (objs, encode_lines(objs),
                 _offsets(f"{seed}:{k}", per_open, OPEN_RATE_HZ)))
            next_id += per_open
        for k in range(n_closed):
            objs = serve_requests(wl, seed, f"closed{k}", next_id,
                                  per_closed)
            self.closed_segs.append((objs, encode_lines(objs)))
            next_id += per_closed
        self.setups, self.pairs = [], []
        self.child = self.conn = None
        self.duplicates = 0
        self.latency_s, self.late_s, self.capacity = [], [], []
        self.p50_s = []
        self.trace_a, self.trace_b = [], []

    async def setup(self) -> None:
        objs = serve_requests(self.wl, self.seed, "warmup", 0, WARMUP)
        lines = encode_lines(objs)
        for trial in range(self.trials):
            self.clock.bracket()
            t0 = time.perf_counter()
            self.child = ServerChild(self.root, self.traced)
            self.conn = await Conn.open(self.child.port)
            await closed_loop(self.conn, lines, None)
            raw = time.perf_counter() - t0
            self.setups.append(raw * self.clock.bracket())
            self.pairs += [(o, self.conn.replies.get(o["id"]))
                           for o in objs]
            if trial < self.trials - 1:
                await self.close()

    async def close(self) -> None:
        """Close the connection and stop the child; safe to repeat."""
        conn, child = self.conn, self.child
        self.conn = self.child = None
        try:
            if conn is not None:
                await conn.close()
                self.duplicates += conn.duplicates
                # let the server finish its side of the close before SIGINT
                await asyncio.sleep(0.05)
        finally:
            if child is not None:
                child.stop()

    def tasks(self) -> list:
        return ([lambda s=s: self._open(*s) for s in self.open_segs]
                + [lambda s=s: self._closed(*s) for s in self.closed_segs])

    async def _open(self, objs, lines, offsets) -> None:
        conn = self.conn
        if self.traced:
            self.child.reset()
        due, sent_t = await open_loop(conn, lines, offsets)
        if self.traced:
            self.trace_a.append(self.child.dump())
        lat = [conn.recv_t.get(o["id"], float("inf")) - d
               for o, d in zip(objs, due)]
        self.p50_s.append(percentile(lat, 50))
        self.latency_s += lat
        self.late_s += [s - d for s, d in zip(sent_t, due)]
        self.pairs += [(o, conn.replies.get(o["id"])) for o in objs]

    async def _closed(self, objs, lines) -> None:
        conn = self.conn
        if self.traced:
            self.child.reset()
        self.clock.bracket()
        sent, deadline = await closed_loop(conn, lines, SEGMENT_S)
        factor = self.clock.bracket()
        if self.traced:
            self.trace_b.append(self.child.dump())
        ok = sum(1 for o in objs[:sent]
                 if conn.recv_t.get(o["id"], float("inf")) <= deadline
                 and conn.replies[o["id"]].get("status") == "ok")
        self.capacity.append(ok / SEGMENT_S / factor)
        self.pairs += [(o, conn.replies.get(o["id"])) for o in objs[:sent]]

    async def finish(self) -> dict:
        try:
            rss = self.child.rss_mb()
        finally:
            await self.close()
        return {"setup_s": statistics.median(self.setups),
                "rss_mb": rss,
                "capacity_rps": statistics.median(self.capacity),
                "p50_s": statistics.median(self.p50_s),
                "p99_s": percentile(self.latency_s, 99),
                "open_segments": len(self.p50_s),
                "capacity": self.capacity,
                "latency_s": self.latency_s, "late_s": self.late_s,
                "pairs": self.pairs, "duplicates": self.duplicates,
                "trace_a": merge_dumps(self.trace_a),
                "trace_b": merge_dumps(self.trace_b)}


def merge_dumps(dumps: list) -> dict:
    """Sum the per-segment span/counter dumps of one phase."""
    out = {"calls": {}, "total_ns": {}, "self_ns": {}, "samples": {},
           "counters": {}, "queue_ns": []}
    for d in dumps:
        for key in ("calls", "total_ns", "self_ns", "counters"):
            for k, v in d[key].items():
                out[key][k] = out[key].get(k, 0) + v
        for k, v in d["samples"].items():
            out["samples"].setdefault(k, []).extend(v)
        out["queue_ns"] += d["queue_ns"]
    return out


# ---------------------------------------------------------------------------
# output checks


def _check_chunk(pairs: list) -> int:
    """Failures in one chunk of (request, reply) pairs: lost, not ok,
    missing guard status on verified requests, or a word that differs
    from the faithful oracle."""
    from repro.serve.executor import reference_result
    from repro.serve.protocol import decode_request

    bad = 0
    for req, rep in pairs:
        if rep is None or rep.get("status") != "ok":
            bad += 1
            continue
        if req.get("verify") and rep.get("guard") not in ("clean",
                                                          "corrected"):
            bad += 1
            continue
        ref = reference_result(decode_request(req))
        bad += ref[0] != "ok" or int(rep["result"], 16) != ref[1]
    return bad


def check_pairs(pairs: list) -> int:
    """Failures over all pairs, split over ``ORACLE_PROCS`` runs of this
    file as a script (JSON pairs on stdin, failure count on stdout)."""
    chunk = max(1, -(-len(pairs) // ORACLE_PROCS))
    procs = []
    try:
        for i in range(0, len(pairs), chunk):
            procs.append(subprocess.Popen(
                [sys.executable, os.path.abspath(__file__)], cwd=ROOT,
                env=child_env(ROOT), stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, text=True))
            # each worker reads all of stdin before it writes anything
            procs[-1].stdin.write(json.dumps(pairs[i:i + chunk]))
            procs[-1].stdin.close()
        bad = 0
        for p in procs:
            out = p.stdout.read()
            if p.wait() != 0:
                raise RuntimeError(f"output check exited {p.returncode}")
            bad += int(out)
        return bad
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()
            p.stdout.close()


if __name__ == "__main__":
    print(_check_chunk(json.load(sys.stdin)))
