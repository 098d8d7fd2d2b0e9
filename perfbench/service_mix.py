"""``service_mix``: a real ``repro serve`` subprocess under a request mix.

The server runs in process mode with two pool workers and a fresh cache
directory, in its own session, so teardown can kill the whole process
group (SIGTERM to the server alone can leave the pool workers holding
the listening socket).  One asyncio client in this process drives it over
``nproc`` = 2 keep-alive connections, in ``SESSIONS`` sessions of a
fresh server each:

1. warm-up: every hot-set workload once, filling the cache;
2. open loop at the fixed ``OPEN_LOOP_RPS``: about 90% zipf draws from
   the hot set (cache reads) and 10% never-seen workloads (scheduler,
   codegen, simulation and a cache write), each request timed from
   when it was due;
3. closed loop: each connection sends its next request when the last
   one returned; completed requests per second is the capacity.

Every distinct response body is compared byte for byte with
``encode_json(outcome_payload(run_scheduler(...)))`` computed here.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import itertools
import json
import math
import os
import random
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import speed
from workloads import (
    FRESH_SHARE,
    HOT_SET,
    OPEN_LOOP_RPS,
    ZIPF_EXPONENT,
    fresh_seed,
    hot_seeds,
    service_body,
)

CONNECTIONS = 2
JOBS = 2
OPEN_LOOP_SHARE = 0.75
#: Closed-loop requests are drawn ahead of time, up to this rate.
CLOSED_LOOP_MAX_RPS = 4000
REQUEST_TIMEOUT_S = 30.0
#: Set-up launches per untraced run, spread evenly before the sessions
#: (each session's own launch included): a host's slow spells last
#: seconds, so launches made back to back all fall in the same one.
SETUP_REPEATS = 12
#: Untraced runs split the timed phases over this many servers: each
#: server keeps its own median latency for its whole life (1.75 to
#: 2.5 ms for the same requests), so one server per run made that a
#: draw of the run.
SESSIONS = 6
LATENCY_WINDOWS = 10
CLOSED_WINDOW_S = 0.5
PROBE_PERIOD_S = 0.25
HEADER = "X-Perfbench-Request"
WARM_BODIES = (
    {"experiment": "E1", "scheduler": "basic", "trace": False},
    {"experiment": "E2", "scheduler": "basic", "trace": False},
)


# -- the server process ------------------------------------------------------


def _process_group_members(pgid: int) -> List[int]:
    """Live (non-zombie) processes of process group *pgid*."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read().decode("latin-1")
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry))
    return members


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="latin-1") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class ServerProcess:
    """One ``repro serve --port 0`` subprocess in its own session."""

    def __init__(self, root: Path, work_dir: Path, *, traced: bool) -> None:
        self.root = root
        self.work_dir = work_dir
        self.traced = traced
        self.span_dir = work_dir / "spans"
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self, timeout: float = 60.0) -> None:
        """Spawn and wait for the ``listening on`` line."""
        shutil.rmtree(self.work_dir, ignore_errors=True)
        self.span_dir.mkdir(parents=True)
        serve = [
            "serve", "--port", "0", "--mode", "process",
            "--jobs", str(JOBS), "--cache-dir", str(self.work_dir / "cache"),
        ]
        if self.traced:
            command = [
                sys.executable, str(self.root / "perfbench" / "traced_serve.py"),
                str(self.span_dir), *serve,
            ]
        else:
            command = [sys.executable, "-m", "repro", *serve]
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        with open(self.work_dir / "server.log", "wb") as log:
            self.proc = subprocess.Popen(
                command, cwd=self.root, env=env, stdout=subprocess.PIPE,
                stderr=log, start_new_session=True,
            )
        line = _read_line(self.proc, timeout)
        marker = "listening on http://"
        if marker not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split(marker, 1)[1].split()[0].rsplit(":", 1)[1])

    def members(self) -> List[int]:
        return _process_group_members(self.proc.pid) if self.proc else []

    def peak_rss_mb(self) -> float:
        return sum(_vm_hwm_kb(pid) for pid in self.members()) / 1024.0

    def stop(self, *, graceful: bool) -> None:
        """Tear the server and its workers down; raise if any process
        or the listening socket outlives the teardown."""
        if self.proc is None:
            return
        pid = self.proc.pid
        try:
            if graceful and self.proc.poll() is None:
                # SIGINT makes the CLI close its pool, so the workers
                # exit normally and write their spans.
                os.kill(pid, signal.SIGINT)
                try:
                    self.proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    pass
                deadline = time.monotonic() + 10
                while self.members() and time.monotonic() < deadline:
                    time.sleep(0.05)
            try:
                os.killpg(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.proc.wait(timeout=30)
            deadline = time.monotonic() + 10
            while self.members() and time.monotonic() < deadline:
                time.sleep(0.05)
        finally:
            if self.proc.stdout is not None:
                self.proc.stdout.close()
            self.proc = None
        if _process_group_members(pid):
            raise RuntimeError(f"server processes outlived teardown: group {pid}")
        try:
            socket.create_connection(("127.0.0.1", self.port), 1.0).close()
        except OSError:
            return
        raise RuntimeError(f"port {self.port} still accepts connections")


def _read_line(proc: subprocess.Popen, timeout: float) -> str:
    """First stdout line of *proc*, or raise after *timeout*."""
    with selectors.DefaultSelector() as selector:
        selector.register(proc.stdout, selectors.EVENT_READ)
        if not selector.select(timeout):
            raise RuntimeError("server printed nothing before the timeout")
    return proc.stdout.readline().decode("utf-8", "replace")


# -- the client ----------------------------------------------------------------


class Connection:
    """One keep-alive HTTP/1.1 connection; reconnects after a failure."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def request(self, method: str, path: str, body: bytes = b"",
                      request_id: str = "") -> Tuple[int, bytes]:
        """``(status, body)``; status 0 for a refused, dropped or timed
        out request."""
        try:
            return await asyncio.wait_for(
                self._exchange(method, path, body, request_id),
                REQUEST_TIMEOUT_S,
            )
        except (OSError, asyncio.IncompleteReadError, asyncio.TimeoutError,
                ValueError):
            self.close()
            return 0, b""

    async def _exchange(self, method, path, body, request_id):
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(
                "127.0.0.1", self.port
            )
        self.writer.write(
            (
                f"{method} {path} HTTP/1.1\r\nHost: perfbench\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n{HEADER}: {request_id}\r\n\r\n"
            ).encode("latin-1") + body
        )
        await self.writer.drain()
        line = await self.reader.readline()
        if not line:
            raise ConnectionResetError("server closed the connection")
        status = int(line.split()[1])
        length = 0
        while True:
            header = await self.reader.readline()
            if header in (b"\r\n", b"\n"):
                break
            if not header:
                raise ConnectionResetError("connection closed in headers")
            name, _, value = header.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        payload = await self.reader.readexactly(length) if length else b""
        return status, payload

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
        self.reader = self.writer = None


class Record:
    """One timed request."""

    __slots__ = ("key", "request_id", "due", "sent", "done", "status",
                 "digest", "late")

    def __init__(self, key, request_id, due, late=0.0) -> None:
        self.key = key
        self.request_id = request_id
        self.due = due
        self.late = late
        self.sent = self.done = 0.0
        self.status = 0
        self.digest = b""


async def _send(connection: Connection, bodies: Dict[str, bytes],
                record: Record) -> None:
    record.sent = time.perf_counter()
    status, payload = await connection.request(
        "POST", "/v1/schedule", bodies[record.key], record.request_id
    )
    record.done = time.perf_counter()
    record.status = status
    record.digest = hashlib.sha256(payload).digest()


async def open_loop(connections, bodies, keys, rate) -> List[Record]:
    """Send ``keys[i]`` when due at ``start + i / rate``; a request due
    while both connections are busy waits, and that wait counts."""
    queue: asyncio.Queue = asyncio.Queue()
    records: List[Record] = []
    start = time.perf_counter() + 0.05

    async def produce() -> None:
        for index, key in enumerate(keys):
            due = start + index / rate
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            record = Record(key, f"o-{index}", due,
                            late=time.perf_counter() - due)
            records.append(record)
            queue.put_nowait(record)
        for _ in connections:
            queue.put_nowait(None)

    async def consume(connection) -> None:
        while True:
            record = await queue.get()
            if record is None:
                return
            await _send(connection, bodies, record)

    tasks = [asyncio.ensure_future(consume(c)) for c in connections]
    await produce()
    await asyncio.gather(*tasks)
    return records


async def closed_loop(connections, bodies, keys, *, seconds=None,
                      count=None) -> Tuple[List[Record], float]:
    """Each connection sends its next request when the last returned,
    for *seconds* or until *count* requests completed."""
    records: List[Record] = []
    cursor = itertools.count()
    limit = len(keys) if count is None else min(count, len(keys))
    start = time.perf_counter()
    deadline = start + seconds if seconds is not None else math.inf

    async def client(connection) -> None:
        while time.perf_counter() < deadline:
            index = next(cursor)
            if index >= limit:
                return
            record = Record(keys[index], f"c-{index}", time.perf_counter())
            records.append(record)
            await _send(connection, bodies, record)

    await asyncio.gather(*(client(c) for c in connections))
    return records, time.perf_counter() - start


async def fetch_counters(port: int) -> Dict[str, int]:
    connection = Connection(port)
    try:
        status, payload = await connection.request("GET", "/v1/metrics")
    finally:
        connection.close()
    if status != 200:
        raise RuntimeError(f"/v1/metrics answered {status}")
    return json.loads(payload)["metrics"]["counters"]


# -- the request mix -------------------------------------------------------------


class RequestMix:
    """Seeded request keys and bodies: ``h<i>`` hot, ``f<i>`` fresh."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        weights = [1.0 / rank ** ZIPF_EXPONENT for rank in range(1, HOT_SET + 1)]
        self.cumulative = list(itertools.accumulate(weights))
        self.fresh = itertools.count()
        self.seeds: Dict[str, int] = {
            f"h{index}": generator_seed
            for index, generator_seed in enumerate(hot_seeds(seed))
        }
        self.bodies: Dict[str, bytes] = {
            key: json.dumps(service_body(generator_seed)).encode()
            for key, generator_seed in self.seeds.items()
        }

    def hot_keys(self) -> List[str]:
        return [f"h{index}" for index in range(HOT_SET)]

    def draw(self, count: int) -> List[str]:
        keys = []
        for _ in range(count):
            if self.rng.random() < FRESH_SHARE:
                index = next(self.fresh)
                key = f"f{index}"
                self.seeds[key] = fresh_seed(self.seed, index)
                self.bodies[key] = json.dumps(
                    service_body(self.seeds[key])
                ).encode()
            else:
                rank = bisect.bisect_left(
                    self.cumulative, self.rng.random() * self.cumulative[-1]
                )
                key = f"h{min(rank, HOT_SET - 1)}"
            keys.append(key)
        return keys


def expected_digest(body: bytes) -> bytes:
    """The response the CLI pipeline gives for *body*, hashed."""
    from repro.analysis.compare import run_scheduler
    from repro.arch.params import Architecture
    from repro.fuzz.case import FuzzCase
    from repro.service.protocol import SCHEDULERS, encode_json, outcome_payload

    request = json.loads(body)
    case = FuzzCase.from_dict(request["workload"])
    application, clustering = case.build()
    architecture = Architecture.m1(case.fb_words)
    scheduler = SCHEDULERS[request["scheduler"]](architecture)
    outcome = run_scheduler(
        scheduler, application, clustering, architecture,
        trace=request["trace"],
    )
    payload = outcome_payload(outcome, workload=case.name)
    return hashlib.sha256(encode_json(payload)).digest()


def count_failures(records: List[Record], bodies: Dict[str, bytes]) -> int:
    """Non-200 responses plus responses whose body differs from the
    pipeline's own output."""
    expected: Dict[str, bytes] = {}
    failed = 0
    for record in records:
        if record.status != 200:
            failed += 1
            continue
        if record.key not in expected:
            expected[record.key] = expected_digest(bodies[record.key])
        if record.digest != expected[record.key]:
            failed += 1
    return failed


# -- one session -------------------------------------------------------------------


def percentile(values: List[float], fraction: float) -> float:
    ordered = sorted(values)
    rank = math.ceil(fraction * len(ordered)) - 1
    return ordered[min(len(ordered) - 1, max(0, rank))]


class SpeedProbe:
    """``speed.py`` in its own process, sampling the machine's speed
    every ``PROBE_PERIOD_S`` while the timed phases run."""

    def __init__(self, root: Path) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(root / "perfbench" / "speed.py"),
             str(PROBE_PERIOD_S)],
            stdout=subprocess.PIPE,
        )

    def stop(self) -> List[Tuple[float, float]]:
        """``(time, speed index)`` of each interval between samples."""
        self.proc.kill()
        output, _ = self.proc.communicate()
        rows = [line.split() for line in output.decode().splitlines()]
        samples = []
        for previous, row in zip(rows, rows[1:]):
            share = speed.unstolen_share(
                (int(previous[2]), int(previous[3])), (int(row[2]), int(row[3]))
            )
            samples.append(
                (float(row[0]), speed.REFERENCE_S / float(row[1]) * share)
            )
        return samples


def index_at(samples: List[Tuple[float, float]], moment: float) -> float:
    """Speed index around *moment*: the mean index of the probe samples
    within a second of it (the nearest sample if none)."""
    near = [index for at, index in samples if abs(at - moment) <= 1.0]
    if not near:
        near = [min(samples, key=lambda sample: abs(sample[0] - moment))[1]]
    return statistics.fmean(near)


class Session:
    """Start a server, warm its pool, run the phases, tear it down.

    The machine's speed index is measured before set-up, and by a
    :class:`SpeedProbe` process while the timed phases run.
    """

    def __init__(self, root: Path, work_dir: Path, *, traced: bool) -> None:
        self.server = ServerProcess(root, work_dir, traced=traced)
        self.setup_s = 0.0
        self.setup_index = 1.0

    async def _warm_pool(self, connections) -> None:
        results = await asyncio.gather(*(
            connection.request("POST", "/v1/schedule",
                               json.dumps(body).encode(), "warm")
            for connection, body in zip(connections, WARM_BODIES)
        ))
        if any(status != 200 for status, _ in results):
            raise RuntimeError(f"pool warm-up failed: {results}")

    async def setup(self) -> List[Connection]:
        self.setup_index = speed.speed_index()
        began = time.perf_counter()
        self.server.start()
        connections = [Connection(self.server.port) for _ in range(CONNECTIONS)]
        await self._warm_pool(connections)
        self.setup_s = time.perf_counter() - began
        return connections

    async def run(self, mix: RequestMix, open_keys, closed_keys, *,
                  closed_seconds=None, closed_count=None):
        connections: List[Connection] = []
        try:
            connections = await self.setup()
            warm = [Record(key, "warm", 0.0) for key in mix.hot_keys()]
            for record in warm:
                await _send(connections[0], mix.bodies, record)
            before = await fetch_counters(self.server.port)
            probe = SpeedProbe(self.server.root)
            try:
                opened = await open_loop(
                    connections, mix.bodies, open_keys, OPEN_LOOP_RPS
                )
                closed, closed_wall = await closed_loop(
                    connections, mix.bodies, closed_keys,
                    seconds=closed_seconds, count=closed_count,
                )
            finally:
                samples = probe.stop()
            after = await fetch_counters(self.server.port)
            peak_rss_mb = self.server.peak_rss_mb()
        finally:
            for connection in connections:
                connection.close()
            self.server.stop(graceful=self.server.traced)
        counters = {
            key: after.get(key, 0) - before.get(key, 0)
            for key in set(after) | set(before)
        }
        return {
            "warm": warm, "open": opened, "closed": closed,
            "closed_wall_s": closed_wall, "counters": counters,
            "peak_rss_mb": peak_rss_mb, "speed_samples": samples,
        }


def _setup_only(root: Path, work_dir: Path) -> Tuple[float, float]:
    async def go() -> Tuple[float, float]:
        session = Session(root, work_dir, traced=False)
        try:
            connections = await session.setup()
            for connection in connections:
                connection.close()
        finally:
            session.server.stop(graceful=False)
        return session.setup_s, session.setup_index

    return asyncio.run(go())


def _latency_ms(record: Record) -> float:
    """From due time to response; a failed request never meets a limit."""
    if record.status != 200:
        return math.inf
    return (record.done - record.due) * 1e3


def _window_percentile(latencies: List[float], fraction: float) -> float:
    """Median over ``LATENCY_WINDOWS`` consecutive windows of the open
    loop of each window's latency percentile, so one stall moves one
    window rather than the whole run's tail (used for p99)."""
    size = len(latencies) // LATENCY_WINDOWS
    return statistics.median(
        percentile(latencies[k * size:(k + 1) * size], fraction)
        for k in range(LATENCY_WINDOWS)
    )


def _closed_loop_rates(records: List[Record], wall_s: float,
                       samples) -> Tuple[List[float], List[float]]:
    """Completed requests per second in each ``CLOSED_WINDOW_S``
    window, raw and at reference speed."""
    start = min(record.due for record in records)
    windows = max(1, int(wall_s / CLOSED_WINDOW_S))
    counts = [0] * windows
    for record in records:
        slot = int((record.done - start) / CLOSED_WINDOW_S)
        if record.status == 200 and slot < windows:
            counts[slot] += 1
    raw = [count / CLOSED_WINDOW_S for count in counts]
    scaled = [
        rate / index_at(samples, start + (slot + 0.5) * CLOSED_WINDOW_S)
        for slot, rate in enumerate(raw)
    ]
    return raw, scaled


def _summed_counters(sessions: List[dict]) -> Dict[str, int]:
    total: Dict[str, int] = {}
    for session in sessions:
        for key, value in session["counters"].items():
            total[key] = total.get(key, 0) + value
    return total


def _counter_summary(counters: Dict[str, int]) -> Dict[str, float]:
    hits = counters.get("cache/cache.hit", 0)
    misses = counters.get("cache/cache.miss", 0)
    return {
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "service.singleflight_followers": counters.get(
            "service/singleflight.follower", 0
        ),
    }


def _end_to_end(sessions: List[dict],
                setups: List[Tuple[float, float]]) -> dict:
    """End-to-end metrics at reference speed, and the raw figures.

    The sessions' timed phases are pooled: p50 is the percentile of
    every open-loop latency, so each server's placement weighs in by
    its share of requests, and the capacity is the median over every
    closed-loop window.  Each open-loop latency is scaled by the speed
    index at its due time; each closed-loop window by the index in it.
    """
    opened = [record for session in sessions for record in session["open"]]
    raw_ms: List[float] = []
    scaled_ms: List[float] = []
    raw_rates: List[float] = []
    scaled_rates: List[float] = []
    for session in sessions:
        samples = session["speed_samples"]
        for record in session["open"]:
            latency = _latency_ms(record)
            raw_ms.append(latency)
            scaled_ms.append(latency * index_at(samples, record.due))
        raw, scaled = _closed_loop_rates(
            session["closed"], session["closed_wall_s"], samples
        )
        raw_rates += raw
        scaled_rates += scaled
    raw = {
        "setup_s": statistics.median(t for t, _ in setups),
        "throughput_per_s": statistics.median(raw_rates),
        "p50_ms": percentile(raw_ms, 0.50),
        "p99_ms": _window_percentile(raw_ms, 0.99),
        "p99_whole_phase_ms": percentile(raw_ms, 0.99),
        "max_ms": max(raw_ms),
        "late_p99_ms": percentile([r.late * 1e3 for r in opened], 0.99),
    }
    scaled = {
        "setup_s": statistics.median(t * i for t, i in setups),
        "throughput_per_s": statistics.median(scaled_rates),
        "p50_ms": percentile(scaled_ms, 0.50),
        "p99_ms": _window_percentile(scaled_ms, 0.99),
        "peak_rss_mb": max(session["peak_rss_mb"] for session in sessions),
    }
    indices = [index for session in sessions
               for _, index in session["speed_samples"]]
    closed = sum(len(session["closed"]) for session in sessions)
    return {"metrics": scaled, "raw": raw,
            "speed_index": statistics.median(indices),
            "samples": {"sessions": len(sessions),
                        "open_loop": len(opened), "closed_loop": closed},
            "counter_summary": _counter_summary(_summed_counters(sessions))}


def _closed_wall_at_reference(session: dict) -> float:
    samples = session["speed_samples"]
    start = min(record.due for record in session["closed"])
    end = start + session["closed_wall_s"]
    indices = [index for at, index in samples
               if start <= at <= end] or [index_at(samples, start)]
    return session["closed_wall_s"] * statistics.fmean(indices)


def run(root: Path, out_dir: Path, seed: int, seconds: float, trace: bool,
        trace_out: Optional[Path]) -> dict:
    """Measure ``service_mix``; returns metrics plus check counts."""
    work_dir = out_dir / f"service-{os.getpid()}"
    budget = seconds / 2 if trace else seconds
    count = 1 if trace else SESSIONS
    open_count = int(OPEN_LOOP_RPS * budget * OPEN_LOOP_SHARE / count)
    closed_seconds = budget * (1 - OPEN_LOOP_SHARE) / count
    mix = RequestMix(seed)
    keys = [
        (mix.draw(open_count),
         mix.draw(int(CLOSED_LOOP_MAX_RPS * closed_seconds)))
        for _ in range(count)
    ]
    sessions = []
    try:
        setups = []
        for open_keys, closed_keys in keys:
            if not trace:
                setups += [_setup_only(root, work_dir)
                           for _ in range(SETUP_REPEATS // count - 1)]
            plain = Session(root, work_dir, traced=False)
            sessions.append(asyncio.run(plain.run(
                mix, open_keys, closed_keys, closed_seconds=closed_seconds
            )))
            setups.append((plain.setup_s, plain.setup_index))
        result = _end_to_end(sessions, setups)
        if trace:
            traced = Session(root, work_dir, traced=True)
            sessions.append(asyncio.run(traced.run(
                mix, *keys[0], closed_count=len(sessions[0]["closed"]),
            )))
            result["layers"] = _traced_layers(
                sessions[1], sessions[0], traced.server.span_dir, trace_out
            )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    checked = [record for session in sessions
               for phase in ("warm", "open", "closed")
               for record in session[phase]]
    result["attempted"] = len(checked)
    result["failed"] = count_failures(checked, mix.bodies)
    return result


def _traced_layers(result: dict, untraced: dict, span_dir: Path,
                   trace_out: Optional[Path]) -> Dict[str, float]:
    """Per-layer metrics of the traced session's timed requests."""
    import spans

    spans_by_pid: Dict[int, List[list]] = {}
    roles: Dict[int, str] = {}
    for path in sorted(span_dir.glob("spans-*.json")):
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        timed = [s for s in data["spans"] if s[5] and s[5][0] in "oc"]
        spans_by_pid[data["pid"]] = timed
        roles[data["pid"]] = f"repro serve {data['role']}"
    records = {r.request_id: r for r in result["open"] + result["closed"]}
    dispatch = {}
    execute = {}
    for pid_spans in spans_by_pid.values():
        for span in pid_spans:
            if span[2] == "service.dispatch":
                dispatch[span[5]] = span
            elif span[2] == "service.execute_request" and span[1] is None:
                execute[span[5]] = span
    # A worker's execute span is a child of the server's dispatch span
    # for the same request, across the process boundary.
    for request_id, span in execute.items():
        if request_id in dispatch:
            span[1] = dispatch[request_id][0]
    every_span = [span for pid_spans in spans_by_pid.values()
                  for span in pid_spans]
    round_trip_s = sum(r.done - r.sent for r in records.values())
    metrics = spans.layer_metrics(every_span, round_trip_s)
    attributed_s = sum(
        (span[4] - span[3]) / 1e9 for span in every_span if span[1] is None
    )
    waits = [
        (records[rid].done - records[rid].sent) * 1e3
        - (span[4] - span[3]) / 1e6
        for rid, span in execute.items() if rid in records
    ]
    metrics.update(_counter_summary(result["counters"]))
    metrics["service.queue_wait_ms"] = statistics.median(waits) if waits else 0.0
    metrics["trace.coverage"] = attributed_s / round_trip_s
    metrics["trace.unattributed_s"] = round_trip_s - attributed_s
    # Traced ÷ untraced wall time of the same closed-loop requests,
    # each at reference speed.
    metrics["trace.overhead_ratio"] = (
        _closed_wall_at_reference(result)
        / _closed_wall_at_reference(untraced)
    )
    metrics["loadgen.late_p99_ms"] = percentile(
        [r.late * 1e3 for r in result["open"]], 0.99
    )
    if trace_out is not None:
        with open(trace_out, "w", encoding="utf-8") as handle:
            json.dump(spans.chrome_events(spans_by_pid, roles), handle)
    return metrics
