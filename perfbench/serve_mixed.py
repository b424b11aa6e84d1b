"""``serve-mixed``: one closed-loop client against a two-tenant ``repro serve``.

The daemon runs in its own process, started the way users start it
(``python -m repro serve --topology abilene --topology cernet2``).  One
connection drives it: for each tenant the client replays the
failure/recovery trace of its single-link failures (the writes), sends an
``mlu`` query after every event and a ``forwarding`` query after every
fourth (the reads), with the two tenants interleaved event by event.  The
trace repeats, shifted in time, for as many passes as the run lasts.  The
seed shuffles each tenant's failure order and picks the forwarding
destinations.  A frame is one operation.

The tenants are small, so each frame's serve cost (parse, session lock,
executor hop, serialize, loopback) outweighs the controller work; reads
and writes contend for the same per-session lock.

Client and daemon share the one CPU the benchmark runs on (see
``run.py``): a closed loop has nothing to run in parallel, and unpinned,
frames/s swung by a factor of two from run to run.  The daemon's peak
RSS is read after a fixed number of passes, because a session keeps one
row per event and grows with the frames served.

Checks, after the timed passes: every frame is answered ``ok``, and every
answer equals an in-process :class:`ControllerSession` replay of the same
events (MLU rows to 1e-12, forwarding state exactly).  Traced, that
replay is also timed per call, which gives the direct cost of ``feed``
and ``measure`` that the socket latencies are compared against.
"""

from __future__ import annotations

import contextlib
import os
import random
import re
import resource
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from .harness import (
    SETUP_REPEATS,
    Outcome,
    close,
    measure,
    median_of,
    peak_rss_mb,
    percentile,
)

TOPOLOGIES = ("abilene", "cernet2")
UTILIZATION = 0.12
FORWARDING_EVERY = 4
PERIOD_S = 10.0
TOLERANCE = 1e-12
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
#: Untraced passes before the daemon's peak RSS is read (and at least run).
RSS_AFTER_PASSES = 20
ROW_NUMBERS = ("mlu", "utility", "routed", "dropped")
#: The daemon's start-up line: ``serving 2 session(s) on HOST:PORT: ...``.
LISTENING = re.compile(rb"serving .* on (\S+):(\d+):")


class Daemon:
    """One ``repro serve`` process on a free local port."""

    def __init__(self, root: Path, workdir: Path, index: int) -> None:
        argv = [sys.executable, "-m", "repro", "serve"]
        for name in TOPOLOGIES:
            argv += ["--topology", name]
        argv += [
            "--utilization", str(UTILIZATION),
            "--port", "0",
            "--store", str(workdir / "results.sqlite"),
        ]
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONUNBUFFERED="1")
        self.log_path = workdir / f"daemon-{index}.log"
        self._log = open(self.log_path, "wb")  # noqa: SIM115 - closed in stop()
        self.proc = subprocess.Popen(
            argv, cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._log
        )
        self.client = None
        self.stopped = False

    def connect(self) -> list[str]:
        """Wait for the listening line, connect, and list the sessions."""
        from repro.serve import ServeClient

        deadline = time.monotonic() + READY_TIMEOUT_S
        buffer = b""
        fd = self.proc.stdout.fileno()
        while not LISTENING.search(buffer):
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.proc.poll() is not None:
                raise RuntimeError(f"repro serve did not start; see {self.log_path}")
            readable, _, _ = select.select([fd], [], [], remaining)
            if readable:
                buffer += os.read(fd, 4096)
        host, port = LISTENING.search(buffer).groups()
        self.client = ServeClient(host.decode(), int(port), timeout=READY_TIMEOUT_S)
        response = self.client.request({"type": "query", "query": "sessions"})
        if not response.get("ok"):
            raise RuntimeError(f"sessions query failed: {response.get('error')}")
        return list(response["result"]["sessions"])

    def stop(self) -> None:
        """Shut down gracefully, or kill; always wait for the process to end."""
        from repro.serve import ServeClientError

        if self.stopped:
            return
        self.stopped = True
        try:
            if self.client is not None:
                try:
                    self.client.request({"type": "control", "action": "shutdown"})
                except (ServeClientError, OSError):
                    pass
                finally:
                    self.client.close()
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()
            self._log.close()


def daemon_peak_rss_mb(pid: int) -> float:
    """Peak resident set size of a running process, in MiB (Linux ``/proc``)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def build_plan(seed: int):
    """The frames of one pass and, per tenant, the inputs of a direct replay."""
    from repro.cli import build_workload
    from repro.online.events import failure_recovery_trace, to_dict
    from repro.scenarios.generators import single_link_failures

    rng = random.Random(seed)
    tenants = {}
    traces = {}
    for name in TOPOLOGIES:
        network, demands = build_workload(name, UTILIZATION, seed)
        scenarios = single_link_failures(network)
        rng.shuffle(scenarios)
        events = failure_recovery_trace(network, scenarios, period=PERIOD_S)
        # The next pass starts one period after this trace's last event.
        tenants[network.name] = (network, demands, events[-1].time + PERIOD_S)
        traces[network.name] = [to_dict(event) for event in events]
    plan: list[tuple[str, str, object]] = []
    for index in range(max(len(trace) for trace in traces.values())):
        for key, trace in traces.items():
            if index >= len(trace):
                continue
            plan.append(("event", key, trace[index]))
            plan.append(("mlu", key, None))
            if index % FORWARDING_EVERY == FORWARDING_EVERY - 1:
                destinations = tenants[key][1].destinations()
                plan.append(("forwarding", key, str(rng.choice(destinations))))
    return plan, tenants


def frame_for(kind: str, key: str, payload: object, shift: float) -> dict[str, object]:
    if kind == "event":
        event = dict(payload)
        event["time"] = event["time"] + shift
        return {"type": "event", "session": key, "event": event}
    frame: dict[str, object] = {"type": "query", "query": kind, "session": key}
    if kind == "forwarding":
        frame["destination"] = payload
    return frame


def run(seed: int, seconds: float, trace: bool, root: Path, workdir: Path) -> Outcome:
    from repro.serve import ServeClientError

    outcome = Outcome()
    plan, tenants = build_plan(seed)
    span = max(tenant_span for _, _, tenant_span in tenants.values())

    daemons: list[Daemon] = []
    setup_walls = []
    log: list[tuple[str, str, dict[str, object], dict[str, object]]] = []
    walls: dict[bool, list[float]] = {False: [], True: []}
    latencies: dict[str, list[float]] = {"event": [], "query": []}
    dspt_deltas: list[dict[str, float]] = []
    peak_mb: list[float] = []
    try:
        for index in range(SETUP_REPEATS):
            if daemons:
                daemons[-1].stop()
            start = time.perf_counter()
            daemons.append(Daemon(root, workdir, index))
            sessions = daemons[-1].connect()
            setup_walls.append(time.perf_counter() - start)
        if sorted(sessions) != sorted(tenants):
            raise RuntimeError(f"daemon serves {sessions}, expected {sorted(tenants)}")
        client = daemons[-1].client
        passes = 0

        def dspt_counters() -> dict[str, float]:
            totals: dict[str, float] = {}
            for key in tenants:
                outcome.attempted += 1
                response = client.request({"type": "query", "query": "counters", "session": key})
                if not response.get("ok"):
                    outcome.fail(1, f"counters query on {key}: {response.get('error')}")
                    continue
                for name in ("incremental_updates", "full_rebuilds", "event_fallbacks"):
                    value = response["result"][f"dspt_{name}"]
                    totals[f"online.dspt_{name}"] = totals.get(f"online.dspt_{name}", 0) + value
            return totals

        def run_pass(traced: bool) -> float:
            nonlocal passes
            shift = passes * span
            passes += 1
            before = dspt_counters() if traced else None
            sent = 0
            start = time.perf_counter()
            try:
                for kind, key, payload in plan:
                    frame = frame_for(kind, key, payload, shift)
                    if traced:
                        begin = time.perf_counter()
                        response = client.request(frame)
                        latency = time.perf_counter() - begin
                        latencies["event" if kind == "event" else "query"].append(latency)
                    else:
                        response = client.request(frame)
                    sent += 1
                    log.append((kind, key, frame, response))
            except (ServeClientError, OSError) as exc:
                outcome.attempted += len(plan)
                outcome.fail(len(plan) - sent, f"connection lost after {sent} frames: {exc}")
                raise
            wall = time.perf_counter() - start
            outcome.attempted += len(plan)
            walls[traced].append(wall)
            if len(walls[False]) == RSS_AFTER_PASSES and not traced:
                peak_mb.append(daemon_peak_rss_mb(daemons[-1].proc.pid))
            if traced:
                after = dspt_counters()
                dspt_deltas.append({name: after[name] - before.get(name, 0) for name in after})
            return wall

        # A lost connection is counted in run_pass; the checks below still run.
        with contextlib.suppress(ServeClientError, OSError):
            measure(seconds, run_pass, trace, min_passes=1 if trace else RSS_AFTER_PASSES)
    finally:
        for daemon in daemons:
            daemon.stop()

    feed_us, measure_us = check_against_replay(tenants, log, outcome, timed=trace)
    outcome.context.update(
        setup_s=[round(w, 4) for w in setup_walls],
        passes=len(walls[False]) + len(walls[True]),
        frames_per_pass=len(plan),
        pass_s=[round(w, 4) for w in walls[False]],
    )
    if not walls[False]:
        raise RuntimeError("no pass completed: " + "; ".join(outcome.problems[:3]))
    pass_s = statistics.median(walls[False])
    if not trace:
        outcome.metrics = {
            "setup_s": statistics.median(setup_walls),
            # Lost before the planned read: the daemon's peak as a waited child.
            "peak_rss_mb": peak_mb[0] if peak_mb else peak_rss_mb(resource.RUSAGE_CHILDREN),
            "ops_per_s": len(plan) / pass_s,
        }
        return outcome
    event, query = latencies["event"], latencies["query"]
    metrics = median_of(dspt_deltas)
    metrics.update(
        {
            "online.feed_p50_us": statistics.median(feed_us) * 1e6,
            "online.measure_p50_us": statistics.median(measure_us) * 1e6,
            "serve.event_p50_ms": percentile(event, 50) * 1e3,
            "serve.event_p90_ms": percentile(event, 90) * 1e3,
            "serve.event_p99_ms": percentile(event, 99) * 1e3,
            "serve.event_samples": len(event),
            "serve.query_p50_ms": percentile(query, 50) * 1e3,
            "serve.query_p90_ms": percentile(query, 90) * 1e3,
            "serve.query_p99_ms": percentile(query, 99) * 1e3,
            "serve.query_samples": len(query),
            "serve.error_frames": sum(1 for *_, response in log if not response.get("ok")),
            "trace.overhead_frac": statistics.median(walls[True]) / pass_s - 1,
        }
    )
    metrics["serve.event_overhead_us"] = (
        metrics["serve.event_p50_ms"] * 1e3 - metrics["online.feed_p50_us"]
    )
    metrics["serve.query_overhead_us"] = (
        metrics["serve.query_p50_ms"] * 1e3 - metrics["online.measure_p50_us"]
    )
    outcome.metrics = metrics
    return outcome


def check_against_replay(tenants, log, outcome: Outcome, timed: bool):
    """Replay every answered frame in process and compare; returns call timings."""
    from repro.online.events import from_dict
    from repro.online.session import ROW_DECIMALS, ControllerSession
    from repro.serve.wire import desanitize

    sessions = {
        key: ControllerSession(network, demands)
        for key, (network, demands, _span) in tenants.items()
    }
    feed_s: list[float] = []
    measure_s: list[float] = []
    clock = time.perf_counter
    for kind, key, frame, response in log:
        session = sessions[key]
        if kind == "event":
            event = from_dict(frame["event"])
            start = clock()
            session.feed(event)
            feed_s.append(clock() - start)
            expected: object = session.rows[-1]
        elif kind == "mlu":
            start = clock()
            measurement = session.measure()
            measure_s.append(clock() - start)
            expected = round(measurement.mlu, ROW_DECIMALS)
        else:
            by_name = {str(node): node for node in session.network.nodes}
            expected = session.forwarding(by_name[frame["destination"]])
        if not response.get("ok"):
            outcome.fail(1, f"{kind} frame on {key} answered {response.get('error')!r}")
            continue
        result = desanitize(response["result"])
        problem = compare(kind, result, expected)
        if problem is not None:
            outcome.fail(1, f"{kind} frame on {key}: {problem}")
    if not timed:
        return [], []
    return feed_s, measure_s


def compare(kind: str, result: dict, expected: object) -> str | None:
    """How one socket answer differs from the direct replay, if it does."""
    if kind == "event":
        row = result["row"]
        for name, value in expected.items():
            got = row.get(name)
            if name in ROW_NUMBERS:
                if not close(got, value, TOLERANCE):
                    return f"row {name} {got!r} != {value!r}"
            elif got != value:
                return f"row {name} {got!r} != {value!r}"
        return None
    if kind == "mlu":
        if not close(result["mlu"], expected, TOLERANCE):
            return f"mlu {result['mlu']!r} != {expected!r}"
        return None
    answer = {name: value for name, value in result.items() if name != "session"}
    return None if answer == expected else "forwarding state differs"
