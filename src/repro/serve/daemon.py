"""The ``repro serve`` daemon: TE controller sessions behind a TCP socket.

:class:`TEServer` hosts one :class:`~repro.online.session.ControllerSession`
per topology (multi-tenant, keyed the way the results store keys runs) on
an asyncio JSON-lines server.  The asyncio loop only parses frames and
routes them; everything that touches controller state — event application,
measurement, offline reoptimization — runs in a worker thread through a
per-session lock, so a slow reoptimization on one tenant never blocks
another tenant's feed, and the event loop itself never blocks at all.

Shutdown is graceful: the ``shutdown`` control frame is acknowledged,
the listening socket closes, in-flight work drains, and every session's
:meth:`~repro.online.session.ControllerSession.state_dump` is written
byte-stably to ``state_dump_path`` (same state ⇒ same bytes).

:class:`ServerThread` runs a server on a dedicated event loop in a
background thread — the harness behind the end-to-end tests and the
``repro serve --replay-trace`` soak mode, both of which need to drive the
real socket from synchronous code.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import logging
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from collections.abc import Callable, Mapping, Sequence
from typing import Any

from ..network import NetworkError
from ..online.events import EventError
from ..online.session import ROW_DECIMALS, ControllerSession
from . import wire
from .wire import Frame, WireError

logger = logging.getLogger(__name__)


class TEServer:
    """A multi-tenant TE control service over JSON-lines TCP frames.

    Parameters
    ----------
    sessions:
        The hosted sessions, keyed by session key (normally
        ``session.key``, the topology name).
    host, port:
        Bind address; ``port=0`` picks a free port (read :attr:`port`
        after :meth:`start`).
    state_dump_path:
        Where the graceful-shutdown state dump is written (one JSON file
        holding every session's dump, byte-stable).  ``None`` skips it.
    """

    def __init__(
        self,
        sessions: Mapping[str, ControllerSession],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        state_dump_path: str | Path | None = None,
        max_workers: int | None = None,
    ) -> None:
        if not sessions:
            raise ValueError("TEServer needs at least one session")
        self.sessions: dict[str, ControllerSession] = dict(sessions)
        self.host = host
        self.port = port
        self.state_dump_path = Path(state_dump_path) if state_dump_path else None
        self._max_workers = max_workers if max_workers else max(2, len(self.sessions))
        self._server: asyncio.base_events.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._locks: dict[str, asyncio.Lock] = {}
        self._stopping: asyncio.Event | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        #: Frames answered since start, by outcome (observability only).
        self.frames_ok = 0
        self.frames_error = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listening socket (resolves :attr:`port` when it was 0)."""
        self._loop = asyncio.get_running_loop()
        self._executor = ThreadPoolExecutor(
            max_workers=self._max_workers, thread_name_prefix="repro-serve"
        )
        self._locks = {key: asyncio.Lock() for key in self.sessions}
        self._stopping = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=wire.MAX_FRAME_BYTES + 2
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_until_shutdown(self) -> None:
        """Serve until a ``shutdown`` control frame (or :meth:`request_shutdown`)."""
        if self._server is None:
            await self.start()
        assert self._stopping is not None
        await self._stopping.wait()
        await self._shutdown()

    async def run(self) -> None:
        """Start and serve until shutdown (the foreground entry point)."""
        await self.start()
        await self.serve_until_shutdown()

    def request_shutdown(self) -> None:
        """Trigger graceful shutdown from the event-loop thread."""
        if self._stopping is not None:
            self._stopping.set()

    async def _shutdown(self) -> None:
        assert self._server is not None
        self._server.close()
        for writer in list(self._writers):
            writer.close()
        with contextlib.suppress(Exception):
            await self._server.wait_closed()
        # Drain: once every per-session lock can be taken, no state-touching
        # work is still in flight.
        for key in sorted(self._locks):
            async with self._locks[key]:
                pass
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        if self.state_dump_path is not None:
            self.state_dump_path.parent.mkdir(parents=True, exist_ok=True)
            self.state_dump_path.write_text(
                wire.dumps_state_file(self.state_dumps()), encoding="utf-8"
            )

    def state_dumps(self) -> dict[str, dict[str, object]]:
        """Every session's state dump, keyed by session key."""
        return {key: session.state_dump() for key, session in self.sessions.items()}

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        stop = False
        try:
            while not stop:
                try:
                    line = await reader.readline()
                except (ValueError, asyncio.LimitOverrunError):
                    # Oversized frame: report it and drop the connection (the
                    # stream is no longer line-synchronised).
                    writer.write(
                        wire.error_frame(
                            f"frame exceeds {wire.MAX_FRAME_BYTES} bytes"
                        )
                    )
                    self.frames_error += 1
                    await writer.drain()
                    break
                except (ConnectionResetError, BrokenPipeError):
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                response, stop = await self._dispatch(line.strip())
                try:
                    writer.write(response)
                    await writer.drain()
                except (ConnectionResetError, BrokenPipeError):
                    break
        except asyncio.CancelledError:
            # Loop teardown at shutdown cancels handlers still waiting on a
            # read; finish the task cleanly so the streams callback does not
            # log the cancellation as an unhandled exception.
            pass
        finally:
            self._writers.discard(writer)
            # Responses were drained before reaching here; a plain close is
            # enough (awaiting wait_closed would race loop teardown on the
            # shutdown path).
            writer.close()
        if stop and self._stopping is not None:
            self._stopping.set()

    async def _dispatch(self, line: bytes) -> tuple[bytes, bool]:
        """Answer one frame; returns ``(response_bytes, shutdown_requested)``."""
        try:
            frame = wire.parse_frame(line)
            result, stop = await self._execute(frame)
        except (WireError, EventError, NetworkError) as exc:
            # NetworkError covers schema-valid frames naming entities the
            # topology doesn't have (unknown link/node); the lookup raises
            # before any state mutation, so the session is untouched.
            self.frames_error += 1
            return wire.error_frame(str(exc)), False
        except Exception as exc:
            # Anything else is a fault inside a session call (a failing
            # reoptimization, say).  Answer it like any other error so the
            # client's connection stays up, and keep the traceback.
            logger.exception("internal error answering a frame")
            self.frames_error += 1
            return wire.error_frame(f"internal: {type(exc).__name__}: {exc}"), False
        self.frames_ok += 1
        return wire.ok_frame(result), stop

    def _resolve(self, key: str | None) -> str:
        serving = ", ".join(sorted(self.sessions))
        if key is None:
            if len(self.sessions) == 1:
                return next(iter(self.sessions))
            raise WireError(f"'session' is required (serving: {serving})")
        if key not in self.sessions:
            raise WireError(f"unknown session {key!r} (serving: {serving})")
        return key

    async def _in_worker(
        self, key: str, func: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> Any:
        """Run state-touching work off the event loop, one-at-a-time per session."""
        assert self._loop is not None and self._executor is not None
        async with self._locks[key]:
            call = functools.partial(func, *args, **kwargs)
            return await self._loop.run_in_executor(self._executor, call)

    async def _execute(self, frame: Frame) -> tuple[dict[str, object], bool]:
        if frame.type == "event":
            return await self._execute_event(frame), False
        if frame.type == "query":
            return await self._execute_query(frame), False
        if frame.action == "dump":
            return await self._execute_dump(frame), False
        if frame.action == "reoptimize":
            return await self._execute_reoptimize(frame), False
        # shutdown: acknowledge first, then stop (the caller sets the event
        # only after the response reached the socket).
        return {"stopping": True, "sessions": sorted(self.sessions)}, True

    async def _execute_event(self, frame: Frame) -> dict[str, object]:
        key = self._resolve(frame.session)
        session = self.sessions[key]
        before = len(session.rows)
        await self._in_worker(key, session.feed, frame.event)
        added: list[dict[str, object]] = [dict(row) for row in session.rows[before:]]
        # feed() appends the event's own row first; any further rows are
        # policy reoptimizations it triggered.
        return {"session": key, "row": added[0], "policy_rows": added[1:]}

    async def _execute_query(self, frame: Frame) -> dict[str, object]:
        if frame.query == "sessions":
            return {"sessions": sorted(self.sessions)}
        key = self._resolve(frame.session)
        session = self.sessions[key]
        if frame.query == "mlu":
            measurement = await self._in_worker(key, session.measure)
            return {
                "session": key,
                "mlu": round(measurement.mlu, ROW_DECIMALS),
                "connected": measurement.connected,
            }
        if frame.query == "status":
            return await self._in_worker(key, session.status)
        if frame.query == "counters":
            result = await self._in_worker(key, session.counters)
            result["session"] = key
            return result
        # forwarding: destinations arrive as strings on the wire; resolve
        # them against the topology's node names.
        by_name = {str(node): node for node in session.network.nodes}
        destination = by_name.get(frame.destination) if frame.destination else None
        if destination is None:
            raise WireError(
                f"unknown destination {frame.destination!r} in session {key!r}"
            )
        result = await self._in_worker(key, session.forwarding, destination)
        result["session"] = key
        return result

    async def _execute_dump(self, frame: Frame) -> dict[str, object]:
        keys = (
            [self._resolve(frame.session)]
            if frame.session is not None
            else sorted(self.sessions)
        )
        dumps: dict[str, object] = {}
        for key in keys:
            dumps[key] = await self._in_worker(key, self.sessions[key].state_dump)
        return {"dumps": dumps}

    async def _execute_reoptimize(self, frame: Frame) -> dict[str, object]:
        key = self._resolve(frame.session)
        session = self.sessions[key]
        before = len(session.rows)
        await self._in_worker(key, session.reoptimize_offline)
        row = dict(session.rows[-1]) if len(session.rows) > before else None
        return {"session": key, "row": row}


class ServerThread:
    """Run a :class:`TEServer` on a private event loop in a daemon thread.

    The synchronous harness for tests and the ``--replay-trace`` soak mode::

        with ServerThread(TEServer(sessions)) as runner:
            client = ServeClient("127.0.0.1", runner.port)
            ...

    Exiting the context requests a graceful shutdown (state dump included)
    and joins the thread.
    """

    def __init__(self, server: TEServer, *, join_timeout: float = 30.0) -> None:
        self.server = server
        self.join_timeout = join_timeout
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._started = threading.Event()
        self._error: BaseException | None = None

    @property
    def port(self) -> int:
        return self.server.port

    def start(self) -> ServerThread:
        if self._thread is not None:
            raise RuntimeError("server thread already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._error is not None:
            raise self._error
        return self

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        try:
            await self.server.start()
        except BaseException as exc:  # surface bind errors to the caller
            self._error = exc
            self._started.set()
            return
        self._loop = asyncio.get_running_loop()
        self._started.set()
        await self.server.serve_until_shutdown()

    def stop(self) -> None:
        """Request graceful shutdown and wait for the loop thread to exit."""
        if self._thread is None:
            return
        if self._loop is not None and self._thread.is_alive():
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self.server.request_shutdown)
        self._thread.join(self.join_timeout)
        if self._thread.is_alive():
            raise RuntimeError("serve loop did not shut down in time")
        self._thread = None
        self._loop = None

    def __enter__(self) -> ServerThread:
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def build_sessions(
    specs: Sequence[ControllerSession],
) -> dict[str, ControllerSession]:
    """Key a list of sessions by :attr:`ControllerSession.key` (must be unique)."""
    sessions: dict[str, ControllerSession] = {}
    for session in specs:
        if session.key in sessions:
            raise ValueError(f"duplicate session key {session.key!r}")
        sessions[session.key] = session
    return sessions
