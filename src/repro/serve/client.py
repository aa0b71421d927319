"""Client side of the sweep service: one socket, serial request/reply.

:class:`ServeClient` is what the ``repro-serve`` CLI subcommands and the
test battery use.  It is deliberately dumb: one blocking TCP connection,
one outstanding request at a time, every failure surfaced as a named
:class:`~repro.errors.ServeError` — a daemon that dies mid-reply shows
up within the socket timeout as an error naming the endpoint, never as
a hang (the promptness contract ``tests/test_serve.py`` puts a <3s
bound on, mirroring ``tests/test_rt_router.py``).
"""

from __future__ import annotations

import socket
import time
from typing import Optional

from repro.errors import ServeError
from repro.serve.protocol import FrameBuffer, recv_frame, send_frame
from repro.sweep.spec import SweepSpec
from repro.sweep.store import ContentStore

__all__ = ["ServeClient"]


class ServeClient:
    """Blocking request/reply client for one serve daemon."""

    def __init__(
        self,
        *,
        store: ContentStore | str | None = None,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        timeout: float = 30.0,
        retry_for: float = 5.0,
    ):
        self.timeout = timeout
        self._buffer = FrameBuffer()
        if port is not None:
            self.host, self.port = host, port
            try:
                self._sock = socket.create_connection(
                    (host, port), timeout=timeout
                )
            except OSError as exc:
                raise ServeError(
                    f"cannot reach repro-serve daemon at {host}:{port}: {exc}"
                ) from None
            return
        if store is None:
            raise ServeError(
                "ServeClient needs either a store (to read the daemon's "
                "advert) or an explicit port"
            )
        if not isinstance(store, ContentStore):
            store = ContentStore(store)
        # The advert may be stale — a SIGKILLed daemon cannot remove its
        # serve.json — so connecting is the only real liveness probe.
        # Re-read the advert between attempts: a restarted daemon writes
        # a fresh one as soon as it binds.
        deadline = time.monotonic() + retry_for
        while True:
            endpoint = store.read_endpoint()
            if endpoint is not None:
                self.host, self.port = endpoint["host"], endpoint["port"]
                try:
                    self._sock = socket.create_connection(
                        (self.host, self.port), timeout=timeout
                    )
                    return
                except OSError as exc:
                    reason = (
                        f"advertised endpoint {self.host}:{self.port} "
                        f"refused the connection ({exc})"
                    )
            else:
                reason = f"no readable {store.endpoint_path.name}"
            if time.monotonic() >= deadline:
                raise ServeError(
                    f"no live repro-serve daemon under {store.root}: "
                    f"{reason}; is one running?"
                )
            time.sleep(0.05)

    # ------------------------------------------------------------------

    def _request(
        self, record: dict, *, timeout: Optional[float] = None
    ) -> dict:
        peer = f"repro-serve daemon at {self.host}:{self.port}"
        self._sock.settimeout(self.timeout if timeout is None else timeout)
        try:
            send_frame(self._sock, record)
        except OSError as exc:
            raise ServeError(f"send to {peer} failed: {exc}") from None
        reply = recv_frame(
            self._sock, self._buffer, peer=peer,
            what=f"{record.get('op', 'request')} reply",
        )
        if not reply.get("ok"):
            raise ServeError(reply.get("error", f"{peer}: request refused"))
        return reply

    # ------------------------------------------------------------------
    # operations

    def ping(self) -> dict:
        return self._request({"op": "ping"})

    def submit(self, spec: SweepSpec) -> dict:
        """Submit a sweep; returns the receipt (``sweep`` id, counts)."""
        return self._request({"op": "submit", "spec": spec.payload()})

    def status(self, sweep: Optional[str] = None) -> dict:
        record = {"op": "status"}
        if sweep is not None:
            record["sweep"] = sweep
        return self._request(record)

    def wait(self, sweep: str, *, timeout: float = 600.0) -> dict:
        """Block until the sweep settles; returns its final status.

        The daemon defers the reply until no cell is queued or running,
        so this needs no polling — but it still fails promptly if the
        daemon dies while we wait (EOF on the socket).
        """
        return self._request({"op": "wait", "sweep": sweep}, timeout=timeout)

    def fetch(self, sweep: str) -> list[dict]:
        """All metrics of a completed sweep, in job order."""
        return self._request({"op": "fetch", "sweep": sweep})["results"]

    def fetch_reply(self, sweep: str) -> dict:
        """Like :meth:`fetch` but the whole reply (spec + results)."""
        return self._request({"op": "fetch", "sweep": sweep})

    def stats(self) -> dict:
        return self._request({"op": "stats"})

    def shutdown(self) -> dict:
        return self._request({"op": "shutdown"})

    # ------------------------------------------------------------------

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - double close
            pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
