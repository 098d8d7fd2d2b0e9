"""``repro serve`` with span recording, for the traced ``service_mix`` run.

Usage: ``python3 perfbench/traced_serve.py SPAN_DIR serve [serve args]``.

Installs the :mod:`spans` wrappers, then hands off to the program's own
CLI.  Three hooks carry a request id from the client to the worker that
executes the request: the ``X-Perfbench-Request`` header is read where
the server frames a request, the parsed body is re-wrapped in a dict
subclass that carries the id through the process pool's pickling, and
the worker entry point runs under that id (``spans._with_request_id``).

The server and each forked pool worker keep their spans in memory and
write ``SPAN_DIR/spans-<pid>.json`` when they exit.  Stop the server
with SIGINT: the CLI then closes the pool, whose workers exit normally.
"""

from __future__ import annotations

import atexit
import functools
import json
import multiprocessing.util
import os
import signal
import sys

import spans

HEADER = "x-perfbench-request"


class RequestBody(dict):
    """A request body that carries its request id into the worker."""

    request_id = None

    def __reduce__(self):
        return (_rebuild_body, (dict(self), self.request_id))


def _rebuild_body(data, request_id):
    body = RequestBody(data)
    body.request_id = request_id
    return body


def _write_spans(tracer: spans.Tracer, span_dir: str, role: str) -> None:
    path = os.path.join(span_dir, f"spans-{tracer.pid}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"pid": tracer.pid, "role": role, "spans": tracer.spans},
                  handle)


def _install_request_ids(tracer: spans.Tracer) -> None:
    import repro.service.server as server

    read_request = server._read_request

    @functools.wraps(read_request)
    async def read_with_id(reader):
        request = await read_request(reader)
        if request is not None:
            spans.REQUEST_ID.set(request[2].get(HEADER))
        return request

    server._read_request = read_with_id

    singleflight = server.SchedulerService._singleflight

    @functools.wraps(singleflight)
    async def singleflight_with_id(self, endpoint, body):
        tagged = RequestBody(body)
        tagged.request_id = spans.REQUEST_ID.get()
        return await singleflight(self, endpoint, tagged)

    server.SchedulerService._singleflight = singleflight_with_id
    server.SchedulerService._dispatch = tracer.wrap_async(
        "service.dispatch", server.SchedulerService._dispatch
    )


def main(argv) -> int:
    span_dir, serve_args = argv[0], argv[1:]
    tracer = spans.Tracer()
    spans.install(tracer)
    _install_request_ids(tracer)

    def start_worker(tracer: spans.Tracer) -> None:
        tracer.reset_after_fork()
        atexit.unregister(flush_server)
        # Pool workers leave through multiprocessing's exit path, which
        # runs its finalizers but not atexit handlers.
        multiprocessing.util.Finalize(
            None, _write_spans, args=(tracer, span_dir, "worker"),
            exitpriority=100,
        )

    def flush_server() -> None:
        _write_spans(tracer, span_dir, "server")

    multiprocessing.util.register_after_fork(tracer, start_worker)
    atexit.register(flush_server)
    # SIGINT may arrive ignored from the parent; the graceful stop
    # needs it to raise KeyboardInterrupt.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    from repro.cli import main as repro_main

    return repro_main(serve_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
