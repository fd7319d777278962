"""Run ``repro serve`` in a child process, and talk to it over HTTP.

As a script, ``python3 e2ebench/serve.py [--spans DIR] -- <serve args>``
is the server process: with ``--spans`` it installs the span tracer
before the service starts (so its forked pool workers inherit the
wrappers) and writes the server's spans when the service stops.  The
source tree must be on ``PYTHONPATH``.

:class:`ServerProcess` starts that script in a session of its own,
waits for the listening line, and stops it with SIGINT so the service
shuts its pool down cleanly; if that fails, it kills the whole session,
pool workers included.
"""

from __future__ import annotations

import argparse
import http.client
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

_LISTENING = re.compile(r"listening on http://[^:]+:(\d+)")
#: How long a server may take to stop after SIGINT before it is killed.
STOP_GRACE_S = 10


class ServerProcess:
    """One ``repro serve --jobs 2`` child with its own cache directory."""

    def __init__(
        self,
        workdir: Path,
        env: Dict[str, str],
        spans_dir: Optional[Path] = None,
        jobs: int = 2,
    ) -> None:
        self.log_path = Path(workdir) / "server.log"
        self.cache_dir = Path(workdir) / "cache"
        command: List[str] = [sys.executable, str(Path(__file__).resolve())]
        if spans_dir is not None:
            command += ["--spans", str(spans_dir)]
        command += [
            "--",
            "--jobs", str(jobs),
            "--port", "0",
            "--cache-dir", str(self.cache_dir),
            # The load is closed-loop, so admission control never has to
            # refuse it: quotas off.  Clients read each result as soon as
            # its job settles, so finished jobs (each holding its payload)
            # can leave the store a few seconds later.
            "--quota-rate", "0",
            "--job-ttl", "3",
        ]
        with self.log_path.open("w") as log:
            self.process = subprocess.Popen(
                command,
                stdout=log,
                stderr=subprocess.STDOUT,
                env=env,
                start_new_session=True,
            )
        self.port = self._wait_ready(timeout=60.0)

    def _wait_ready(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = _LISTENING.search(self.log_path.read_text())
            if match:
                return int(match.group(1))
            if self.process.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        raise RuntimeError(
            f"service did not start:\n{self.log_path.read_text()[-2000:]}"
        )

    def stop(self) -> None:
        """SIGINT, then wait; the service joins its pool on the way out.

        A clean stop takes well under a second.  A server still up after
        :data:`STOP_GRACE_S` is killed with its pool, and the log tail goes
        to stderr: a run has 180 s in all, and the server starts and stops
        once per set-up.
        """
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=STOP_GRACE_S)
            except subprocess.TimeoutExpired:
                os.killpg(self.process.pid, signal.SIGKILL)
                self.process.wait()
                print(
                    f"e2ebench: server did not stop within {STOP_GRACE_S} s of "
                    f"SIGINT; killed.  Log tail:\n{self.log_path.read_text()[-2000:]}",
                    file=sys.stderr,
                )


def request(
    port: int,
    method: str,
    path: str,
    body: Optional[bytes] = None,
    headers: Optional[Dict[str, str]] = None,
    timeout: float = 120.0,
) -> Tuple[int, bytes]:
    """One HTTP exchange on a fresh connection (the host closes each)."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        connection.request(method, path, body=body, headers=headers or {})
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", default=None, metavar="DIR")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = list(args.serve_args)
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]

    # A parent started in the background may pass SIGINT down ignored;
    # ServerProcess.stop needs it to reach the service's shutdown path.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    tracer = None
    if args.spans is not None:
        import spans

        tracer = spans.Tracer(Path(args.spans), role="server")
        spans.install(tracer)
    from repro.cli import main as repro_main

    try:
        return repro_main(["serve", *serve_args])
    finally:
        if tracer is not None:
            tracer.flush()


if __name__ == "__main__":
    sys.exit(main())
