"""Boot, probe and stop ``repro serve`` for one benchmark run.

Each boot is a separate process (its own session, so the sharded
deployment's replicas are reaped with it) on a fresh, ``--prewarm``-ed
table-cache directory under the run's scratch directory.  Set-up time
runs from launching the process to the first 200 from ``/healthz``.
Server CPU and peak memory are read from ``/proc`` for the serving
process and every descendant (the router and its replicas).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from loadgen import get_json

__all__ = ["Server", "boot"]

BOOT_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 30.0
_TICKS = os.sysconf("SC_CLK_TCK")
_HERE = Path(__file__).resolve().parent


def _children(pid: int) -> list[int]:
    found = []
    for task in Path(f"/proc/{pid}/task").glob("*/children"):
        try:
            found += [int(p) for p in task.read_text().split()]
        except OSError:
            continue
    return found


def _cpu_s(pid: int) -> float:
    try:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    # utime and stime are fields 14 and 15 of proc(5); [0] here is field 3.
    return (int(fields[11]) + int(fields[12])) / _TICKS


def _hwm_mb(pid: int) -> float:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


@dataclass
class Server:
    proc: subprocess.Popen
    host: str
    port: int
    setup_s: float
    table_dir: Path

    def pids(self) -> list[int]:
        """The serving process and all its descendants."""
        pids, frontier = [], [self.proc.pid]
        while frontier:
            pid = frontier.pop()
            pids.append(pid)
            frontier += _children(pid)
        return pids

    def cpu_s(self) -> float:
        return sum(_cpu_s(pid) for pid in self.pids())

    def rss_peak_mb(self) -> float:
        return sum(_hwm_mb(pid) for pid in self.pids())

    def metrics(self) -> dict:
        status, document = get_json(self.host, self.port, "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return document

    def stop(self) -> None:
        """SIGINT (the CLI's drain path), then SIGKILL the whole session
        if anything is left."""
        proc = self.proc
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def boot(
    root: Path,
    scratch: Path,
    *,
    replicas: int = 1,
    traced_spans: Path | None = None,
) -> Server:
    """Start one server and wait for it to report healthy.

    With ``traced_spans`` the process is the benchmark's traced launcher
    (:mod:`traced_serve`), which records spans and writes them to that
    file when it exits.
    """
    scratch.mkdir(parents=True, exist_ok=True)
    port_file = scratch / f"port-{time.monotonic_ns()}"
    table_dir = scratch / f"tables-{time.monotonic_ns()}"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH", "")) if p
    )
    # Keep every file the deployment makes (replica port files) inside
    # the run's scratch directory.
    env["TMPDIR"] = str(scratch)
    argv = ["--table-cache", str(table_dir), "serve", "--port", "0",
            "--port-file", str(port_file), "--prewarm"]
    if replicas > 1:
        argv += ["--replicas", str(replicas)]
    if traced_spans is None:
        command = [sys.executable, "-m", "repro", *argv]
    else:
        command = [sys.executable, str(_HERE / "traced_serve.py"), str(traced_spans), *argv]
    started = time.perf_counter()
    proc = subprocess.Popen(
        command,
        cwd=root,
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        host, port = _wait_port(proc, port_file, started)
        while True:
            try:
                status, _ = get_json(host, port, "/healthz", timeout=5.0)
            except OSError:
                status = 0
            if status == 200:
                break
            _check_alive(proc, started)
            time.sleep(0.002)
    except BaseException:
        Server(proc, "", 0, 0.0, table_dir).stop()
        raise
    return Server(proc, host, port, time.perf_counter() - started, table_dir)


def _check_alive(proc: subprocess.Popen, started: float) -> None:
    if proc.poll() is not None:
        raise RuntimeError(f"server exited with code {proc.returncode} during start-up")
    if time.perf_counter() - started > BOOT_TIMEOUT_S:
        raise RuntimeError(f"server not healthy within {BOOT_TIMEOUT_S:g}s")


def _wait_port(proc: subprocess.Popen, port_file: Path, started: float) -> tuple[str, int]:
    while True:
        try:
            text = port_file.read_text()
        except FileNotFoundError:
            text = ""
        if text.endswith("\n"):
            host, port = text.split()
            return host, int(port)
        _check_alive(proc, started)
        time.sleep(0.002)
