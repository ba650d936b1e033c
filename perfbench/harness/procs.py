"""Processes the benchmark starts: the build, probe runs and the daemon.

Every child is waited for with ``os.wait4``, which yields that child's own
peak RSS, and killed by a watchdog if it outlives its time limit.
"""

import json
import os
import shutil
import socket
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
OUT = os.path.join(ROOT, "perfbench", "out")
SOCYIELD = os.path.join(ROOT, "_build", "default", "bin", "socyield.exe")
# The probe is a dune project of its own (perfbench/probe). It is built in a
# staging tree beside a copy of the repository's lib/, whose libraries it
# calls; dune skips directories starting with "_", so the repository's own
# build does not see the staging tree.
STAGE = os.path.join(OUT, "_probe")
PROBE = os.path.join(STAGE, "_build", "default", "probe.exe")
# Relative to ROOT, which is the working directory of the daemon and of the
# client: a Unix socket path may not exceed 107 bytes.
SOCKET = os.path.join("perfbench", "out", "serve.sock")


class BenchError(Exception):
    """The benchmark could not run (as opposed to: it ran and a check failed)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Build the daemon and the probes from source in this checkout."""
    for need in ("dune-project", "lib", "bin"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError("no %s here: run from a checkout of the repository" % need)
    os.makedirs(OUT, exist_ok=True)
    stage()
    _dune(ROOT, "bin/socyield.exe")
    _dune(STAGE, "./probe.exe")


def stage():
    """Refresh the probe's staging tree: the probe's own files plus lib/.
    The staging tree's _build/ is kept, so an unchanged tree rebuilds
    nothing."""
    os.makedirs(STAGE, exist_ok=True)
    src = os.path.join(ROOT, "perfbench", "probe")
    for name in os.listdir(src):
        shutil.copy2(os.path.join(src, name), STAGE)
    lib = os.path.join(STAGE, "lib")
    shutil.rmtree(lib, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "lib"), lib)


def _dune(root, target):
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", target]
    try:
        r = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, timeout=400)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError("build of %s failed: %s" % (target, e))
    if r.returncode != 0:
        raise BenchError("build of %s failed with exit code %d" % (target, r.returncode))


class Finished:
    def __init__(self, code, out, wall_s, maxrss_mb):
        self.code, self.out, self.wall_s, self.maxrss_mb = code, out, wall_s, maxrss_mb


def _wait(proc):
    """Reap ``proc``; returns (exit code, peak RSS in MB)."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def _reap(proc, timeout):
    """``_wait`` with a watchdog that kills ``proc`` after ``timeout`` s."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        return _wait(proc)
    finally:
        timer.cancel()


def pinned(cpu):
    """A ``preexec_fn`` that keeps the child and all its threads on ``cpu``;
    None leaves the placement to the scheduler."""
    if cpu is None:
        return None
    return lambda: os.sched_setaffinity(0, {cpu})


def run_measured(argv, stdin_text="", timeout=170, cpu=None):
    """Run ``argv`` to completion; wall time covers process start to exit."""
    t0 = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            preexec_fn=pinned(cpu))
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        writer = threading.Thread(target=_feed, args=(proc.stdin, stdin_text.encode()))
        writer.start()
        out = proc.stdout.read()
        proc.stdout.close()
        writer.join()
        code, rss = _wait(proc)
    finally:
        timer.cancel()
    return Finished(code, out.decode(), time.monotonic() - t0, rss)


def _feed(pipe, data):
    try:
        pipe.write(data)
    except BrokenPipeError:
        pass
    finally:
        pipe.close()


def probe(mode, lines, flags=(), timeout=170):
    """Run a probe mode over request lines; returns (records, Finished)."""
    fin = run_measured([PROBE, mode, *flags], "".join(l + "\n" for l in lines), timeout)
    if fin.code != 0:
        raise BenchError("probe %s exited with %d" % (mode, fin.code))
    records = [json.loads(l) for l in fin.out.splitlines() if l.strip()]
    if len(records) != len(lines):
        raise BenchError("probe %s answered %d of %d lines" % (mode, len(records), len(lines)))
    return records, fin


def probe_parallel(mode, lines, workers=2):
    """``probe`` over ``lines`` split across ``workers`` processes, for
    reference runs whose timings are not used."""
    chunks = [lines[i::workers] for i in range(workers)]
    results = [None] * workers

    def work(i):
        try:
            results[i] = probe(mode, chunks[i])[0]
        except BenchError as e:
            results[i] = e

    threads = [threading.Thread(target=work, args=(i,)) for i in range(workers) if chunks[i]]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    out = [None] * len(lines)
    for i in range(workers):
        if isinstance(results[i], BenchError):
            raise results[i]
        for k, rec in enumerate(results[i] or []):
            out[i + k * workers] = rec
    return out


class Conn:
    """A control connection to the daemon (health, stats, shutdown)."""

    def __init__(self, timeout=60):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        self.sock.connect(SOCKET)
        self.reader = self.sock.makefile("rb")

    def call(self, obj):
        self.sock.sendall((json.dumps(obj) + "\n").encode())
        line = self.reader.readline()
        if not line:
            raise BenchError("daemon closed the connection")
        return json.loads(line)

    def close(self):
        self.reader.close()
        self.sock.close()


def control(method):
    return {"socyield-serve": 1, "method": method}


class Daemon:
    """A ``socyield serve`` process with default settings, kept on ``cpu``
    when one is given."""

    def __init__(self, cpu=None):
        self.rss = None
        if os.path.exists(os.path.join(ROOT, SOCKET)):
            os.unlink(os.path.join(ROOT, SOCKET))
        t0 = time.monotonic()
        self.proc = subprocess.Popen(
            [SOCYIELD, "serve", "--socket", SOCKET],
            cwd=ROOT,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            preexec_fn=pinned(cpu),
        )
        self.startup_s = self._wait_health(t0)

    def _wait_health(self, t0, timeout=30):
        while time.monotonic() - t0 < timeout:
            if self.proc.poll() is not None:
                raise BenchError("daemon exited with %d at start" % self.proc.returncode)
            try:
                c = Conn(timeout=5)
                try:
                    if c.call(control("health")).get("status") == "ok":
                        return time.monotonic() - t0
                finally:
                    c.close()
            except OSError:
                time.sleep(0.0005)
        self.stop()
        raise BenchError("daemon did not answer health within %d s" % timeout)

    def peak_rss_mb(self):
        """The daemon's peak RSS so far, in MB (VmHWM of /proc/<pid>/status)."""
        try:
            with open("/proc/%d/status" % self.proc.pid) as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except OSError as e:
            raise BenchError("cannot read the daemon's peak RSS: %s" % e)
        raise BenchError("no VmHWM in the daemon's status")

    def stats(self):
        c = Conn()
        try:
            return c.call(control("stats"))["result"]
        finally:
            c.close()

    def stop(self):
        """Shut the daemon down and return its peak RSS in MB."""
        if self.rss is not None:
            return self.rss
        if self.proc.returncode is None:
            try:
                c = Conn(timeout=10)
                try:
                    c.call(control("shutdown"))
                finally:
                    c.close()
            except (OSError, BenchError, ValueError):
                self.proc.kill()
        self.rss = _reap(self.proc, 60)[1]
        return self.rss


def load(lines, seconds, shared=None, connections=2, cycled=None, cpu=None):
    """Closed-loop load from ``probe.exe load``: each connection sends its
    next request only after the previous reply arrived, until ``seconds``
    have passed or its picks run out. Picks are indices into ``lines``:
    either ``shared``, one list handed out once across ``connections``, or
    ``cycled``, one list per connection that it repeats. Returns one
    ``(index, t_send, t_recv, raw_reply)`` per request, times in seconds
    from the start of the load; a lost reply is ``None``."""
    picks = [shared] if cycled is None else cycled
    connections = connections if cycled is None else len(cycled)
    text = "%d %d %d\n" % (len(lines), connections, int(cycled is None))
    text += "".join(l + "\n" for l in lines)
    text += "".join(" ".join(map(str, p)) + "\n" for p in picks)
    fin = run_measured([PROBE, "load", SOCKET, str(seconds)], text, timeout=seconds + 150, cpu=cpu)
    if fin.code != 0:
        raise BenchError("load client exited with %d" % fin.code)
    records = []
    for row in fin.out.splitlines():
        i, t0, t1, reply = row.split("\t", 3)
        records.append((int(i), float(t0), float(t1), reply or None))
    return records
