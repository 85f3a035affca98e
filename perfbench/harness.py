"""Run context shared by the workloads: the Ray session, per-op
deadlines, failure accounting, a /proc memory sampler and the metric
sinks."""

from __future__ import annotations

import contextlib
import os
import signal
import statistics
import subprocess
import threading
import time


def nproc() -> int:
    """CPUs as ``nproc`` reports them (affinity, capped by OMP_NUM_THREADS)."""
    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True,
                                  check=True).stdout)
    except (OSError, subprocess.CalledProcessError, ValueError):
        return len(os.sched_getaffinity(0))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    if not values:
        return 0.0
    s = sorted(values)
    k = max(0, min(len(s) - 1, int(-(-q * len(s) // 100)) - 1))
    return s[k]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


class DeadlineExceeded(Exception):
    pass


class RaySession:
    """One Ray session per process, ``num_cpus`` = nproc."""

    def __init__(self, num_cpus: int, temp_dir: str):
        self.num_cpus = num_cpus
        self.temp_dir = temp_dir

    def start(self) -> None:
        import ray
        from ray.data import DataContext

        kw = {}
        # Ray's AF_UNIX sockets live ~62 bytes below the temp dir and must
        # fit in 107; a deeper checkout falls back to Ray's default dir
        if len(self.temp_dir) <= 45:
            kw["_temp_dir"] = self.temp_dir
        ray.init(num_cpus=self.num_cpus, include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False,
                 object_store_memory=512 << 20, **kw)
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False

    def stop(self) -> None:
        import ray

        if ray.is_initialized():
            ray.shutdown()


class ProcessWatch(threading.Thread):
    """Samples the peak memory of this process and all its descendants —
    the driver, the Ray daemons it started and every Ray worker — from
    /proc (PSS, or RSS where smaps_rollup is unreadable), and remembers
    every descendant so ``reap`` can stop any that outlive the run."""

    def __init__(self, interval: float = 0.5):
        super().__init__(daemon=True)
        self.interval = interval
        self.peak_bytes = 0
        self.seen: dict[int, str] = {}      # pid -> start time
        self._halt = threading.Event()

    @staticmethod
    def _stat(pid) -> list[str] | None:
        try:
            with open(f"/proc/{pid}/stat") as f:
                return f.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            return None

    @classmethod
    def tree(cls, root: int) -> list[int]:
        """``root`` and all its descendants."""
        children: dict[int, list[int]] = {}
        for name in os.listdir("/proc"):
            st = cls._stat(name) if name.isdigit() else None
            if st:
                children.setdefault(int(st[1]), []).append(int(name))
        out, todo = [], [root]
        while todo:
            pid = todo.pop()
            out.append(pid)
            todo.extend(children.get(pid, ()))
        return out

    @staticmethod
    def _mem(pid: int) -> int:
        try:
            with open(f"/proc/{pid}/smaps_rollup") as f:
                for line in f:
                    if line.startswith("Pss:"):
                        return int(line.split()[1]) * 1024
        except OSError:
            pass
        try:
            with open(f"/proc/{pid}/statm") as f:
                return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
        except (OSError, IndexError, ValueError):
            return 0

    def sample(self) -> None:
        pids = self.tree(os.getpid())
        for pid in pids[1:]:
            st = self._stat(pid)
            if st:
                self.seen.setdefault(pid, st[19])
        self.peak_bytes = max(self.peak_bytes, sum(self._mem(p) for p in pids))

    def run(self) -> None:
        while not self._halt.wait(self.interval):
            self.sample()

    def stop(self) -> float:
        """Stop sampling; returns the peak in MB."""
        self._halt.set()
        self.join(timeout=5)
        self.sample()
        return self.peak_bytes / 2**20

    def _alive(self) -> list[int]:
        return [pid for pid, start in self.seen.items()
                if (st := self._stat(pid)) and st[19] == start and st[0] != "Z"]

    def reap(self, grace: float = 5.0) -> int:
        """SIGTERM, then SIGKILL, every remembered process still alive;
        returns how many there were."""
        left = self._alive()
        for sig in (signal.SIGTERM, signal.SIGKILL):
            for pid in left:
                with contextlib.suppress(OSError):
                    os.kill(pid, sig)
            deadline = time.monotonic() + grace
            while (alive := self._alive()) and time.monotonic() < deadline:
                time.sleep(0.1)
            if not alive:
                break
        return len(left)


class Run:
    """Everything one benchmark invocation shares across its phases."""

    def __init__(self, *, root, work_dir, run_dir, seed, seconds, tracer, session):
        self.root = root
        self.work_dir = work_dir
        self.run_dir = run_dir
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.session = session
        # set when an op misses its deadline: its thread still holds Ray,
        # so the run stops issuing ops and exits without ray.shutdown
        self.broken = False
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.e2e: dict[str, float] = {}
        self.layer: dict[str, float] = {}

    def start_session(self) -> None:
        """Start Ray from the main thread: Ray's daemons die with the
        thread that started them."""
        with self.tracer.span("ray.init"):
            self.session.start()

    def call(self, name: str, fn, *args, deadline: float, **kw):
        """Run one op under ``deadline`` seconds inside a span; a miss
        marks the run broken and raises ``DeadlineExceeded``."""
        box: dict = {}
        depth = self.tracer.depth()

        def target():
            try:
                with self.tracer.span(name):
                    box["value"] = fn(*args, **kw)
            except BaseException as exc:   # re-raised in the caller's thread
                box["error"] = exc

        th = threading.Thread(target=target, name=name, daemon=True)
        th.start()
        th.join(deadline)
        if th.is_alive():
            self.tracer.unwind(depth)
            self.broken = True
            raise DeadlineExceeded(f"{name} missed its {deadline:.0f} s deadline")
        if "error" in box:
            raise box["error"]
        return box["value"]

    def op(self, name: str, fn, *args, deadline: float, **kw):
        """``call`` for a counted op: returns ``(ok, value, seconds)``;
        any exception or missed deadline counts as one failed op."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            value = self.call(name, fn, *args, deadline=deadline, **kw)
            return True, value, time.perf_counter() - t0
        except Exception as exc:
            self.fail(f"{name}: {type(exc).__name__}: {exc}")
            return False, None, time.perf_counter() - t0

    def tally(self, attempted: int, failed: int, msg: str) -> None:
        """Count a batch of ops run inside one call."""
        self.attempted += attempted
        if failed:
            self.failed += failed
            self.errors.append(msg)

    def fail(self, msg: str) -> None:
        self.failed += 1
        self.errors.append(msg.splitlines()[0][:300] if msg else msg)

    def verify(self, checks: dict[str, bool]) -> bool:
        """Output checks of one op already counted as attempted: any miss
        counts that op as failed (once)."""
        missed = [name for name, ok in checks.items() if not ok]
        if missed:
            self.fail("check failed: " + "; ".join(missed))
        return not missed
