"""Run one workload: timed set-up, warm-up, measured passes, correctness gate.

Run shape (every workload): set-up runs ``setup_rounds`` times, each
round building its own input set from a seed derived from ``--seed``, and
its median is reported as ``setup_s``; then one untimed warm-up pass; then
rounds of the *same* ``Simulator.execute`` call, one pass over each input
set per round, in a closed loop (one caller, no think time) until
``--seconds`` have been measured.  ``wall_qps`` is the queries of a round
over the median round's seconds: a serial pass's time depends on the trace
drawn (seeds alone move it ~10 % on ``sched_deep``), and a run that
measures several traces repeats better than one that measures one.
Process-backend workloads measure the first input set only.  Tracing is
off during measured passes; ``--trace 1`` also measures the first input
set only and adds its traced pass and the differential passes of
:mod:`benchmarks.e2e.layers` afterwards.

**Host-speed normalisation.**  This sandbox has multi-second episodes in
which identical CPU work takes 40–90 % longer (CPU time rises with wall
time, so it is the host, not preemption).  A fixed pure-Python reference
loop is therefore timed immediately before and after every timed region,
and wall seconds are divided by the local slowdown (reference seconds ÷
:data:`REF_LOOP_S`).  On a quiet box of the authoring kind the factor is
1.0 and the figures are plain wall-clock; the raw seconds and the factor
are reported beside them (``host.raw_pass_s``, ``host.slowdown``).
"""

from __future__ import annotations

import multiprocessing
import os
import platform
import resource
import shutil
import signal
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from multiprocessing import resource_tracker
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from benchmarks.e2e.compare import quartiles
from benchmarks.e2e.layers import LAYER_UNITS, collect
from benchmarks.e2e.workloads import WORKLOADS, Prepared, Workload

#: End-to-end metrics (what a user of ``Simulator.execute`` sees), with
#: units.  Bounds live in ``BENCHMARK.json``.
E2E_UNITS: Dict[str, str] = {"setup_s": "s", "wall_qps": "1/s", "peak_rss_mb": "MiB"}

#: Seconds :func:`host_speed_sample` reads on the quiet authoring box.
REF_LOOP_S = 0.0032
#: A wedged worker is a failed pass after this long, not the process
#: backend's hard-coded 600 s ``REPLY_TIMEOUT_S``.
DEFAULT_PASS_TIMEOUT_S = 120.0
#: Never report a median over fewer measured rounds than this (a round is
#: one pass over each of the run's input sets).
MIN_ROUNDS = 3
#: Temp stores and checkpoints live here, inside the checkout.
WORK_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".work")

# Small enough to stay cache-resident: the loop must read the host's
# speed, not how much of the cache the workload just evicted.
_REF_TABLE = tuple(range(1, 1_001))
_REF_LOOKUP = {value: value for value in range(1024)}


def reference_loop() -> float:
    """Wall seconds of a fixed integer/dict/tuple loop."""
    lookup = _REF_LOOKUP
    table = _REF_TABLE
    started = time.perf_counter()
    total = 0
    for _ in range(40):
        for value in table:
            total += lookup[value & 1023] + value * value
    return time.perf_counter() - started


def host_speed_sample() -> float:
    """The host's speed now: fastest of three reference loops (a single
    loop can catch a millisecond hiccup that says nothing about a pass)."""
    return min(reference_loop(), reference_loop(), reference_loop())


@dataclass
class Timed:
    """One timed region: raw wall seconds and the host slowdown around it."""

    raw_s: float
    slowdown: float
    #: CPU seconds of child processes waited for inside the region.
    child_cpu_s: float = 0.0

    @property
    def norm_s(self) -> float:
        """Wall seconds at reference host speed."""
        return self.raw_s / self.slowdown


def timed(call: Callable, *args, **kwargs) -> Tuple[object, Timed]:
    """Run *call* between two reference loops; return its value and timing."""
    before = host_speed_sample()
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    started = time.perf_counter()
    value = call(*args, **kwargs)
    raw_s = time.perf_counter() - started
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    after = host_speed_sample()
    child_cpu_s = (reaped.ru_utime + reaped.ru_stime) - (children.ru_utime + children.ru_stime)
    return value, Timed(raw_s, (before + after) / 2.0 / REF_LOOP_S, child_cpu_s)


class PassTimeout(Exception):
    """A pass exceeded its wall-clock limit."""


@contextmanager
def wall_limit(seconds: float):
    """Raise :class:`PassTimeout` in the main thread after *seconds*."""
    if seconds <= 0 or threading.current_thread() is not threading.main_thread():
        yield
        return

    def on_alarm(signum, frame):
        raise PassTimeout(f"pass exceeded {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def reap_children() -> None:
    """Kill and wait for any worker process a failed pass left behind."""
    for child in multiprocessing.active_children():
        child.kill()
        child.join(10.0)


def _unregistered_workers() -> List[int]:
    """PIDs of ``spawn`` workers that are children of this process.

    After :func:`reap_children` these are workers ``multiprocessing`` never
    registered: a pass timeout or ``SIGTERM`` raised inside
    ``Process.start()``, after the fork and before the bookkeeping.  Read
    from ``/proc`` (Linux); empty where there is none.
    """
    workers = []
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else ():
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                parent = int(handle.read().rsplit(")", 1)[1].split()[1])
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                command = handle.read()
        except (OSError, ValueError, IndexError):
            continue  # gone between listing and reading
        if parent == os.getpid() and b"multiprocessing.spawn" in command:
            workers.append(int(entry))
    return workers


def stop_process_helpers() -> None:
    """Leave no process behind: workers, then multiprocessing's tracker.

    The ``spawn`` context starts a ``resource_tracker`` helper beside the
    first worker.  The interpreter (before 3.13) never waits for it: it
    exits on its own once this process is gone, i.e. *after* the run.
    Every worker holds a copy of its pipe, so workers go first — a
    surviving one would make the wait for the tracker endless; closing
    our end then ends the tracker and ``_stop`` waits for it.  A later
    ``spawn`` (the smoke test measures several workloads in one process)
    simply starts a new one.
    """
    reap_children()
    for pid in _unregistered_workers():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass  # ended and was waited for in the meantime
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


@contextmanager
def work_directory(prefix: str):
    """A private directory under :data:`WORK_ROOT`, removed even on failure."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    path = tempfile.mkdtemp(prefix=prefix + "-", dir=WORK_ROOT)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run is using it


def execute_pass(prepared: Prepared, spec, scratch: str, timeout_s: float):
    """One ``Simulator.execute`` call of *spec* under the wall limit."""
    pass_dir = None
    if spec.reliability is not None:
        pass_dir = tempfile.mkdtemp(prefix="lrcp-", dir=scratch)
        spec = replace(spec, reliability=replace(spec.reliability, checkpoint_dir=pass_dir))
    try:
        with wall_limit(timeout_s):
            return prepared.simulator.execute(prepared.queries, spec)
    except BaseException:
        reap_children()
        raise
    finally:
        if pass_dir is not None:
            shutil.rmtree(pass_dir, ignore_errors=True)


@dataclass
class Gate:
    """The correctness gate: counts operations and collects failed checks.

    An operation is one admitted query of one pass; it fails when its
    pass raises, times out, completes fewer queries than it admitted, or
    produces a ``result_digest`` different from the warm-up's on the same
    inputs or from the workload's parity reference — then every query of
    that pass counts.
    """

    offered: int
    attempted: int = 0
    failed: int = 0
    #: Reference digest of each input set (index 0: the primary one).
    digests: Dict[int, str] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)
    checks: List[str] = field(default_factory=list)

    def fail_pass(self, label: str, reason: str, counted: bool = True) -> None:
        """A pass that raised or timed out: every offered query failed."""
        if counted:
            self.attempted += self.offered
            self.failed += self.offered
        self.failures.append(f"{label}: {reason}")

    @property
    def digest(self) -> Optional[str]:
        """Reference digest of the primary input set."""
        return self.digests.get(0)

    def check_pass(self, label: str, result, inputs: int = 0, counted: bool = True) -> bool:
        """Check one finished pass over input set *inputs*; ``True`` when
        every check held.

        A warm-up is checked but not *counted*: its queries are not
        operations of the measurement.
        """
        expected = self.offered if result.serving is None else result.serving.admitted
        lost = 0
        digest = self.digests.setdefault(inputs, result.result_digest)
        if result.result_digest != digest:
            lost = expected
            self.failures.append(
                f"{label}: result_digest {result.result_digest[:12]} != {digest[:12]}"
            )
        elif result.completed_queries != expected:
            lost = expected - result.completed_queries
            self.failures.append(
                f"{label}: completed {result.completed_queries} of {expected} admitted"
            )
        if counted:
            self.attempted += expected
            self.failed += lost
        return lost == 0

    def check_equal(self, name: str, actual: str, expected: str) -> None:
        """A named parity check between two digests."""
        if actual == expected:
            self.checks.append(name)
        else:
            # A parity break invalidates every pass measured so far.
            self.failed = self.attempted
            self.failures.append(f"{name}: {actual[:12]} != {expected[:12]}")

    @property
    def correct(self) -> bool:
        return not self.failures and self.failed == 0


def _stats(values: Sequence[float]) -> Dict[str, float]:
    """Median with quartiles, extremes and sample count."""
    q1, median, q3 = quartiles(values)
    return {
        "value": median,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus its largest waited-for child, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _git_sha(root: str) -> Optional[str]:
    """HEAD's commit, read from ``.git`` (a child process would count in
    ``peak_rss_mb``); ``None`` outside a git checkout, like the driver's."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(root, ".git", head[5:]), encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return None  # no repository, or the ref is packed


def environment() -> Dict[str, object]:
    """Where the numbers were taken (recorded with every result)."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": _git_sha(root),
        "ref_loop_s": REF_LOOP_S,
    }


@dataclass
class Measurement:
    """Everything one run of one workload produced."""

    workload: str
    seed: int
    smoke: bool
    gate: Gate
    end_to_end: Dict[str, Dict[str, float]]
    per_layer: Optional[Dict[str, float]]
    #: Virtual-domain facts that must repeat exactly for a seed.
    exact: Dict[str, object]
    passes: List[Timed]
    setups: List[Timed]
    spans: Optional[dict] = None

    def _layer_entries(self) -> Optional[dict]:
        if self.per_layer is None:
            return None
        return {
            name: {"value": value, "unit": LAYER_UNITS[name]}
            for name, value in self.per_layer.items()
        }

    def to_json(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "smoke": self.smoke,
            "correct": self.gate.correct,
            "attempted": self.gate.attempted,
            "failed": self.gate.failed,
            "failures": self.gate.failures,
            "checks": self.gate.checks,
            "end_to_end": {
                name: dict(stats, unit=E2E_UNITS[name]) for name, stats in self.end_to_end.items()
            },
            "per_layer": self._layer_entries(),
            "exact": self.exact,
            "pass_count": len(self.passes),
            "setup_rounds": len(self.setups),
            "pass_raw_s": [sample.raw_s for sample in self.passes],
            "pass_slowdown": [sample.slowdown for sample in self.passes],
        }

    def driver_line(self, trace: bool) -> dict:
        """The one-line result of the benchmark contract."""
        if trace:
            metrics = self._layer_entries()
        else:
            metrics = {
                name: {"value": stats["value"], "unit": E2E_UNITS[name]}
                for name, stats in self.end_to_end.items()
            }
        return {
            "correct": self.gate.correct,
            "attempted": max(1, self.gate.attempted),
            "failed": self.gate.failed,
            "metrics": metrics,
        }


def input_seed(seed: int, index: int) -> int:
    """Generator seed of a run's *index*-th input set.

    Distinct ``(seed, index)`` pairs give distinct generator seeds, so two
    runs whose ``--seed`` differ by one share no inputs.
    """
    return seed * 16 + index


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    smoke: bool = False,
    pass_timeout_s: float = DEFAULT_PASS_TIMEOUT_S,
) -> Measurement:
    """Set up, warm up, measure and check one workload."""
    workload: Workload = WORKLOADS[name]
    setup_rounds = 1 if smoke else workload.setup_rounds
    min_rounds = 1 if smoke else MIN_ROUNDS
    with work_directory(name) as scratch:
        try:
            # Every set-up round builds its own input set: how fast a pass
            # runs depends on the trace drawn, so a run measures several.
            setups: List[Timed] = []
            prepared_all: List[Prepared] = []
            for index in range(setup_rounds):
                round_dir = os.path.join(scratch, f"setup{index}")
                os.makedirs(round_dir)
                prepared, sample = timed(
                    workload.build, input_seed(seed, index), round_dir, smoke
                )
                prepared_all.append(prepared)
                setups.append(sample)
            primary = prepared_all[0]
            # Measured on the primary alone: a process-backend pass (spawn and
            # IPC carry it, the trace moves it little, and it takes over a
            # second), and a traced run, which attributes one trace and
            # spends part of its window on the traced and differential passes.
            inputs = prepared_all if workload.serial and not trace else prepared_all[:1]
            window_s = seconds * 0.6 if trace else seconds

            gate = Gate(offered=len(primary.queries))
            result = None  # of the primary's latest good pass
            if not smoke:
                try:
                    result = execute_pass(primary, primary.spec, scratch, pass_timeout_s)
                    gate.check_pass("warm-up", result, counted=False)
                except Exception as error:  # a failed pass is reported, not fatal
                    gate.fail_pass("warm-up", repr(error), counted=False)

            rounds: List[List[Timed]] = []
            started = time.perf_counter()
            # Three failed checks end the loop: a broken build fails fast
            # instead of burning the window.
            while len(gate.failures) < 3 and (
                len(rounds) < min_rounds or time.perf_counter() - started < window_s
            ):
                samples: List[Timed] = []
                for index, prepared in enumerate(inputs):
                    label = f"round {len(rounds) + 1}, inputs {index}"
                    try:
                        done, sample = timed(
                            execute_pass, prepared, prepared.spec, scratch, pass_timeout_s
                        )
                    except Exception as error:
                        gate.fail_pass(label, repr(error))
                        break
                    if not gate.check_pass(label, done, index):
                        break
                    samples.append(sample)
                    if index == 0:
                        result = done
                else:
                    rounds.append(samples)
            primary_passes = [samples[0] for samples in rounds]

            reference_s = None
            if primary.reference is not None and result is not None:
                label, reference_spec = primary.reference
                try:
                    reference, sample = timed(
                        execute_pass, primary, reference_spec, scratch, pass_timeout_s
                    )
                    reference_s = sample.raw_s
                    gate.check_equal(
                        f"{name} == {label}", gate.digest or "", reference.result_digest
                    )
                except Exception as error:
                    gate.failures.append(f"{name} == {label}: {error!r}")

            per_layer = spans = None
            if trace and result is not None and rounds:
                per_layer, spans = collect(
                    workload,
                    primary,
                    result,
                    primary_passes,
                    setups,
                    gate,
                    reference_s,
                    lambda spec: execute_pass(primary, spec, scratch, pass_timeout_s),
                    scratch,
                    smoke,
                )
            end_to_end = {}
            if rounds:
                offered = gate.offered * len(inputs)
                end_to_end = {
                    "setup_s": _stats([sample.norm_s for sample in setups]),
                    "wall_qps": _stats(
                        [offered / sum(sample.norm_s for sample in samples) for samples in rounds]
                    ),
                    "peak_rss_mb": _stats([peak_rss_mb()]),
                }
            exact = {}
            if result is not None:
                exact = {
                    "result_digest": result.result_digest,
                    "completed_queries": result.completed_queries,
                    "virtual_qps": result.throughput_qps,
                    "virtual_resp_mean_s": result.avg_response_time_s,
                    "bucket_services": result.bucket_services,
                    "cache_hit_rate": result.cache_hit_rate,
                }
            return Measurement(
                workload=name,
                seed=seed,
                smoke=smoke,
                gate=gate,
                end_to_end=end_to_end,
                per_layer=per_layer,
                exact=exact,
                passes=[sample for samples in rounds for sample in samples],
                setups=setups,
                spans=spans,
            )
        finally:
            stop_process_helpers()
