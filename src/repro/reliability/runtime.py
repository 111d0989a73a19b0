"""The channel coordinator: the one run loop of every sharded run.

Every sharded run is :class:`ShardCoordinator` over the channel kind its
backend names (:data:`CHANNEL_KINDS`), with or without a
:class:`~repro.reliability.config.ReliabilityConfig` attached.  The
coordinator fans the trace out into per-shard arrival schedules, then
advances all shards concurrently:

* stealing ineffective and no reliability — one ``RunWindow(None)`` drain
  per shard, a single round trip;
* otherwise — bounded virtual-time windows.  At every barrier idle shards
  steal the most starving foreign queue, and, **only when the run carries
  a reliability config**, the barrier hooks fire: scheduled crashes are
  injected, dead shards are detected and recovered, planned scale events
  execute and checkpoints are captured under the configured cadence.

The coordinator talks to :class:`ShardChannel` message pipes; the channel
kind is the only difference between the backends:

* :class:`ProcessChannel` (``"process"``) — one OS process per shard over
  a pipe.  A due crash point really ``SIGKILL``\\ s the child; detection
  is the broken pipe at the next message exchange.  The processes outlive
  the run: a run that ends normally returns them to the idle list of
  :mod:`repro.parallel.ipc` and the next run draws from it; a run that
  raises kills every one it touched.
* :class:`InlineChannel` (``"virtual"``) — the shard's
  :class:`~repro.parallel.ipc.ShardWorker` answering the same messages
  in-process.  A crash discards the live shard object, simulating the
  same total state loss deterministically.

Recovery is the same either way: rebuild the shard from its
:class:`~repro.parallel.ipc.ShardTask` **plus its latest checkpoint**,
discard the batch records the replay will re-emit (the coordinator's
per-shard cursor rewinds to the checkpoint's ``seq``), and catch the
shard up at the barriers it missed: the post-checkpoint queue migrations
it took part in are replayed in order, each at its own window boundary
(:meth:`ShardCoordinator._catch_up`).  Because every shard is a pure
function of its admitted schedule and its migrations, and a boundary
pauses the timeline without altering it, the recovered run's
virtual-clock outcome — completion sets, per-query chunk sequences,
steals, window boundaries, every parity field — is identical to an
uninterrupted run at any cadence, stealing on or off
(``tests/reliability/`` pins this across backends and worker counts).
Without a reliability config a dead shard is simply the run's typed
failure.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import tempfile
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import groupby
from typing import Dict, List, Optional, Sequence, Tuple, Type

from repro.core.engine import build_engine_report
from repro.parallel.backend import (
    BackendOutcome,
    ParallelRunSpec,
    ShardView,
    fan_out_arrivals,
    run_steal_round,
)
from repro.parallel.engine import CompletionTracker, StealRecord
from repro.parallel.ipc import (
    AdoptBucket,
    BatchRecord,
    CaptureCheckpoint,
    CheckpointWritten,
    EndTask,
    Finalize,
    ReleaseAllBuckets,
    ReleaseBucket,
    RunWindow,
    ShardTask,
    ShardWorker,
    WindowReport,
    WorkerFailure,
    WorkerResult,
    acquire_worker,
    destroy_worker,
    keep_spare,
    release_worker,
    trim_idle_workers,
)
from repro.parallel.sharding import make_shard_plan
from repro.parallel.worker import StagedShare, clone_policy
from repro.reliability.checkpoint import CHECKPOINT_SUFFIX
from repro.reliability.config import RecoveryEvent, ReliabilityReport, ScaleRecord
from repro.reliability.faults import FaultEvent, FaultPlan
from repro.telemetry.registry import REAL_DOMAIN, MetricsRegistry, merge_snapshots

#: How long the coordinator waits on a single worker-process reply before
#: declaring the run wedged (generous: windows are seconds of real work).
REPLY_TIMEOUT_S = 600.0

#: Poll granularity while waiting on a child reply (liveness checks run
#: between polls so a dead child is detected promptly).
POLL_INTERVAL_S = 0.05

#: Recoveries of one shard before the run is declared lost (guards
#: against a crash loop in a broken environment).
MAX_RECOVERIES_PER_WORKER = 8


class ChannelCrashed(RuntimeError):
    """A shard died (real kill or simulated) before/while replying."""

    def __init__(self, worker_id: int, exit_code: Optional[int] = None) -> None:
        super().__init__(f"shard worker {worker_id} died without replying (exit code {exit_code})")
        self.worker_id = worker_id


class ShardChannel(ABC):
    """One shard as the coordinator sees it: a killable message pipe.

    The protocol is strictly request/reply (the messages of
    :mod:`repro.parallel.ipc`), split into :meth:`send` and
    :meth:`receive` so the coordinator can post a window or a checkpoint
    capture to every shard before collecting any reply — real per-window
    work then runs concurrently across worker processes.
    """

    #: What the shard cost in worker processes: started, taken from the
    #: idle list, and seconds the coordinator waited for interpreters to
    #: come up.  All zero for a shard that lives in the coordinator.
    workers_booted = 0
    workers_reused = 0
    boot_s = 0.0

    def __init__(self, task: ShardTask) -> None:
        self.task = task
        self.worker_id = task.worker_id

    @abstractmethod
    def send(self, message) -> None:
        """Post one message.  A dead shard never raises here: it surfaces
        at :meth:`receive`, so a broadcast needs no crash handling
        mid-fan-out.  (A message that cannot be sent at all — a task that
        does not pickle — is the caller's error and does raise.)"""

    @abstractmethod
    def receive(self):
        """The reply to the last :meth:`send`; raises
        :class:`ChannelCrashed` on a dead shard."""

    def request(self, message):
        """One synchronous round trip."""
        self.send(message)
        return self.receive()

    @abstractmethod
    def kill(self) -> None:
        """Inject a crash: the shard loses all state since its checkpoint."""

    @abstractmethod
    def respawn(self, checkpoint_path: Optional[str]) -> None:
        """Rebuild the shard from its task, restored from *checkpoint_path*
        (``None`` restarts it cold, replaying the whole schedule)."""

    @abstractmethod
    def release(self) -> None:
        """Collect the reply to a posted ``EndTask`` and let the shard go."""

    @staticmethod
    def keep_spare() -> None:
        """Have the next shard of this kind ready before it is asked for
        (a reliability run calls it after every shard it opens)."""

    @staticmethod
    def trim_idle_workers(keep: int) -> None:
        """Let idle hosts of this kind beyond *keep* go (a run that ended
        normally calls it with its shard count, plus its spare)."""


class InlineChannel(ShardChannel):
    """The virtual backend's shard: a :class:`ShardWorker` beside the coordinator.

    Setup and message dispatch are exactly the worker process's
    (``ShardWorker.from_task`` + ``ShardWorker.handle``), minus the
    process — so a simulated crash/recovery exercises the identical
    restore code path the process backend runs.  The work of a message
    happens at :meth:`receive`.
    """

    def __init__(self, task: ShardTask) -> None:
        super().__init__(task)
        self._inbox = None
        self._shard: Optional[ShardWorker] = None
        self.respawn(None)

    def send(self, message) -> None:
        self._inbox = message

    def receive(self):
        if self._shard is None:
            raise ChannelCrashed(self.worker_id)
        return self._shard.handle(self._inbox)

    def kill(self) -> None:
        self._shard = None  # every bit of shard state is gone

    def respawn(self, checkpoint_path: Optional[str]) -> None:
        self._shard = ShardWorker.from_task(
            dataclasses.replace(self.task, checkpoint_path=checkpoint_path)
        )

    def release(self) -> None:
        self.receive()  # the Ack: the shard's private store is closed
        self.kill()


class ProcessChannel(ShardChannel):
    """One shard on a worker process, killable and respawnable.

    The process comes from :func:`repro.parallel.ipc.acquire_worker` — an
    idle one when there is one, the spare next, else a freshly started
    one — and the :class:`ShardTask` follows over the pipe with the first
    message, so constructing N channels has N interpreters booting
    concurrently.  A spare or a fresh start is read for its
    ``WorkerBooted`` at that first :meth:`send`.

    The counters keep one meaning each: ``workers_booted`` counts
    acquisitions that had to start an interpreter on the spot,
    ``workers_reused`` those served from the idle list (the spare
    included), and ``boot_s`` the seconds spent waiting for any
    interpreter to come up (a spare still booting included).  Their sum
    ``workers_booted + workers_reused`` is the number of workers the
    channel was given.  :meth:`keep_spare` and :meth:`trim_idle_workers`
    are :mod:`repro.parallel.ipc`'s own.
    """

    keep_spare = staticmethod(keep_spare)
    trim_idle_workers = staticmethod(trim_idle_workers)

    def __init__(self, task: ShardTask) -> None:
        super().__init__(task)
        self._process = None
        self._conn = None
        self._send_failed = False
        self.respawn(None)

    def _crashed(self) -> ChannelCrashed:
        exit_code = None
        if self._process is not None:
            self._process.join(timeout=1.0)  # let a dying child be reaped
            exit_code = self._process.exitcode
        return ChannelCrashed(self.worker_id, exit_code)

    def send(self, message) -> None:
        self._send_failed = True
        if self._conn is None:
            return
        try:
            if self._booting:
                # Blocks only while *this* interpreter is still coming up;
                # its siblings were started before it and boot alongside.
                started = time.perf_counter()
                self._recv()  # WorkerBooted
                self.boot_s += time.perf_counter() - started
                self._booting = False
            if self._task is not None:
                # A task that does not pickle raises here, to the caller.
                self._conn.send(self._task)
                self._task = None
            self._conn.send(message)
            self._send_failed = False
        except (OSError, ValueError, ChannelCrashed):
            pass

    def receive(self):
        if self._send_failed:
            raise self._crashed()
        return self._recv()

    def _recv(self):
        deadline = time.monotonic() + REPLY_TIMEOUT_S
        while True:
            try:
                if self._conn.poll(POLL_INTERVAL_S):
                    break
            except (OSError, ValueError) as error:
                raise self._crashed() from error
            # Dead and the pipe has drained: nothing more is coming.
            if not self._process.is_alive() and not self._conn.poll(0):
                raise self._crashed()
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"shard worker {self.worker_id} sent no reply within "
                    f"{REPLY_TIMEOUT_S:g}s; aborting the run"
                )
        try:
            reply = self._conn.recv()
        except (EOFError, OSError) as error:
            raise self._crashed() from error
        if isinstance(reply, WorkerFailure):
            raise RuntimeError(
                f"shard worker {reply.worker_id} failed:\n{reply.traceback_text}"
            )
        return reply

    def kill(self) -> None:
        if self._conn is not None:
            destroy_worker(self._process, self._conn)
            self._conn = None  # the process stays: its exit code is the diagnosis

    def respawn(self, checkpoint_path: Optional[str]) -> None:
        self.kill()
        self._task = dataclasses.replace(self.task, checkpoint_path=checkpoint_path)
        self._process, self._conn, reused, self._booting = acquire_worker()
        if reused:
            self.workers_reused += 1
        else:
            self.workers_booted += 1

    def release(self) -> None:
        try:
            self.receive()  # the Ack: the worker's store is closed
        except ChannelCrashed:
            self.kill()  # died after its last reply: nothing left to keep
            return
        release_worker(self._process, self._conn)
        self._process = self._conn = None


#: The channel kind of each execution backend, keyed by its name in :data:`BACKENDS`.
CHANNEL_KINDS: Dict[str, Type[ShardChannel]] = {"virtual": InlineChannel, "process": ProcessChannel}


@dataclass
class _JournaledSteal:
    """One queue migration the coordinator witnessed (for catch-up)."""

    window_index: int
    record: StealRecord
    adopt: AdoptBucket


class ShardCoordinator:
    """Drives one message-passing run; see the module docstring."""

    def __init__(self, spec: ParallelRunSpec, backend_name: str) -> None:
        #: The run's wall clock includes backend setup (plan, fan-out, spawn).
        self._started = time.perf_counter()
        self.spec = spec
        self.backend_name = backend_name
        self.channel_factory = CHANNEL_KINDS[backend_name]
        #: ``None`` switches every barrier hook off (see the module docstring).
        self.rel = rel = spec.reliability
        self.plan = make_shard_plan(spec.layout, spec.workers, spec.shard_strategy)
        self.tracker = CompletionTracker()
        faults = rel.faults if rel is not None else FaultPlan()
        faults.validate(spec.workers, spec.enable_stealing)
        #: The barrier plan indexed by window once; each list in barrier order.
        self.barrier_events: Dict[int, List[FaultEvent]] = {
            window: list(events)
            for window, events in groupby(faults.events, lambda event: event.window_index)
        }
        self.stealing = spec.enable_stealing and spec.workers + faults.count("join") > 1
        self.arrivals = fan_out_arrivals(spec, self.plan, self.tracker)
        if rel is not None:
            # Derive the store generation every checkpoint is bound to
            # before the snapshot is taken, so the snapshot carries it and
            # no shard re-derives it; a run without reliability never
            # derives it.
            spec.store.generation
        #: Every shard — scale-up joiners included — boots from this snapshot.
        self.snapshot = spec.store.snapshot()
        self.channels: List[ShardChannel] = []
        self.views: List[ShardView] = []
        self.policies: list = []
        self.batches: List[BatchRecord] = []
        self.steal_records: List[StealRecord] = []
        self.window_boundaries: List[float] = []
        #: Where a restored shard's catch-up ends: the current window's
        #: boundary once every live shard has been advanced to it, 0.0
        #: while that round is in flight (the re-sent ``RunWindow`` then
        #: advances the shard itself).
        self.barrier_ms = 0.0
        #: Index of the window in flight; the number of windows run once
        #: the loop has ended.
        self.window_index = 0
        self.journal: List[_JournaledSteal] = []
        #: Next expected batch seq per shard (the emitted-record cursor).
        self.accepted_seq: Dict[int, int] = {}
        #: Newest durable state per shard: the file and its summary.
        self.latest: Dict[int, Tuple[str, CheckpointWritten]] = {}
        self.recovery_budget: Dict[int, int] = {}
        #: Workers that have executed a planned departure, and their
        #: finalized accounting (collected at departure time, not run end).
        self.departed: set = set()
        self.final_results: Dict[int, WorkerResult] = {}
        self.report = (
            ReliabilityReport(checkpoint_dir="", cadence=rel.cadence)
            if rel is not None
            else None
        )

    # -- setup / teardown -------------------------------------------------- #

    def _spawn_shard(self, arrivals: Sequence[StagedShare]) -> None:
        """Boot the next shard; a scale-up joiner passes an empty schedule."""
        worker_id = len(self.channels)
        task = ShardTask(
            worker_id=worker_id,
            config=self.spec.config,
            policy=clone_policy(self.spec.policy, worker_id),
            snapshot=self.snapshot,
            arrivals=tuple(arrivals),
        )
        self.channels.append(self.channel_factory(task))
        self.views.append(ShardView(worker_id, arrivals))
        self.accepted_seq[worker_id] = 0
        if self.rel is not None:
            self.policies.append(self.rel.build_policy())
            self.recovery_budget[worker_id] = MAX_RECOVERIES_PER_WORKER

    def _keep_spare(self) -> None:
        """A reliability run keeps one idle worker beside its shards, so a
        recovery or a joiner never waits for an interpreter to boot; called
        once the initial shards exist and after every later acquisition."""
        if self.rel is not None:
            self.channel_factory.keep_spare()

    # -- the run ----------------------------------------------------------- #

    def execute(self) -> BackendOutcome:
        owned_dir = None
        if self.rel is not None:
            if self.rel.checkpoint_dir is None:
                owned_dir = tempfile.mkdtemp(prefix="liferaft-ckpt-")
            self.report.checkpoint_dir = self.rel.checkpoint_dir or owned_dir
            os.makedirs(self.report.checkpoint_dir, exist_ok=True)
        try:
            for arrivals in self.arrivals:
                self._spawn_shard(arrivals)
            self._keep_spare()
            if self.rel is not None or self.stealing:
                self._window_loop()
            else:
                self._run_window(None)  # one drain message per shard
            # Departed shards were finalized at their barrier; the
            # survivors are finalized now.
            results = [
                self.final_results[worker_id]
                if worker_id in self.departed
                else self._request(worker_id, Finalize())
                for worker_id in range(len(self.channels))
            ]
            remaining = [
                channel for channel in self.channels if channel.worker_id not in self.departed
            ]
            for channel in remaining:
                channel.send(EndTask())  # every shard closes its store concurrently
            for channel in remaining:
                channel.release()
        except BaseException:
            # Nothing a failed run touched is reused, and no sibling is
            # waited for: the caller gets the error now.
            for channel in self.channels:
                channel.kill()
            raise
        finally:
            if owned_dir is not None:
                shutil.rmtree(owned_dir, ignore_errors=True)
        if self.report is not None:
            self.report.windows = self.window_index
        outcome = self._outcome(results)
        # The run's workers are idle now; keep no more than it had shards,
        # plus the spare when the run was a reliability run.
        self.channel_factory.trim_idle_workers(len(self.channels) + (self.rel is not None))
        return outcome

    def _outcome(self, results: Sequence[WorkerResult]) -> BackendOutcome:
        """Merge the shards' batch records and accounting into one outcome.

        The service log is put in global finish order once, here: ties break
        by worker id, then by the shard's own sequence number, so the order
        does not depend on which shard replied first.  Replayed in that order,
        the tracker stamps each query at the finish of its last-finishing
        service — the completion law the ledger and the result streams read
        off the same log.
        """
        elapsed_s = time.perf_counter() - self._started
        self.batches.sort(key=lambda r: (r.finished_at_ms, r.worker_id, r.seq))
        for record in self.batches:
            for query_id in record.queries_served:
                self.tracker.on_serviced(query_id, record.bucket_index, record.finished_at_ms)
        ordered_results = sorted(results, key=lambda r: r.worker_id)
        telemetry = merge_snapshots(
            [r.telemetry for r in ordered_results] + [self._coordinator_snapshot()]
        )
        spec, tracker = self.spec, self.tracker
        report = build_engine_report(
            f"parallel(workers={spec.workers}, policy={spec.policy.name}, "
            f"shard={self.plan.strategy})",
            tracker.submitted_count,
            tracker.response_times_ms(),
            tracker.first_arrival_ms,
            tracker.last_completion_ms,
            telemetry,
        )
        return BackendOutcome(
            backend=self.backend_name,
            report=report,
            results=ordered_results,
            steal_records=self.steal_records,
            services=self.batches,
            real_elapsed_s=elapsed_s,
            reliability=self.report,
            telemetry=telemetry,
            window_boundaries_ms=self.window_boundaries,
        )

    def _coordinator_snapshot(self) -> Optional[dict]:
        """Coordinator-side accounting as a mergeable telemetry snapshot.

        Everything here lives in the **real** domain: window counts and steal
        totals depend on barrier placement (a coordination artefact, not part
        of the deterministic contract); checkpoint bytes, crash counts and the
        channels' boot accounting are operational profile.  Counters are only
        created when non-zero, so a single-drain run on inline channels has
        none of them.
        """
        counters = [
            ("coordinator.steals", len(self.steal_records)),
            ("coordinator.windows", len(self.window_boundaries)),
            ("coordinator.workers_booted", sum(c.workers_booted for c in self.channels)),
            ("coordinator.workers_reused", sum(c.workers_reused for c in self.channels)),
            ("coordinator.boot_s", sum(c.boot_s for c in self.channels)),
        ]
        report = self.report
        if report is not None:
            counters += [
                ("reliability.windows", report.windows),
                ("reliability.checkpoints_written", report.checkpoints_written),
                ("reliability.checkpoint_bytes", report.checkpoint_bytes),
                ("reliability.checkpoint_real_s", report.checkpoint_real_s),
                ("reliability.crashes_injected", report.crashes_injected),
                ("reliability.recoveries", report.recovery_count),
                ("reliability.scale_events", len(report.scale_events)),
            ]
        registry = MetricsRegistry()
        for name, value in counters:
            if value:
                registry.counter(name, domain=REAL_DOMAIN).inc(value)
        snapshot = registry.snapshot()
        return snapshot if snapshot["metrics"] else None

    def _window_loop(self) -> None:
        quantum_ms = self.spec.quantum_ms()
        while True:
            candidates = [
                candidate
                for view in self.views
                if (candidate := view.boundary_candidate_ms()) is not None
            ]
            if not candidates:
                break
            boundary = min(candidates) + quantum_ms
            self.window_boundaries.append(boundary)
            due = self.barrier_events.get(self.window_index, ())
            # Inject this window's scheduled kills: the shard dies while
            # the window is (about to be) in flight, exactly as a machine
            # failure would land mid-computation.
            for event in due:
                if event.kind == "kill" and not self.views[event.worker_id].drained:
                    self.channels[event.worker_id].kill()
                    self.report.crashes_injected += 1
            self.barrier_ms = 0.0
            self._run_window(boundary)
            self.barrier_ms = boundary
            if due:
                self._scale_round(due)
            drained = all(view.drained for view in self.views)
            if not drained:
                if self.stealing:
                    self._steal_round()
                if self.rel is not None:
                    self._checkpoint_round()
            self.window_index += 1
            if drained:
                break

    def _post(self, messages: Dict[int, object]) -> None:
        """Post every message before any reply is collected.

        Real per-shard work (page reads, decodes, checkpoint writes) then
        runs concurrently across worker processes.
        """
        for worker_id, message in messages.items():
            self.channels[worker_id].send(message)

    def _collect(self, worker_ids) -> Tuple[list, List[int]]:
        """The replies to posted messages, and the ids of shards found dead.

        The dead are recovered by the caller only after every in-flight
        reply has drained (catch-up must not talk to a shard with a reply
        outstanding).
        """
        replies, crashed = [], []
        for worker_id in worker_ids:
            try:
                replies.append(self.channels[worker_id].receive())
            except ChannelCrashed:
                crashed.append(worker_id)
        return replies, crashed

    def _run_window(self, until_ms: Optional[float]) -> None:
        """Advance every undrained shard to *until_ms* (``None`` = drain)."""
        messages = {view.worker_id: RunWindow(until_ms) for view in self.views if not view.drained}
        self._post(messages)
        reports, crashed = self._collect(messages)
        for report in reports:
            self._apply_window(report)
        for worker_id in crashed:
            self._apply_window(self._request(worker_id, RunWindow(until_ms)))

    def _apply_window(self, report: WindowReport) -> None:
        """Accept a window's batch records and refresh the shard's view.

        Exactly-once: a record is accepted only at its expected sequence
        number.  After a recovery the cursor rewinds to the checkpoint's
        ``seq`` (the replayed tail re-produces the discarded records with
        the same numbers), so nothing is lost and nothing is duplicated.
        """
        cursor = self.accepted_seq[report.worker_id]
        for record in report.batches:
            if record.seq < cursor:
                continue  # an already-accepted record re-surfacing
            if record.seq != cursor:
                raise RuntimeError(
                    f"shard {report.worker_id} skipped batch seq "
                    f"{cursor} (got {record.seq})"
                )
            self.batches.append(record)
            cursor += 1
        self.accepted_seq[report.worker_id] = cursor
        self.views[report.worker_id].apply_window(report)

    # -- crash recovery ---------------------------------------------------- #

    def _request(self, worker_id: int, message):
        """One round trip that survives the shard dying: recover, re-send.

        Every coordinator request outside a broadcast goes through here,
        so there is one retry rule.  Re-sending is always safe — the
        restored shard is back in the state the message was first sent
        to, and migrations are journaled only after both halves were
        delivered, so none is replayed twice.
        """
        channel = self.channels[worker_id]
        while True:
            try:
                return channel.request(message)
            except ChannelCrashed:
                if self.rel is None:
                    raise  # no recovery configured: the death is the outcome
                self._recover(worker_id)

    def _recover(self, worker_id: int) -> None:
        """Restore a dead shard from its latest checkpoint and catch it up."""
        if self.recovery_budget[worker_id] <= 0:
            raise RuntimeError(
                f"shard worker {worker_id} exceeded "
                f"{MAX_RECOVERIES_PER_WORKER} recoveries; giving up"
            )
        self.recovery_budget[worker_id] -= 1
        started = time.perf_counter()
        checkpoint_path, written = self.latest.get(worker_id, (None, None))
        checkpoint_seq = written.seq if written is not None else 0
        checkpoint_window = written.window_index if written is not None else -1
        self.channels[worker_id].respawn(checkpoint_path)
        self._keep_spare()
        # Rewind the emitted-record cursor: everything at or past the
        # checkpoint's seq is lost work the replay will re-produce.
        kept = [
            record
            for record in self.batches
            if not (record.worker_id == worker_id and record.seq >= checkpoint_seq)
        ]
        services_replayed = len(self.batches) - len(kept)
        self.batches = kept
        self.accepted_seq[worker_id] = checkpoint_seq
        self._catch_up(worker_id, checkpoint_window)
        self.report.recoveries.append(
            RecoveryEvent(
                worker_id=worker_id,
                window_index=self.window_index,
                checkpoint_window=checkpoint_window,
                services_replayed=services_replayed,
                real_latency_s=time.perf_counter() - started,
            )
        )

    def _catch_up(self, worker_id: int, checkpoint_window: int) -> None:
        """Bring a restored shard through the barriers it missed.

        The one recovery rule: walk the journal of post-checkpoint queue
        migrations the shard took part in, in order.  At the first one of
        each window, advance the shard to that window's boundary (once: an
        adopt can leave the thief's clock below it, and a second advance
        would run next-window services early); then replay the migration
        itself — the journaled ``AdoptBucket`` when
        the shard was the thief, a ``ReleaseBucket`` whose reply is
        dropped when it was the victim (the thief already holds that
        queue).  A last ``RunWindow`` takes the shard to
        :attr:`barrier_ms` — or, if it has just replayed migrations at that
        barrier, is empty — and its report refreshes the coordinator's
        view.  ``advance(until)`` pauses the timeline at a boundary without
        altering it, so this rebuilds exactly the lost state and nothing
        outside the shard moves: the recovered run is the uninterrupted
        one, at any cadence, with stealing on.

        A window's steal round runs *before* its checkpoint round, so a
        checkpoint captured at window ``w`` already contains that window's
        migrations — only migrations of strictly later windows are
        replayed.
        """
        channel = self.channels[worker_id]
        passed = checkpoint_window
        for steal in self.journal:
            record = steal.record
            if steal.window_index <= checkpoint_window or worker_id not in (
                record.thief_id,
                record.victim_id,
            ):
                continue
            if steal.window_index > passed:
                passed = steal.window_index
                self._apply_window(channel.request(RunWindow(self.window_boundaries[passed])))
            if record.thief_id == worker_id:
                channel.request(steal.adopt)
            else:
                channel.request(ReleaseBucket(record.bucket_index))
        until = 0.0 if passed == self.window_index else self.barrier_ms
        self._apply_window(channel.request(RunWindow(until)))

    # -- planned elasticity (window-barrier scale events) ------------------- #

    def _scale_round(self, due: Sequence[FaultEvent]) -> None:
        """Execute this barrier's planned joins and departures.

        Joins run before departures (a newcomer is immediately eligible
        to adopt a leaver's queues, and the pool can never empty at a
        barrier that has both).  A joiner is a cold shard with an empty
        arrival schedule: its view starts drained, so it costs nothing
        until the next steal round hands it a starving queue — the same
        seam ordinary stealing uses.
        """
        for event in due:
            if event.kind == "leave":
                self._scale_down(event.worker_id)
            elif event.kind == "join":
                self._spawn_shard(())
                self._keep_spare()
                self.report.scale_events.append(
                    ScaleRecord(
                        kind="up",
                        worker_id=len(self.channels) - 1,
                        window_index=self.window_index,
                    )
                )

    def _scale_down(self, worker_id: int) -> None:
        """One worker departs: evacuate, finalize, shut down.

        Every queue (pending entries *and* not-yet-ingested staged
        shares) migrates to the surviving shards through the same
        ``ReleaseBucket``/``AdoptBucket`` seam stealing uses, journaled
        like steals so a later crash recovery replays them at this
        barrier.  The departing shard's accounting is captured now and
        merged at run end.
        """
        released_all = self._request(worker_id, ReleaseAllBuckets())
        targets = sorted(
            (
                target
                for target in self.views
                if target.worker_id != worker_id
                and target.worker_id not in self.departed
            ),
            key=lambda target: (target.clock_ms, target.worker_id),
        )
        buckets = [
            released
            for released in released_all.buckets
            if released.entries or released.staged
        ]
        for position, released in enumerate(buckets):
            target = targets[position % len(targets)]
            enqueues = [entry.enqueue_time_ms for entry in released.entries]
            message = AdoptBucket(
                bucket_index=released.bucket_index,
                entries=released.entries,
                staged=released.staged,
                clock_ms=max(target.clock_ms, max(enqueues, default=0.0)),
            )
            self._request(target.worker_id, message)
            target.apply_adopt(message)
            # Journaled like a steal (a recovery's catch-up replays it)
            # but NOT appended to steal_records: a planned departure is
            # not a steal in the run's workload accounting.
            self.journal.append(
                _JournaledSteal(
                    window_index=self.window_index,
                    record=StealRecord(
                        time_ms=message.clock_ms,
                        bucket_index=released.bucket_index,
                        victim_id=worker_id,
                        thief_id=target.worker_id,
                        entry_count=len(released.entries),
                    ),
                    adopt=message,
                )
            )
        self.final_results[worker_id] = self._request(worker_id, Finalize())
        channel = self.channels[worker_id]
        channel.send(EndTask())
        channel.release()
        self.departed.add(worker_id)
        view = self.views[worker_id]
        view.pending = {}
        view.next_staged_ms = None
        view.drained = True
        self.report.scale_events.append(
            ScaleRecord(
                kind="down",
                worker_id=worker_id,
                window_index=self.window_index,
                buckets_migrated=len(buckets),
                entries_migrated=sum(len(released.entries) for released in buckets),
            )
        )

    # -- stealing (window-barrier, journaled) ------------------------------- #

    def _steal_round(self) -> None:
        """One steal round (:func:`repro.parallel.backend.run_steal_round`)
        over crash-recovering round trips.  With recovery configured every
        migration is journaled as soon as both halves were delivered, so a
        later recovery — in this very round included — replays it."""
        for record, adopt in run_steal_round(
            [view for view in self.views if view.worker_id not in self.departed],
            self._request,
        ):
            self.steal_records.append(record)
            if self.rel is not None:
                self.journal.append(_JournaledSteal(self.window_index, record, adopt))

    # -- checkpoint cadence ------------------------------------------------- #

    def _checkpoint_round(self) -> None:
        window_index = self.window_index
        checkpoint_dir = self.report.checkpoint_dir
        paths = {
            view.worker_id: os.path.join(
                checkpoint_dir,
                f"shard{view.worker_id:02d}-w{window_index:06d}{CHECKPOINT_SUFFIX}",
            )
            for view, policy in zip(self.views, self.policies)
            if not view.drained and policy.due(window_index, view.clock_ms)
        }
        if not paths:
            return
        # Each shard serialises and writes its own .lrcp file, so
        # checkpoint I/O runs concurrently across worker processes.  The
        # coordinator's own state needs no file: recovery rebuilds a shard
        # from its task, its checkpoint and the in-memory journal.
        self._post(
            {worker_id: CaptureCheckpoint(path, window_index) for worker_id, path in paths.items()}
        )
        captures, crashed = self._collect(paths)
        for written in captures:
            self.latest[written.worker_id] = (paths[written.worker_id], written)
            self.report.checkpoints_written += 1
            self.report.checkpoint_bytes += written.byte_size
            self.report.checkpoint_real_s += written.real_elapsed_s
            self.report.checkpoint_marks.append(written)
        # An unplanned death while checkpointing: skip the capture and
        # recover; the next barrier retries.
        for worker_id in crashed:
            self._recover(worker_id)


__all__ = [
    "CHANNEL_KINDS",
    "ChannelCrashed",
    "InlineChannel",
    "ProcessChannel",
    "ShardChannel",
    "ShardCoordinator",
]
