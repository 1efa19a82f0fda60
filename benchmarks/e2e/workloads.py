"""The five workloads: what each runs, and the closed loops that drive them.

Every workload is a closed loop — a caller issues its next sweep when the
previous one returned — over public entry points only (``repro.api.search``,
``repro.api.connect``/``Client``, ``python -m repro serve``). Inputs come
from the run's seed: graphs from ``"<family>:<count>:<seed>"``, sweep *i*
of a phase from ``Config.seed = seed + i``. The program sees only those
specs and configs.

Phases a workload records (by name, in ``Recorder.sweeps``):

``fresh``   sweeps whose candidates are all unseen — ``sweep_s`` and the rates
``warm``    re-sweeps of a spec whose candidates are all stored — ``warm_sweep_s``
``resume``  ``resume=True`` re-sweeps (``wide_cached``)
``serial``  the ``workers=0`` twin of a ``procs2`` sweep
``solo`` / ``dedup``  service phases that feed per-layer metrics and checks
"""

from __future__ import annotations

import pickle
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

from e2e import check, service, speed

import repro.api as api
from repro.api import Config, ServiceError
from repro.core.evaluator import classical_optima
from repro.core.results import SearchResult
from repro.parallel.executor import MultiprocessingExecutor

__all__ = ["WORKLOADS", "Recorder", "Sweep", "SweepSpec", "fixed", "time_box"]

#: warm (and resume) re-sweeps per timed stretch (per client, for the service)
WARM_REPEATS = 10
#: warm stretches of a workload that has a single warm phase; ``wide_cached``
#: has one warm and one resume stretch in every round instead
WARM_BLOCKS = 5
#: closed-loop clients of the service workload (= cores of the reference box)
CLIENTS = 2
#: fixed status poll of the service clients; ``Client.wait`` backs off from
#: 0.2 s with jitter, which would quantise the latency being measured
POLL_SECONDS = 0.010
#: upper end of the think time before each warm re-submit
THINK_SECONDS = 0.050
#: a service sweep still unfinished after this long counts as failed
SWEEP_TIMEOUT = 60.0
#: sweeps of the service's solo phase (``Client.wait()`` with its defaults)
SOLO_SWEEPS = 3
#: a time-boxed phase never stops before this many sweeps
MIN_SWEEPS = 3


def timed_command(*argv: str) -> float:
    """Wall of one child interpreter run to completion, output discarded."""
    start = perf_counter()
    subprocess.run(
        [sys.executable, *argv], env=service.child_env(), check=True, timeout=120,
        stdout=subprocess.DEVNULL,
    )
    return perf_counter() - start


def cli_startup_s() -> float:
    """``python -m repro --help``: interpreter start plus the CLI's imports."""
    return statistics.median(timed_command("-m", "repro", "--help") for _ in range(3))


# -- what a run records -------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    """One sweep as the program receives it."""

    workload: str
    depths: int
    config: Config


@dataclass
class Sweep:
    """One completed sweep: call (or ``POST /submit`` sent) to result in hand."""

    spec: SweepSpec
    wall: float
    result: SearchResult
    #: final ``/status`` record and poll count (service sweeps)
    status: dict | None = None
    polls: int = 0
    #: wall-clock time the result was in hand (``time.time()``), comparable
    #: with the service's ``finished_at``
    returned_at: float = 0.0
    #: machine slowdown while it ran (see :mod:`e2e.speed`), set by the
    #: bracket it ran in
    slowdown: float = 1.0

    @property
    def corrected(self) -> float:
        """``wall`` in reference-box seconds."""
        return self.wall / self.slowdown

    @property
    def nfev(self) -> int:
        return sum(e.nfev for d in self.result.depth_results for e in d.evaluations)


@dataclass
class Recorder:
    """Everything one run of one workload observed."""

    sweeps: dict[str, list[Sweep]] = field(default_factory=lambda: defaultdict(list))
    #: the timed stretches of each phase (see :meth:`bracket`), each with
    #: the sweeps it held in ``stretch.sweeps``
    stretches: dict[str, list[speed.Stretch]] = field(default_factory=lambda: defaultdict(list))
    #: client-side round trips by endpoint, seconds
    round_trips: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    #: one-off measurements taken beside the sweeps, by per-layer metric name
    extras: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    #: the newest stretch; one that follows it at once shares its reading
    _previous: speed.Stretch | None = None

    def record(self, phase: str, sweep: Sweep) -> Sweep:
        with self._lock:
            self.attempted += 1
            self.sweeps[phase].append(sweep)
        return sweep

    def fail(self, what: str) -> None:
        with self._lock:
            self.attempted += 1
            self.failures.append(what)

    def check(self, what: str, problem: str | None) -> None:
        """Count one correctness check; ``problem`` is ``None`` when it held."""
        with self._lock:
            self.attempted += 1
            if problem is not None:
                self.failures.append(f"{what}: {problem}")

    def walls(self, phase: str) -> list[float]:
        """Sweep walls as the clock read them."""
        return [sweep.wall for sweep in self.sweeps[phase]]

    @contextmanager
    def bracket(self, phase: str, *, cpu_bound: bool = True):
        """A stretch of timed work between two machine-speed readings; the
        sweeps it adds to ``phase`` get the stretch's slowdown."""
        mark = len(self.sweeps[phase])
        before = self._previous.handover() if self._previous is not None else None
        with speed.Stretch(cpu_bound=cpu_bound, before=before) as stretch:
            yield
        self._previous = stretch
        stretch.sweeps = self.sweeps[phase][mark:]
        for sweep in stretch.sweeps:
            sweep.slowdown = stretch.slowdown
        self.stretches[phase].append(stretch)

    def steady(self, phase: str) -> tuple[list[Sweep], float]:
        """The phase's sweeps that ran at one machine speed, and the summed
        wall (reference-box seconds) of the stretches that held them."""
        kept = speed.steady(self.stretches[phase])
        return [s for stretch in kept for s in stretch.sweeps], sum(s.wall for s in kept)


def time_box(seconds: float) -> Callable[[list[float]], bool]:
    """``more(walls)``: go again while another sweep of median length still
    fits before the deadline (and until ``MIN_SWEEPS`` are in)."""
    deadline = perf_counter() + seconds

    def more(walls: list[float]) -> bool:
        if len(walls) < MIN_SWEEPS:
            return True
        return perf_counter() + statistics.median(walls) <= deadline

    return more


def fixed(count: int) -> Callable[[list[float]], bool]:
    """``more(walls)`` for the traced pass: exactly ``count`` sweeps."""
    return lambda walls: len(walls) < count


# -- in-process workloads -----------------------------------------------------


def timed_search(rec: Recorder, phase: str, spec: SweepSpec) -> Sweep | None:
    """One ``api.search`` call on the clock; a raise is a failed operation."""
    start = perf_counter()
    try:
        result = api.search(spec.workload, depths=spec.depths, config=spec.config)
    except Exception as error:  # noqa: BLE001 - any raise is the failure being counted
        rec.fail(f"{phase} sweep raised {type(error).__name__}: {error}")
        return None
    return rec.record(phase, Sweep(spec, perf_counter() - start, result))


@dataclass(frozen=True)
class InProcess:
    """A workload driven through ``repro.api.search`` in this process."""

    name: str
    family: str
    depths: int
    config: Config
    #: fixed sweep count of the traced pass (rounds, for ``wide_cached``)
    traced_count: int
    #: every fresh sweep writes a cache of its own, re-read by warm and
    #: resume sweeps (``wide_cached``); otherwise fresh sweeps run without a
    #: cache and one extra cached sweep feeds the warm phase
    rounds: bool = False

    #: callers with a sweep in flight at once
    concurrency = 1

    @property
    def worker_processes(self) -> bool:
        return self.config.workers > 1

    @property
    def fleet(self) -> int:
        """Workers a sweep's candidates are spread over."""
        return max(self.config.workers, 1)

    @property
    def cache_phases(self) -> tuple[str, ...]:
        """Phases whose sweeps look candidates up in a store."""
        return ("fresh", "warm", "resume") if self.rounds else ("cached", "warm")

    def peak_rss_mb(self) -> float:
        """Max RSS of this process, where the sweeps ran, plus that of its
        largest child when sweeps fork worker processes."""
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if self.worker_processes:
            rss += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return rss / 1024.0

    def spec(self, seed: int, index: int, **overrides) -> SweepSpec:
        config = replace(self.config, seed=seed + index, **overrides)
        return SweepSpec(f"{self.family}:{seed}", self.depths, config)

    # -- set-up ------------------------------------------------------------

    def warm_up(self, seed: int) -> None:
        """Dataset generation plus one depth-1 sweep: fills imports, lazy
        tables and (for ``procs2``) forks a pool once."""
        spec = self.spec(seed, -1)
        api.search(spec.workload, depths=1, config=spec.config)

    def setup_once(self, seed: int, tmp: Path) -> float:
        """A complete cold set-up in a fresh interpreter, timed from spawn
        to exit: interpreter start, importing ``repro``, :meth:`warm_up`."""
        return timed_command("-m", "e2e.setup_probe", self.name, str(seed))

    @contextmanager
    def open(self, seed: int, tmp: Path, *, traced: bool = False):
        self.warm_up(seed)
        yield None

    # -- the loop ----------------------------------------------------------

    def drive(
        self, env, seed: int, budget, rec: Recorder, phase, tmp: Path,
        *, layer_probes: bool = False,
    ) -> None:
        """Run the phases. ``budget()`` starts the clock (or the count) of
        the fresh phase and returns its ``more(walls)`` predicate; the
        phases after it are fixed-size. ``layer_probes`` adds the one-off
        measurements that only per-layer metrics use."""
        if self.rounds:
            self._drive_rounds(seed, budget(), rec, phase, tmp)
        else:
            self._drive_plain(seed, budget(), rec, phase, tmp)
        if layer_probes and self.worker_processes:
            self._probe_parallel_layers(seed, rec)

    def _probe_parallel_layers(self, seed: int, rec: Recorder) -> None:
        spec = self.spec(seed, 0)
        graphs = api.resolve_workload(spec.workload)
        evaluation = spec.config.evaluation_config()
        job = (
            graphs, ("rx", "ry"), self.depths, evaluation,
            classical_optima(graphs, evaluation.workload), None,
        )
        rec.extras["parallel.payload_bytes"] = len(pickle.dumps(job))
        start = perf_counter()
        with MultiprocessingExecutor(self.fleet) as pool:
            pool.submit(int).result()
            rec.extras["parallel.pool_start_s"] = perf_counter() - start
        rec.extras["cli.startup_s"] = cli_startup_s()
        family, count = self.family.split(":")
        rec.extras["cli.search_wall_s"] = timed_command(
            "-m", "repro", "search", "--dataset", family, "--graphs", count,
            "--dataset-seed", str(seed), "--p-max", str(self.depths),
            "--k-min", str(spec.config.k_min), "--k-max", str(spec.config.k_max),
            "--mode", spec.config.mode, "--optimizer", spec.config.optimizer,
            "--steps", str(spec.config.steps), "--restarts", str(spec.config.restarts),
            "--metric", spec.config.metric, "--seed", str(spec.config.seed),
            "--workers", str(spec.config.workers),
        )

    def _drive_plain(self, seed, more, rec, phase, tmp) -> None:
        with phase("fresh"):
            while more(rec.walls("fresh")):
                with rec.bracket("fresh"):
                    timed_search(rec, "fresh", self.spec(seed, len(rec.sweeps["fresh"])))
        # The warm phase needs a filled store: one more sweep of spec 0, this
        # time with a cache. It repeats an (spec, Config) already run, so it
        # is also the repeat-equality check.
        cached = self.spec(seed, 0, cache_dir=str(tmp / "cache"))
        with phase("cached"):
            cold = timed_search(rec, "cached", cached)
        with phase("warm"):
            for _ in range(WARM_BLOCKS):
                with rec.bracket("warm"):
                    for _ in range(WARM_REPEATS):
                        timed_search(rec, "warm", cached)
        if cold is not None:
            first = rec.sweeps["fresh"][0]
            rec.check("repeat of sweep 0", check.differs(first.result, cold.result))
            for sweep in rec.sweeps["warm"]:
                rec.check("warm re-sweep", check.differs(cold.result, sweep.result))
        if self.worker_processes:
            with phase("serial"):
                serial = timed_search(rec, "serial", self.spec(seed, 0, workers=0))
            if serial is not None:
                first = rec.sweeps["fresh"][0]
                rec.check("workers=2 vs serial", check.differs(serial.result, first.result))

    def _drive_rounds(self, seed, more, rec, phase, tmp) -> None:
        round_walls: list[float] = []
        while more(round_walls):
            start = perf_counter()
            cache_dir = tmp / f"round{len(round_walls)}"
            spec = self.spec(seed, len(round_walls), cache_dir=str(cache_dir))
            resumed = SweepSpec(spec.workload, spec.depths, replace(spec.config, resume=True))
            with phase("fresh"), rec.bracket("fresh"):
                cold = timed_search(rec, "fresh", spec)
            for name, again in (("warm", spec), ("resume", resumed)):
                mark = len(rec.sweeps[name])
                with phase(name), rec.bracket(name):
                    for _ in range(WARM_REPEATS):
                        timed_search(rec, name, again)
                if cold is not None:
                    for sweep in rec.sweeps[name][mark:]:
                        rec.check(f"{name} re-sweep", check.differs(cold.result, sweep.result))
            shutil.rmtree(cache_dir, ignore_errors=True)
            round_walls.append(perf_counter() - start)


# -- the service workload -----------------------------------------------------


@dataclass(frozen=True)
class Service:
    """``python -m repro serve`` as a subprocess, driven by closed-loop
    clients over HTTP. The traced pass swaps the subprocess for the same
    service inside this process (see :mod:`e2e.service`)."""

    name: str
    family: str
    depths: int
    config: Config
    #: fresh rounds of the traced pass
    traced_count: int = 2

    concurrency = CLIENTS
    worker_processes = False
    fleet = service.WORKERS
    cache_phases = ("fresh", "warm", "dedup")

    def peak_rss_mb(self) -> float:
        """Max RSS of the largest child reaped so far: a server (the
        set-up probes' servers do less work than the measured one)."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def spec(self, seed: int, index: int, depths: int | None = None) -> SweepSpec:
        return SweepSpec(
            f"{self.family}:{seed}",
            self.depths if depths is None else depths,
            replace(self.config, seed=seed + index),
        )

    # -- set-up ------------------------------------------------------------

    def setup_once(self, seed: int, tmp: Path) -> float:
        """A complete set-up, timed from ``Popen`` until the warm-up sweep
        is back; stopping the server again is not part of it."""
        start = perf_counter()
        with self.open(seed, tmp):
            return perf_counter() - start

    @contextmanager
    def open(self, seed: int, tmp: Path, *, traced: bool = False):
        """A live service after one warm-up sweep (depth 1, a seed no timed
        sweep uses, so nothing timed finds its candidates stored)."""
        start = service.in_harness if traced else service.subprocess_server
        with start(tmp / "service") as server:
            warm_up = Recorder()
            service_sweep(server.client, warm_up, "warm_up", self.spec(seed, -1, depths=1))
            if warm_up.failures:
                raise RuntimeError(f"service warm-up failed: {warm_up.failures[0]}")
            yield server

    # -- the loop ----------------------------------------------------------

    def drive(
        self, server, seed: int, budget, rec: Recorder, phase, tmp: Path,
        *, layer_probes: bool = False,
    ) -> None:
        """Run the phases (see :meth:`InProcess.drive`); ``layer_probes``
        also adds the solo phase."""
        client = server.client
        # Config.seed offsets: fresh 0.. interleaved per client, dedup
        # 10000, solo 20000..; the warm-up used -1.
        if layer_probes:
            with phase("solo"):
                for i in range(SOLO_SWEEPS):
                    solo_sweep(client, rec, self.spec(seed, 20_000 + i))

        # Fresh rounds: each client submits one unseen spec, both wait for
        # theirs; the machine-speed readings fall in the gap between rounds.
        def fresh_round(index: int) -> None:
            run_clients(
                lambda k: service_sweep(client, rec, "fresh", self.spec(seed, CLIENTS * index + k))
            )

        more = budget()
        round_walls: list[float] = []
        with phase("fresh"):
            while more(round_walls):
                start = perf_counter()
                with rec.bracket("fresh"):
                    fresh_round(len(round_walls))
                round_walls.append(perf_counter() - start)

        finished = [sweep.spec for sweep in rec.sweeps["fresh"]]

        thinkers = [random.Random(seed + k) for k in range(CLIENTS)]

        def warm_client(k: int) -> None:
            for i in range(WARM_REPEATS):
                # Without a pause a client re-submits in step with the
                # service's own polling and every wait in the run is the
                # same length; seeded think time spreads the phases.
                time.sleep(thinkers[k].uniform(0.0, THINK_SECONDS))
                service_sweep(client, rec, "warm", finished[(CLIENTS * i + k) % len(finished)])

        with phase("warm"):
            for _ in range(WARM_BLOCKS):
                with rec.bracket("warm", cpu_bound=False):
                    run_clients(warm_client)
        by_spec = {sweep.spec: sweep.result for sweep in rec.sweeps["fresh"]}
        for sweep in rec.sweeps["warm"]:
            rec.check("warm re-submit", check.differs(by_spec[sweep.spec], sweep.result))

        # Both clients submit the same unseen spec at once: they must agree,
        # and should train each candidate once between them.
        unseen = self.spec(seed, 10_000)
        barrier = threading.Barrier(CLIENTS)

        def dedup_client(k: int) -> None:
            barrier.wait(timeout=SWEEP_TIMEOUT)
            service_sweep(client, rec, "dedup", unseen)

        with phase("dedup"):
            run_clients(dedup_client)
        pair = rec.sweeps["dedup"]
        if len(pair) == CLIENTS:
            rec.check("dedup pair", check.dedup_problem([s.result for s in pair]))

        # One service result against the in-process answer for the same spec.
        reference = rec.sweeps["fresh"][0]
        with phase("inproc"):
            twin = timed_search(rec, "inproc", reference.spec)
        if twin is not None:
            rec.check("service vs in-process", check.differs(twin.result, reference.result))
        if layer_probes:
            self._probe_service_layers(client, rec)

    def _probe_service_layers(self, client, rec: Recorder) -> None:
        walls, text = [], ""
        for _ in range(3):
            start = perf_counter()
            text = client.metrics()
            walls.append(perf_counter() - start)
        rec.extras["service.server.metrics_ms"] = statistics.median(walls) * 1e3
        series = "repro_executor_semaphore_wait_seconds"
        total = re.search(rf"^{series}_sum (\S+)$", text, re.MULTILINE)
        count = re.search(rf"^{series}_count (\S+)$", text, re.MULTILINE)
        if total and count and float(count.group(1)):
            rec.extras["parallel.async_executor.semaphore_wait_s"] = float(
                total.group(1)
            ) / float(count.group(1))
        rec.extras["cli.startup_s"] = cli_startup_s()


def run_clients(target: Callable[[int], object]) -> None:
    """Run ``target(k)`` on ``CLIENTS`` threads and wait for all of them. A
    client's unexpected exception is re-raised here."""
    with ThreadPoolExecutor(CLIENTS) as pool:
        for future in [pool.submit(target, k) for k in range(CLIENTS)]:
            future.result()


def service_sweep(client, rec: Recorder, phase: str, spec: SweepSpec) -> Sweep | None:
    """Submit, poll ``/status`` at a fixed interval, fetch the result."""
    trips = rec.round_trips

    def timed(endpoint: str, call, *args, **kwargs):
        start = perf_counter()
        try:
            return call(*args, **kwargs)
        finally:
            trips[endpoint].append(perf_counter() - start)

    start = perf_counter()
    polls = 0
    try:
        job = timed("submit", client.submit, spec.workload, depths=spec.depths, config=spec.config)
        while True:
            status = timed("status", client.status, job)
            polls += 1
            if status["state"] in ("done", "failed", "cancelled"):
                break
            if perf_counter() - start > SWEEP_TIMEOUT:
                raise TimeoutError(f"job {job} still {status['state']}")
            time.sleep(POLL_SECONDS)
        if status["state"] != "done":
            raise ServiceError(200, f"job {job} ended {status['state']}: {status.get('error')}")
        result = timed("result", client.result, job)
    except (ServiceError, TimeoutError, OSError) as error:
        rec.fail(f"{phase} sweep: {type(error).__name__}: {error}")
        return None
    wall = perf_counter() - start
    return rec.record(phase, Sweep(spec, wall, result, status, polls, time.time()))


def solo_sweep(client, rec: Recorder, spec: SweepSpec) -> Sweep | None:
    """One sweep the way the documentation shows it: ``submit`` then
    ``Client.wait()`` with its default back-off."""
    start = perf_counter()
    try:
        job = client.submit(spec.workload, depths=spec.depths, config=spec.config)
        result = client.wait(job, timeout=SWEEP_TIMEOUT)
        returned_at = time.time()
        status = client.status(job)
    except (ServiceError, TimeoutError, OSError) as error:
        rec.fail(f"solo sweep: {type(error).__name__}: {error}")
        return None
    wall = perf_counter() - start
    return rec.record("solo", Sweep(spec, wall, result, status, 0, returned_at))


# -- the table ----------------------------------------------------------------

_SPSA = Config(k_max=2, optimizer="spsa", steps=60)

WORKLOADS = {
    w.name: w
    for w in (
        InProcess("deep_spsa", "er:2", 3, _SPSA, traced_count=3),
        InProcess(
            "paper_cobyla", "er:1", 2, Config(k_max=2, optimizer="cobyla", steps=60),
            traced_count=2,
        ),
        InProcess(
            "wide_cached", "er:1", 2,
            Config(mode="sequences", k_max=3, optimizer="spsa", steps=10),
            traced_count=2, rounds=True,
        ),
        InProcess("procs2", "er:2", 3, replace(_SPSA, workers=2), traced_count=3),
        Service("service_mixed", "er:1", 2, _SPSA),
    )
}


def no_phase(_name: str):
    """Stand-in for ``Tracer.phase`` in untraced runs."""
    return nullcontext()
