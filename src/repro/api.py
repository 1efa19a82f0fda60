"""The blessed public API: ``search`` locally, ``connect`` to a service.

Running a search means composing :class:`~repro.core.search.SearchConfig`
(candidate space), :class:`~repro.core.evaluator.EvaluationConfig`
(training), :class:`~repro.core.runtime.RuntimeConfig` (fault tolerance /
persistence / sharding), and an :class:`~repro.parallel.executor.Executor`.
This module is the stable facade over all of it — two entry points, one
flat config:

>>> from repro.api import Config, search
>>> result = search("er:2", depths=1, config=Config(k_min=2, steps=20))

runs Algorithm 1 in-process, and

>>> client = connect("http://localhost:8787")          # doctest: +SKIP
>>> job_id = client.submit("er:2", depths=1)           # doctest: +SKIP
>>> result = client.wait(job_id)                       # doctest: +SKIP

submits the same sweep to a long-running search service (``python -m
repro serve``), where it shares a worker fleet and a multi-tenant result
cache with every other live sweep. Both paths return the same
:class:`~repro.core.results.SearchResult`.

**One mapping.** :class:`Config` is the only place a sweep setting is
declared (default, help, choices) and its ``*_config`` methods are the only
mapping onto the internal configs; ``repro search`` generates its flags
from ``fields(Config)`` and calls :func:`search`, the service builds a
``Config`` from the submit payload. A service owns its fleet and store, so
it ignores :data:`SERVICE_IGNORED`; local :func:`search` never reads
``tenant``/``priority``. A rejected setting raises :class:`ConfigError`
with one message, whichever front-end it came through.

**Stability.** ``search``, ``connect``, :class:`Config`, and the
:class:`Client` methods are the supported surface: additions land as new
keyword arguments with defaults, and the wire format they speak is
versioned (see :mod:`repro.core.results`). The deep imports older code
uses (``repro.search_mixer``, ``repro.core.*``) keep working — the facade
delegates to them — but their signatures may grow faster.

**Workloads.** Anywhere a workload is accepted, pass either a sequence of
:class:`~repro.graphs.generators.Graph` objects or a compact dataset spec
string ``"family[:count[:seed]]"`` — e.g. ``"er"``, ``"er:3"``,
``"regular:4:2023"``, ``"wmaxcut:2"``, ``"maxsat:3"``, ``"ising:2"`` —
naming a seeded dataset family. Each family implies a problem from the
:mod:`repro.workloads` registry (``er``/``regular`` → MaxCut, the others
their namesakes); the implied key is threaded into the config
automatically, or validated against an explicitly-set ``Config.workload``.
"""

from __future__ import annotations

import json
import random
import select
import threading
import time
from collections.abc import Callable, Sequence
from contextlib import ExitStack
from dataclasses import Field, asdict, dataclass, field, fields, replace
from functools import lru_cache, partial
from typing import Any
from urllib.parse import urlsplit

from repro.core.alphabet import ENUMERATION_MODES
from repro.core.cache import ResultCache
from repro.core.evaluator import ENGINES, INIT_STRATEGIES, METRICS, EvaluationConfig
from repro.core.results import SearchResult
from repro.core.runtime import RuntimeConfig
from repro.core.search import SearchConfig, search_mixer
from repro.graphs.datasets import DATASET_FAMILIES
from repro.graphs.generators import Graph
from repro.graphs.io import graph_from_dict, graph_to_dict
from repro.optimizers import BATCH_MODES, TRAINING_OPTIMIZERS
from repro.parallel.executor import Executor, available_cores, leased_fleet
from repro.simulators.backends import available_array_backends
from repro.surrogate.config import SurrogateConfig
from repro.utils.validation import ConfigError, check_choice
from repro.workloads import available_workloads

__all__ = [
    "Config",
    "ConfigError",
    "Client",
    "SERVICE_IGNORED",
    "ServiceError",
    "search",
    "connect",
    "resolve_workload",
    "resolve_workload_spec",
    "reconcile_workload",
    "workload_to_wire",
]

#: what a search service ignores in a submitted :class:`Config`: it runs
#: every sweep on its own fleet, against its own shared store
SERVICE_IGNORED = (
    "workers", "shards", "shard_index", "cache_dir", "cache_max_entries", "resume",
)

def _setting(
    default: Any,
    help: str,
    choices: Sequence[str] | Callable[[], Sequence[str]] | None = None,
    *,
    cli: tuple[str, ...] = ("search",),
    **cli_overrides: Any,
) -> Any:
    """One :class:`Config` field. ``choices`` is a registry tuple, or a
    callable for registries that grow at run time; ``cli`` names the
    subcommands that get a ``--flag`` for it (``()`` = facade-only);
    ``cli_default`` / ``cli_choices`` record where ``repro search`` has
    always differed from the facade, so no command line changes meaning."""
    metadata = {"help": help, "choices": choices, "cli": cli, **cli_overrides}
    return field(default=default, metadata=metadata)


#: a training setting: all ``repro evaluate`` needs to score one mixer
_training = partial(_setting, cli=("search", "evaluate"))


def choices_of(setting: Field) -> tuple[str, ...] | None:
    """The values a :class:`Config` field accepts right now (``None`` =
    unconstrained), read from its live registry."""
    choices = setting.metadata["choices"]
    return tuple(choices() if callable(choices) else choices) if choices else None


@dataclass(frozen=True)
class Config:
    """Every setting of a sweep, declared once.

    Groups map onto the internal config objects (candidate space →
    ``SearchConfig``, training → ``EvaluationConfig``, execution →
    ``RuntimeConfig`` + executor), so anything expressible here behaves
    identically through the deep API. All fields are JSON-safe scalars:
    a ``Config`` round-trips through :meth:`to_dict`/:meth:`from_dict`
    and is the ``config`` object of the service's submit payload.
    Constructing one checks choices and ``k_min <= k_max``; the numeric
    ranges are the internal configs' own rules, raised by the mapping methods.
    """

    # -- candidate space ---------------------------------------------------
    k_min: int = _setting(1, "minimum gates per mixer combination", cli_default=2)
    k_max: int = _setting(2, "maximum gates per mixer combination")
    mode: str = _setting(
        "combinations", "candidate enumeration convention", tuple(ENUMERATION_MODES),
        # multisets enumerates too, but --mode has never offered it
        cli_choices=("combinations", "sequences", "permutations"),
    )
    num_samples: int | None = _setting(
        None, "cap on candidates per depth (None = the whole space)", cli=()
    )

    # -- training ----------------------------------------------------------
    optimizer: str = _training(
        "cobyla", "classical trainer (default: cobyla, the paper's)", TRAINING_OPTIMIZERS
    )
    steps: int = _training(60, "optimizer evaluation budget per candidate")
    restarts: int = _training(
        1, "independent optimizer restarts per graph; batch-native optimizers "
        "train them as one batch", cli_default=2,
    )
    batch_mode: str = _training(
        "auto", "restart training: auto batches whenever the optimizer supports "
        "it; serial forces one run per restart", BATCH_MODES,
    )
    seed: int = _training(0, "base seed for all stochastic draws")
    engine: str = _training(
        "compiled", "simulation engine (default: compiled fast path)", ENGINES
    )
    array_backend: str = _training(
        "numpy", "array library behind the compiled engine: numpy (default), "
        "mock_gpu (CPU stand-in with device-cost accounting), cupy when "
        "installed; unregistered backends are rejected", available_array_backends,
    )
    metric: str = _training(
        "energy", "reward metric: the trained energy, or the expected best cut "
        "over --shots measurements", METRICS, cli_default="best_sampled",
    )
    shots: int = _training(128, "measurement budget for best_sampled", cli_default=64)
    workload: str = _training(
        "maxcut", "problem from the workloads registry; a dataset family implies "
        "its own (er/regular -> maxcut), so set it only for raw graphs",
        available_workloads, cli_default=None,
    )
    init_strategy: str = _training(
        "uniform", "optimizer initialization: uniform (the paper's), ramp, or "
        "interp (warm-start each depth from the previous depth's parameters)",
        INIT_STRATEGIES,
    )

    # -- local execution / persistence (SERVICE_IGNORED) -------------------
    workers: int = _setting(0, "worker processes: 0 = serial, -1 = all cores")
    shards: int = _setting(
        1, "partition each depth's candidate bag across this many shards "
        "(Fig. 2's outer level); with --workers the pool is split one per "
        "shard (at least one process each, so --workers 2 --shards 3 runs "
        "three), and a dead shard's candidates migrate to the survivors",
    )
    shard_index: int | None = _setting(
        None, "run ONLY this shard (0-based) of every depth in this process; "
        "launch one process per index with the same --shards and a shared "
        "--cache-dir, then merge with a final run (all cache hits)",
    )
    cache_dir: str | None = _setting(
        None, "persist candidate results + checkpoints here; repeat runs become lookups"
    )
    cache_max_entries: int | None = _setting(
        None, "LRU bound on the result cache (None = unbounded)", cli=()
    )
    resume: bool = _setting(False, "restore finished depths from the checkpoint in --cache-dir")

    # -- fault tolerance ---------------------------------------------------
    retries: int = _setting(2, "extra attempts per candidate on worker failure")
    job_timeout: float | None = _setting(None, "per-candidate wall-clock limit in seconds")

    # -- surrogate-assisted ranking ----------------------------------------
    surrogate: bool = _setting(
        False, "surrogate-assisted search: learn a ranker from completed "
        "evaluations and evaluate only the predicted-top slice of each "
        "depth's candidates",
    )
    surrogate_keep: float = _setting(
        0.5, "fraction of each depth's candidate pool forwarded to real "
        "evaluation once the ranker is trained (default: 0.5)",
    )
    explore_floor: float = _setting(
        0.1, "fraction of the pool evaluated regardless of predicted rank — a seeded "
        "uniform sample; 1.0 degenerates to the unfiltered search (default: 0.1)",
    )

    # -- service-side scheduling (never read by local ``search``) ----------
    tenant: str = _setting("default", "fairness / quota bucket of this sweep", cli=())
    priority: int = _setting(
        0, "queue priority (higher claims first within the tenant's share)", cli=()
    )

    def __post_init__(self) -> None:
        for setting in fields(self):
            choices = choices_of(setting)
            if choices is not None:
                label = setting.name.replace("_", " ")
                _checked(check_choice, getattr(self, setting.name), label, choices)
        if self.k_min > self.k_max:
            raise ConfigError(
                f"k_min must be <= k_max, got k_min={self.k_min}, k_max={self.k_max}"
            )
        if self.workers < -1:
            raise ConfigError(
                f"workers must be 0/1 (serial), N processes or -1 (all cores), got {self.workers}"
            )

    # -- mapping onto the internal configs ---------------------------------

    def evaluation_config(self) -> EvaluationConfig:
        return _checked(
            EvaluationConfig,
            optimizer=self.optimizer,
            max_steps=self.steps,
            restarts=self.restarts,
            batch_mode=self.batch_mode,
            seed=self.seed,
            engine=self.engine,
            array_backend=self.array_backend,
            metric=self.metric,
            shots=self.shots,
            workload=self.workload,
            init_strategy=self.init_strategy,
        )

    def search_config(self, depths: int) -> SearchConfig:
        return _checked(
            SearchConfig,
            p_max=int(depths),
            k_min=self.k_min,
            k_max=self.k_max,
            mode=self.mode,
            num_samples=self.num_samples,
            seed=self.seed,
            evaluation=self.evaluation_config(),
            surrogate=_checked(
                SurrogateConfig,
                enabled=self.surrogate,
                keep_fraction=self.surrogate_keep,
                explore_floor=self.explore_floor,
                seed=self.seed,
            ),
        )

    def runtime_config(self) -> RuntimeConfig:
        return _checked(
            RuntimeConfig,
            cache_dir=self.cache_dir,
            resume=self.resume,
            max_retries=self.retries,
            job_timeout=self.job_timeout,
            shards=self.shards,
            shard_index=self.shard_index,
            cache_max_entries=self.cache_max_entries,
        )

    def for_service(self) -> Config:
        """This sweep as a service runs it: the fleet and the store are the
        service's, so every :data:`SERVICE_IGNORED` setting reads as its
        default."""
        defaults = {f.name: f.default for f in fields(self) if f.name in SERVICE_IGNORED}
        return replace(self, **defaults)

    # -- wire format -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> Config:
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(
                f"unknown config field(s) {sorted(unknown)}; "
                f"accepted: {sorted(known)}"
            )
        return cls(**data)


def _checked(build: Callable[..., Any], *args: Any, **settings: Any) -> Any:
    """Construct an internal config (or a dataset); what its validation
    rejects is a configuration error, reported under the rule's own
    message."""
    try:
        return build(*args, **settings)
    except (ValueError, TypeError) as error:  # TypeError: a setting of the wrong type
        raise ConfigError(str(error)) from error


# -- workloads -------------------------------------------------------------


def resolve_workload_spec(
    workload: str | Sequence[Graph] | Sequence[dict],
) -> tuple[str | None, list[Graph]]:
    """Resolve a workload into ``(implied problem key, graphs)``.

    Accepts a dataset spec string (``"er"``, ``"er:3"``, ``"maxsat:3:2023"``),
    a sequence of :class:`Graph` objects, or a sequence of graph wire dicts
    (what :func:`workload_to_wire` produces — the service's submit payload).
    Spec strings imply a problem key from their family; raw graphs and wire
    dicts imply nothing (key ``None``) — ``Config.workload`` governs them.
    """
    if isinstance(workload, str):
        family, *numbers = workload.split(":")
        try:
            key = DATASET_FAMILIES[family][0]
            # an unknown family, a third number or a non-integer all land here
            count, seed = [int(n) for n in numbers] + [3, 2023][len(numbers):]
        except (KeyError, ValueError):
            raise ConfigError(
                f"unknown workload spec {workload!r}; expected "
                f"'family[:count[:seed]]' with family in {sorted(DATASET_FAMILIES)}"
            ) from None
        return key, list(_dataset(family, count, seed))
    graphs = list(workload)
    if not graphs:
        raise ConfigError("workload must contain at least one graph")
    if isinstance(graphs[0], Graph):
        return None, graphs  # type: ignore[return-value]
    return None, [graph_from_dict(g) for g in graphs]  # type: ignore[arg-type]


#: dataset specs whose graphs (frozen, so shareable) stay memoized
SPEC_MEMO = 64


@lru_cache(maxsize=SPEC_MEMO)
def _dataset(family: str, count: int, seed: int) -> tuple[Graph, ...]:
    """A spec's graphs, made once per ``(family, count, seed)``; a rejected count raises."""
    return tuple(_checked(DATASET_FAMILIES[family][1], count, dataset_seed=seed))


def resolve_workload(workload: str | Sequence[Graph] | Sequence[dict]) -> list[Graph]:
    """Normalize any accepted workload form into a list of graphs
    (the graphs half of :func:`resolve_workload_spec`)."""
    return resolve_workload_spec(workload)[1]


def reconcile_workload(
    config: Config, implied: str | None, *, explicit: bool = False
) -> Config:
    """Fold a family-implied problem key into the config.

    An implied key fills in the default ``workload="maxcut"`` silently and
    is a no-op when it matches an explicit setting; a *conflicting*
    explicit setting is an error — evaluating, say, the Ising oracle over
    a Max-k-SAT dataset would produce meaningless ratios. A caller that
    knows the key was spelled out (the CLI's ``--workload``) passes
    ``explicit`` so that a spelled-out ``maxcut`` conflicts too.
    """
    if implied is None or implied == config.workload:
        return config
    if config.workload == "maxcut" and not explicit:
        return replace(config, workload=implied)
    raise ConfigError(
        f"workload spec implies problem {implied!r} but the config "
        f"explicitly sets workload={config.workload!r}; drop one of the two"
    )


def workload_to_wire(workload: str | Sequence[Graph] | Sequence[dict]) -> list[dict]:
    """The JSON form of a workload: exact graph content, so the service
    evaluates precisely what the client resolved (specs are expanded
    client-side; server and client can disagree about nothing)."""
    return [graph_to_dict(g) for g in resolve_workload(workload)]


# -- the two entry points ---------------------------------------------------


def search(
    workload: str | Sequence[Graph],
    *,
    depths: int = 2,
    config: Config | None = None,
    executor: Executor | Sequence[Executor] | None = None,
    cache: ResultCache | None = None,
) -> SearchResult:
    """Run Algorithm 1 in-process and return the full result.

    Parameters
    ----------
    workload:
        Graphs to optimize over, or a dataset spec string (``"er:3"``).
    depths:
        QAOA depths swept (``p = 1..depths``).
    config:
        Flat :class:`Config`; defaults are a small fast sweep.
    executor:
        Override the worker fleet. Otherwise ``config.workers`` decides:
        0/1 serial, N processes (-1 = all cores) — one pool, or with
        ``shards > 1`` one pool per shard, each a lane of the sweep's one
        scheduler and its own failure domain, like one pool per node
        (remainder to the first shards, at least one process each:
        ``workers=2, shards=3`` runs three). A sequence of executors is one
        lane each. The processes are a
        :func:`~repro.parallel.executor.leased_fleet`, parked for the next call.
    cache:
        Externally-owned result store (advanced; the service passes its
        shared multi-tenant cache here).
    """
    config = config or Config()
    implied, graphs = resolve_workload_spec(workload)
    config = reconcile_workload(config, implied)
    search_cfg = config.search_config(depths)
    runtime_cfg = config.runtime_config()
    workers = available_cores() if config.workers == -1 else config.workers
    fleet: Executor | Sequence[Executor] | None = executor
    with ExitStack() as stack:
        if executor is None and workers > 1:
            if config.shards > 1 and config.shard_index is None:
                base, extra = divmod(workers, config.shards)
                shape = [max(1, base + (i < extra)) for i in range(config.shards)]
                fleet = stack.enter_context(leased_fleet(shape))
            else:
                fleet = stack.enter_context(leased_fleet([workers]))[0]
        return search_mixer(
            graphs, search_cfg, executor=fleet, runtime=runtime_cfg, cache=cache
        )


def connect(url: str, *, timeout: float = 10.0) -> Client:
    """Open a client for a running search service (``repro serve``)."""
    return Client(url, timeout=timeout)


# -- the service client -----------------------------------------------------


class ServiceError(RuntimeError):
    """The service rejected a request or a submitted sweep failed."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"service returned {status}: {message}")
        self.status = status


class Client:
    """Thin JSON/HTTP client for the search service — stdlib only.

    One instance per service URL; methods map one-to-one onto endpoints
    (``submit`` → POST /submit, ``status`` → GET /status/{id}, ``result``
    → GET /result/{id}, ``healthz`` → GET /healthz). :meth:`wait` polls
    status until the sweep finishes and returns the parsed result.

    Each calling thread keeps one connection open between requests. A GET
    that fails on a connection the server had dropped (idle timeout,
    restart) is re-sent once on a fresh one; a POST is never written
    twice — a restart cannot enqueue a sweep twice — so it surfaces the
    ``OSError`` instead. Rejections raise :class:`ServiceError`.
    """

    def __init__(self, url: str, *, timeout: float = 10.0) -> None:
        self.url = url.rstrip("/")
        self.timeout = timeout
        self._target = urlsplit(self.url)
        #: ``.connection``: the calling thread's kept-alive connection
        self._local = threading.local()

    # -- endpoints ---------------------------------------------------------

    def submit(
        self,
        workload: str | Sequence[Graph],
        *,
        depths: int = 2,
        config: Config | None = None,
        tenant: str | None = None,
        priority: int | None = None,
    ) -> str:
        """Queue a sweep; returns its job id immediately.

        ``tenant`` and ``priority`` override the config's values; a full
        queue surfaces as :class:`ServiceError` with ``status == 429``
        (back off for the response's ``Retry-After`` and resubmit).
        """
        config = config or Config()
        # Specs are expanded client-side into graph dicts, so the family
        # string (and the problem it implies) would be lost on the wire —
        # fold the implied workload key into the config before serializing.
        implied, graphs = resolve_workload_spec(workload)
        config = reconcile_workload(config, implied)
        payload = {
            "workload": [graph_to_dict(g) for g in graphs],
            "depths": int(depths),
            "config": config.to_dict(),
            "tenant": config.tenant if tenant is None else str(tenant),
            "priority": config.priority if priority is None else int(priority),
        }
        return str(self._request("POST", "/submit", payload)["id"])

    def cancel(self, job_id: str) -> str:
        """Cancel a job; returns its disposition (``"cancelled"`` for a
        queued job, ``"cancelling"`` while a running sweep stops
        cooperatively, or the unchanged terminal state)."""
        return str(self._request("POST", f"/cancel/{job_id}")["state"])

    def status(self, job_id: str) -> dict:
        """Job lifecycle record: state, timestamps, error if failed."""
        return self._request("GET", f"/status/{job_id}")

    def result(self, job_id: str) -> SearchResult:
        """The finished sweep's result (raises unless state is done)."""
        return SearchResult.from_dict(self._request("GET", f"/result/{job_id}"))

    def healthz(self) -> dict:
        """Liveness + fleet/cache/queue counters."""
        return self._request("GET", "/healthz")

    def metrics(self) -> str:
        """The raw Prometheus text exposition of ``GET /metrics``.

        Returned as text, not JSON — feed it to a scraper or grep it for
        a series; the catalog is in ``docs/observability.md``.
        """
        return self._request_text("GET", "/metrics")

    def progress(self, job_id: str) -> dict | None:
        """The ``progress`` field of ``GET /status/{id}``: candidates
        done/total per depth, percent, live throughput. ``None`` until
        the serving process has started running the job (or when another
        process on a shared service directory ran it)."""
        return self.status(job_id).get("progress")

    def wait(
        self,
        job_id: str,
        *,
        timeout: float = 300.0,
        poll: float = 0.02,
        poll_cap: float = 5.0,
    ) -> SearchResult:
        """Block until the sweep completes; returns its result.

        Polls with exponential backoff from ``poll`` up to ``poll_cap``
        seconds, jittered ±25% so a herd of waiting clients spreads out
        instead of thundering the service in lockstep. Raises
        :class:`ServiceError` if the sweep failed (including the job's
        recorded error text) or was cancelled, ``TimeoutError`` if it did
        not finish within ``timeout`` seconds.
        """
        deadline = time.monotonic() + timeout
        delay = max(poll, 0.001)
        while True:
            state = self.status(job_id)
            if state["state"] == "done":
                return self.result(job_id)
            if state["state"] == "failed":
                raise ServiceError(
                    200, f"job {job_id} failed: {state.get('error') or 'sweep failed'}"
                )
            if state["state"] == "cancelled":
                raise ServiceError(200, f"job {job_id} was cancelled")
            now = time.monotonic()
            if now >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {state['state']} after {timeout}s"
                )
            jittered = delay * random.uniform(0.75, 1.25)
            time.sleep(min(jittered, deadline - now))
            delay = min(delay * 2.0, poll_cap)

    # -- transport ---------------------------------------------------------

    def _request(self, method: str, path: str, payload: dict | None = None) -> dict:
        return json.loads(self._request_text(method, path, payload))

    def _request_text(
        self, method: str, path: str, payload: dict | None = None
    ) -> str:
        # here, not at module level: most processes that import this module
        # never talk to a service, and http.client brings ssl and email.parser
        import http.client

        body = None if payload is None else json.dumps(payload).encode("utf-8")
        connection = getattr(self._local, "connection", None)
        if connection is None:
            secure = self._target.scheme == "https"
            factory = http.client.HTTPSConnection if secure else http.client.HTTPConnection
            connection = self._local.connection = factory(
                self._target.hostname, self._target.port, timeout=self.timeout
            )
        while True:
            # An idle socket that is readable holds EOF: the server hung up.
            reused = connection.sock is not None and not select.select(
                [connection.sock], [], [], 0
            )[0]
            if not reused:
                connection.close()  # the request below opens a fresh socket
            try:
                connection.request(
                    method, self._target.path + path, body,
                    {"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                text = response.read().decode("utf-8", errors="replace")
                break
            except (OSError, http.client.HTTPException) as error:
                connection.close()
                if reused and method == "GET" and isinstance(error, ConnectionError):
                    continue  # it died under us: once more, on a fresh socket
                if isinstance(error, OSError):
                    raise
                raise ConnectionError(f"{type(error).__name__}: {error}") from error
        if 200 <= response.status < 300:
            return text
        try:
            text = json.loads(text).get("error", text)
        except (json.JSONDecodeError, AttributeError):
            pass
        raise ServiceError(response.status, text)
