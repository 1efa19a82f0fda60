"""Per-layer metrics: their names, what each should move, how each is taken.

Layers are the program's modules. Every number is taken from outside the
program: client-side timestamps, fields the results and ``/status`` already
carry, one-off probes of public entry points, or — the ``*_s`` self times
and per-call ``*_us``/``*_ms`` medians — spans of the traced pass.

``*_s`` totals and counts are **per fresh sweep** (the mean over the fresh
sweeps of the pass) unless the name says otherwise; per-call medians are
over every call of the pass, whatever the phase. A metric whose layer a
workload does not exercise reads 0.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from collections.abc import Iterable

from e2e.trace import Span, Tracer, self_times
from repro.api import resolve_workload

__all__ = ["LAYER_METRICS", "SpanTable", "layer_of", "per_layer"]

_SERIAL = ("deep_spsa", "paper_cobyla", "wide_cached")
_ALL = (*_SERIAL, "procs2", "service_mixed")
_BATCHED = ("deep_spsa", "procs2")
_SINGLE = ("paper_cobyla",)
_SERVICE = ("service_mixed",)

#: name -> (unit, better, end-to-end metric it should move, on which workloads)
LAYER_METRICS: dict[str, tuple[str, str, str, tuple[str, ...]]] = {
    "cli.startup_s": ("s", "lower", "setup_s", ("procs2", "service_mixed")),
    "cli.search_wall_s": ("s", "lower", "setup_s", ("procs2",)),
    "api.resolve_s": ("s", "lower", "warm_sweep_s", ("wide_cached",)),
    "api.client_wait_overshoot_s": ("s", "lower", "warm_sweep_s", _SERVICE),
    "workloads.classical_optimum_s": ("s", "lower", "warm_sweep_s", ("wide_cached",)),
    "core.runtime.self_s": ("s", "lower", "sweep_s", ("wide_cached",)),
    "core.runtime.self_us_per_candidate": ("us", "lower", "warm_sweep_s", ("wide_cached",)),
    "core.runtime.candidates": ("count", "higher", "candidates_per_s", ("wide_cached",)),
    "core.runtime.cache_hits": ("count", "higher", "warm_sweep_s", ("wide_cached",)),
    "core.runtime.cache_misses": ("count", "lower", "sweep_s", ("wide_cached",)),
    "core.cache.get_us": ("us", "lower", "warm_sweep_s", ("wide_cached",)),
    "core.cache.put_us": ("us", "lower", "sweep_s", ("wide_cached",)),
    "core.cache.flush_ms": ("ms", "lower", "sweep_s", ("wide_cached",)),
    "core.cache.claim_us": ("us", "lower", "sweep_s", _SERVICE),
    "core.cache.wait_for_s": ("s", "lower", "sweep_s", _SERVICE),
    "core.cache.checkpoint_save_ms": ("ms", "lower", "sweep_s", ("wide_cached",)),
    "core.cache.checkpoint_load_ms": ("ms", "lower", "warm_sweep_s", ("wide_cached",)),
    "core.cache.resume_sweep_s": ("s", "lower", "warm_sweep_s", ("wide_cached",)),
    "core.cache.busy_s": ("s", "lower", "sweep_s", ("wide_cached",)),
    "core.cache.hit_frac": ("ratio", "higher", "warm_sweep_s", ("wide_cached",)),
    "parallel.dispatch_self_s": ("s", "lower", "sweep_s", ("procs2",)),
    "parallel.jobs_submitted": ("count", "lower", "candidates_per_s", ("procs2",)),
    "parallel.jobs_retried": ("count", "lower", "sweep_s", ("procs2",)),
    "parallel.payload_bytes": ("bytes", "lower", "sweep_s", ("procs2",)),
    "parallel.pool_start_s": ("s", "lower", "sweep_s", ("procs2",)),
    "parallel.worker_busy_frac": ("ratio", "higher", "candidates_per_s", ("procs2",)),
    "parallel.scaling_eff": ("ratio", "higher", "sweep_s", ("procs2",)),
    "parallel.async_executor.semaphore_wait_s": ("s", "lower", "sweep_s", _SERVICE),
    "core.evaluator.candidate_ms_p50": ("ms", "lower", "sweep_s", _ALL),
    "core.evaluator.candidate_ms_p95": ("ms", "lower", "sweep_s", _ALL),
    "core.evaluator.self_s": ("s", "lower", "sweep_s", ("wide_cached",)),
    "core.evaluator.build_s": ("s", "lower", "sweep_s", ("wide_cached",)),
    "simulators.compiled.compile_s": ("s", "lower", "sweep_s", ("wide_cached",)),
    "simulators.compiled.compile_calls": ("count", "lower", "sweep_s", ("wide_cached",)),
    "simulators.compiled.energies_s": ("s", "lower", "evals_per_s", _BATCHED),
    "simulators.compiled.energies_rows": ("count", "lower", "evals_per_s", _BATCHED),
    "simulators.compiled.us_per_eval_batched": ("us", "lower", "evals_per_s", _BATCHED),
    "simulators.compiled.energy_s": ("s", "lower", "evals_per_s", _SINGLE),
    "simulators.compiled.energy_calls": ("count", "lower", "evals_per_s", _SINGLE),
    "simulators.compiled.us_per_eval_single": ("us", "lower", "evals_per_s", _SINGLE),
    "simulators.compiled.state_bytes_per_eval": (
        "bytes", "lower", "evals_per_s", ("deep_spsa", "paper_cobyla"),
    ),
    "optimizers.self_s": ("s", "lower", "sweep_s", ("paper_cobyla", "deep_spsa")),
    "optimizers.self_us_per_eval": ("us", "lower", "evals_per_s", ("paper_cobyla", "deep_spsa")),
    "optimizers.nfev": ("count", "lower", "sweep_s", ("paper_cobyla", "deep_spsa")),
    "service.server.submit_ms": ("ms", "lower", "warm_sweep_s", _SERVICE),
    "service.server.status_ms": ("ms", "lower", "warm_sweep_s", _SERVICE),
    "service.server.result_ms": ("ms", "lower", "warm_sweep_s", _SERVICE),
    "service.server.result_bytes": ("bytes", "lower", "warm_sweep_s", _SERVICE),
    "service.server.polls_per_sweep": ("count", "lower", "sweep_s", _SERVICE),
    "service.server.metrics_ms": ("ms", "lower", "warm_sweep_s", _SERVICE),
    "service.jobs.queue_wait_ms": ("ms", "lower", "warm_sweep_s", _SERVICE),
    "service.jobs.submit_ms": ("ms", "lower", "warm_sweep_s", _SERVICE),
    "service.jobs.claim_ms": ("ms", "lower", "warm_sweep_s", _SERVICE),
    "service.jobs.mark_done_ms": ("ms", "lower", "warm_sweep_s", _SERVICE),
    "service.jobs.get_ms": ("ms", "lower", "warm_sweep_s", _SERVICE),
    "service.multiplexer.run_spec_s": ("s", "lower", "sweep_s", _SERVICE),
    "service.multiplexer.overhead_s": ("s", "lower", "sweep_s", _SERVICE),
    "service.multiplexer.slowdown_vs_inproc": ("ratio", "lower", "sweeps_per_s", _SERVICE),
    "service.multiplexer.dedup_evaluated_frac": ("ratio", "lower", "sweeps_per_s", _SERVICE),
    "trace.overhead_frac": ("ratio", "lower", "sweep_s", _ALL),
    "trace.untraced_frac": ("ratio", "lower", "sweep_s", _SERIAL),
}


def layer_of(span_name: str) -> str:
    """``core.cache.get`` belongs to layer ``core.cache``."""
    return span_name.rpartition(".")[0]


def _median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _mean(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


class SpanTable:
    """The spans of one traced pass, indexed the ways the metrics need."""

    def __init__(self, spans: list[Span]) -> None:
        self.spans = spans
        self.self_time = self_times(spans)
        phases = [s for s in spans if s.name.startswith("phase.")]
        #: sweep id -> phase whose interval its root span started in
        self.phase_of: dict[int, str] = {}
        self.roots: dict[int, Span] = {}
        for span in spans:
            if span.sweep == span.id:
                self.roots[span.id] = span
                for phase in phases:
                    if phase.start <= span.start <= phase.end:
                        self.phase_of[span.id] = phase.name.removeprefix("phase.")
        self.by_name: dict[str, list[Span]] = defaultdict(list)
        for span in spans:
            self.by_name[span.name].append(span)

    def sweeps(self, phase: str) -> list[Span]:
        return [root for sid, root in self.roots.items() if self.phase_of.get(sid) == phase]

    def self_per_sweep(self, name: str, phase: str = "fresh") -> float:
        """Summed self time of the spans called ``name`` (or, when ``name``
        ends in a dot, of every span of that layer) inside the phase's
        sweeps, divided by the number of those sweeps."""
        sweeps = {root.id for root in self.sweeps(phase)}
        if not sweeps:
            return 0.0
        total = sum(
            self.self_time[s.id]
            for s in self.spans
            if s.sweep in sweeps
            and s.id not in sweeps
            and (s.name == name or (name.endswith(".") and s.name.startswith(name)))
        )
        return total / len(sweeps)

    def calls_per_sweep(self, name: str, phase: str = "fresh") -> float:
        sweeps = {root.id for root in self.sweeps(phase)}
        if not sweeps:
            return 0.0
        return sum(1 for s in self.by_name[name] if s.sweep in sweeps) / len(sweeps)

    def call_median(self, name: str) -> float:
        return _median(s.duration for s in self.by_name[name])

    def untraced_frac(self) -> float:
        """Share of the sweeps' wall that no span beneath the root covers."""
        wall = sum(root.duration for root in self.roots.values())
        if not wall:
            return 0.0
        return sum(self.self_time[sid] for sid in self.roots) / wall

    def layer_table(self, phase: str) -> list[tuple[str, float]]:
        """``(layer, self seconds per sweep)`` rows that add up to the mean
        sweep wall of the phase; the root's own self time is ``untraced``."""
        sweeps = self.sweeps(phase)
        if not sweeps:
            return []
        ids = {root.id for root in sweeps}
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span.sweep in ids:
                layer = "untraced" if span.id in ids else layer_of(span.name)
                totals[layer] += self.self_time[span.id] / len(sweeps)
        rows = sorted(totals.items(), key=lambda row: -row[1])
        rows.append(("sweep wall", sum(root.duration for root in sweeps) / len(sweeps)))
        return rows


def _config_mean(sweeps, key: str) -> float:
    return _mean(sweep.result.config[key] for sweep in sweeps)


def _from_results(workload, rec) -> dict[str, float]:
    """What results, statuses and client-side clocks give without tracing."""
    fresh = rec.sweeps["fresh"]
    out = {
        "core.runtime.candidates": _mean(s.result.num_candidates for s in fresh),
        "core.runtime.cache_hits": _config_mean(fresh, "cache_hits"),
        "core.runtime.cache_misses": _config_mean(fresh, "cache_misses"),
        "parallel.jobs_submitted": _config_mean(fresh, "jobs_submitted"),
        "parallel.jobs_retried": _config_mean(fresh, "jobs_retried"),
        "optimizers.nfev": _mean(s.nfev for s in fresh),
        "core.cache.resume_sweep_s": _median(rec.walls("resume")),
    }
    stored = [s for phase in workload.cache_phases for s in rec.sweeps[phase]]
    hits = sum(s.result.config["cache_hits"] for s in stored)
    lookups = hits + sum(s.result.config["cache_misses"] for s in stored)
    out["core.cache.hit_frac"] = hits / lookups if lookups else 0.0

    seconds = [e.seconds for s in fresh for d in s.result.depth_results for e in d.evaluations]
    cuts = statistics.quantiles(seconds, n=20)
    out["core.evaluator.candidate_ms_p50"] = statistics.median(seconds) * 1e3
    out["core.evaluator.candidate_ms_p95"] = cuts[18] * 1e3
    fresh_wall = sum(rec.walls("fresh")) / workload.concurrency
    out["parallel.worker_busy_frac"] = sum(seconds) / (workload.fleet * fresh_wall)
    if rec.sweeps["serial"]:
        out["parallel.scaling_eff"] = _median(rec.walls("serial")) / (
            workload.fleet * _median(rec.walls("fresh"))
        )
    qubits = resolve_workload(fresh[0].spec.workload)[0].num_nodes
    out["simulators.compiled.state_bytes_per_eval"] = 16.0 * 2**qubits

    if rec.round_trips:  # the sweeps went over HTTP
        for endpoint in ("submit", "status", "result"):
            out[f"service.server.{endpoint}_ms"] = _median(rec.round_trips[endpoint]) * 1e3
        out["service.server.result_bytes"] = len(json.dumps(fresh[0].result.to_dict()))
        out["service.server.polls_per_sweep"] = _mean(s.polls for s in fresh)
        out["service.jobs.queue_wait_ms"] = 1e3 * _median(
            s.status["started_at"] - s.status["submitted_at"] for s in rec.sweeps["warm"]
        )
        run_spec = _median(s.status["finished_at"] - s.status["started_at"] for s in fresh)
        out["service.multiplexer.run_spec_s"] = run_spec
        out["service.multiplexer.overhead_s"] = _median(rec.walls("fresh")) - run_spec
        solo = rec.sweeps["solo"]
        if solo and rec.sweeps["inproc"]:
            solo_run = _median(s.status["finished_at"] - s.status["started_at"] for s in solo)
            out["service.multiplexer.slowdown_vs_inproc"] = solo_run / _median(rec.walls("inproc"))
            out["api.client_wait_overshoot_s"] = _median(
                s.returned_at - s.status["finished_at"] for s in solo
            )
        pair = rec.sweeps["dedup"]
        if pair:
            trained = sum(s.result.config["cache_misses"] for s in pair)
            out["service.multiplexer.dedup_evaluated_frac"] = trained / sum(
                s.result.num_candidates for s in pair
            )
    out.update(rec.extras)
    return out


def _from_spans(table: SpanTable, tracer: Tracer, traced_rec) -> dict[str, float]:
    """Self times and per-call medians of the traced pass."""
    fresh_ids = {root.id for root in table.sweeps("fresh")}
    sweeps = max(len(fresh_ids), 1)

    def rows(name: str) -> float:
        counted = tracer.counts.items()
        return sum(n for (key, sweep), n in counted if key == name and sweep in fresh_ids) / sweeps

    per_sweep = table.self_per_sweep
    candidates = _mean(s.result.num_candidates for s in traced_rec.sweeps["fresh"])
    nfev = _mean(s.nfev for s in traced_rec.sweeps["fresh"])
    out = {
        "api.resolve_s": per_sweep("api.resolve"),
        "workloads.classical_optimum_s": per_sweep("workloads.classical_optimum"),
        "core.runtime.self_s": per_sweep("core.runtime."),
        "core.cache.busy_s": per_sweep("core.cache."),
        "parallel.dispatch_self_s": per_sweep("parallel.as_completed"),
        "core.evaluator.self_s": per_sweep("core.evaluator.evaluate_candidate"),
        "core.evaluator.build_s": per_sweep("core.evaluator.build"),
        "simulators.compiled.compile_s": per_sweep("simulators.compiled.compile"),
        "simulators.compiled.compile_calls": table.calls_per_sweep("simulators.compiled.compile"),
        "simulators.compiled.energies_s": per_sweep("simulators.compiled.energies"),
        "simulators.compiled.energies_rows": rows("simulators.compiled.energies"),
        "simulators.compiled.energy_s": per_sweep("simulators.compiled.energy"),
        "simulators.compiled.energy_calls": table.calls_per_sweep("simulators.compiled.energy"),
        "optimizers.self_s": per_sweep("optimizers.minimize_population"),
        "trace.untraced_frac": table.untraced_frac(),
    }
    out["core.runtime.self_us_per_candidate"] = _ratio(out["core.runtime.self_s"], candidates) * 1e6
    out["simulators.compiled.us_per_eval_batched"] = 1e6 * _ratio(
        out["simulators.compiled.energies_s"], out["simulators.compiled.energies_rows"]
    )
    out["simulators.compiled.us_per_eval_single"] = 1e6 * _ratio(
        out["simulators.compiled.energy_s"], out["simulators.compiled.energy_calls"]
    )
    out["optimizers.self_us_per_eval"] = _ratio(out["optimizers.self_s"], nfev) * 1e6
    for metric, span, scale in (
        ("core.cache.get_us", "core.cache.get", 1e6),
        ("core.cache.put_us", "core.cache.put", 1e6),
        ("core.cache.flush_ms", "core.cache.flush", 1e3),
        ("core.cache.claim_us", "core.cache.claim", 1e6),
        ("core.cache.wait_for_s", "core.cache.wait_for", 1.0),
        ("core.cache.checkpoint_save_ms", "core.cache.checkpoint_save", 1e3),
        ("core.cache.checkpoint_load_ms", "core.cache.checkpoint_load", 1e3),
        ("service.jobs.submit_ms", "service.jobs.submit", 1e3),
        ("service.jobs.claim_ms", "service.jobs.claim_next", 1e3),
        ("service.jobs.mark_done_ms", "service.jobs.mark_done", 1e3),
        ("service.jobs.get_ms", "service.jobs.get", 1e3),
    ):
        out[metric] = table.call_median(span) * scale
    return out


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(workload, rec, traced_rec, tracer: Tracer, table: SpanTable) -> dict[str, float]:
    """Every metric of :data:`LAYER_METRICS` for one workload: the untraced
    half of the traced run (``rec``) plus its traced pass (``traced_rec``,
    and ``table`` over ``tracer.spans``)."""
    out = dict.fromkeys(LAYER_METRICS, 0.0)
    out.update(_from_results(workload, rec))
    out.update(_from_spans(table, tracer, traced_rec))
    # the one place a per-layer number compares two stretches of time:
    # both sides in reference-box seconds
    out["trace.overhead_frac"] = (
        _median(s.corrected for s in traced_rec.steady("fresh")[0])
        / _median(s.corrected for s in rec.steady("fresh")[0])
        - 1.0
    )
    unknown = set(out) - set(LAYER_METRICS)
    if unknown:
        raise KeyError(f"per-layer metrics not declared in LAYER_METRICS: {sorted(unknown)}")
    return out
