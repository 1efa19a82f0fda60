#!/usr/bin/env bash
# Run the same three jobs as .github/workflows/ci.yml on this machine.
#
#   lint        ruff check . (falls back to scripts/lint_fallback.py when
#               ruff is not installed — e.g. offline dev containers)
#   docs        README/docs link check + smoke-run of the README snippets
#   tests       CLI smoke + tier-1 pytest
#   bench-smoke tiny end-to-end search with warm-cache assertions, the
#               service smoke (two concurrent sweeps sharing a cache), the
#               chaos smoke (fault-injected service invariants), the
#               sweep-level benchmark's checks on the service path, on
#               the many-candidates path (shared compile fragments) and on
#               the batched-engine path (the planned schedule), the
#               tensor network's three ablation benches, the paper-figure
#               benches of Figs. 4-9 with three more ablations and the
#               runtime-cache bench, every example
#               script, and the surrogate smoke + eval-reduction gate
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "=== job: lint ==="
if command -v ruff >/dev/null 2>&1; then
    ruff check .
else
    echo "(ruff not installed; running offline fallback linter)"
    python scripts/lint_fallback.py
fi

echo "=== job: docs ==="
python scripts/check_docs.py

echo "=== job: tests (CLI smoke) ==="
python -m repro --help >/dev/null
python -m repro draw rx,ry --qubits 3 >/dev/null
echo "CLI smoke OK"

echo "=== job: tests (tier-1 pytest) ==="
# between two e2e.speed readings: prints the wall time in reference-box
# seconds, the other tracked number ("tier-1 wall time not up")
python scripts/tier1_wall.py
# the tracked numbers: ROADMAP aim 2 wants net src/ lines and knobs to go down
echo "src/repro lines: $(find src/repro -name '*.py' | xargs cat | wc -l)"
python tests/integration/test_reachability.py

echo "=== job: bench-smoke ==="
python scripts/ci_smoke.py --only search
python scripts/ci_smoke.py --only service
python scripts/ci_smoke.py --only chaos
python3 benchmarks/e2e/run.py --workload service_mixed --seconds 3
python3 benchmarks/e2e/run.py --workload wide_cached --seconds 3
python3 benchmarks/e2e/run.py --workload deep_spsa --seconds 3
python -m pytest benchmarks/bench_ablation_{backends,ordering,slicing}.py -q -s \
    -o python_files='bench_*.py' -o python_functions='bench_*'
# Figs. 4-9, three ablations and the runtime cache (ROADMAP item 4)
python -m pytest benchmarks/bench_fig{4,5,6,7,8,9}_*.py \
    benchmarks/bench_ablation_{initialization,optimizers,predictors}.py \
    benchmarks/bench_runtime_cache.py -q \
    -o python_files='bench_*.py' -o python_functions='bench_*'
for example in examples/*.py; do echo "== $example"; python "$example"; done
python scripts/ci_smoke.py --only workloads
python scripts/ci_smoke.py --only surrogate
python scripts/bench_report.py
python benchmarks/bench_compiled_engine.py
python benchmarks/bench_batched_optimizers.py
python benchmarks/bench_sharded_runtime.py
python benchmarks/bench_surrogate.py

echo "=== all CI jobs green ==="
