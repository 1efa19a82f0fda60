"""Multi-tenant ResultCache: LRU bounds, claim/wait coordination."""

import threading

import pytest

from repro.core.cache import ResultCache
from repro.core.results import CandidateEvaluation


def make_evaluation(tokens=("rx",), p=1, ratio=0.9):
    return CandidateEvaluation(
        tokens=tuple(tokens),
        p=p,
        energy=3.5,
        ratio=ratio,
        per_graph_energy=(3.4, 3.6),
        per_graph_ratio=(ratio, ratio),
        nfev=17,
        seconds=0.25,
    )


def fill(cache, n, prefix="k"):
    for i in range(n):
        cache.put(f"{prefix}{i}", make_evaluation((f"g{i}",)))
    cache.flush()


class TestLRUEviction:
    def test_unbounded_by_default(self, tmp_path):
        with ResultCache(tmp_path) as cache:
            fill(cache, 50)
            assert all(cache.get(f"k{i}") is not None for i in range(50))
            assert cache.evictions == 0

    def test_bounded_cache_evicts_oldest(self, tmp_path):
        with ResultCache(tmp_path, max_entries=3) as cache:
            fill(cache, 5)
            # the two oldest fell out, the three newest survive
            assert cache.get("k0") is None
            assert cache.get("k1") is None
            assert all(cache.get(f"k{i}") is not None for i in (2, 3, 4))
            assert cache.evictions == 2

    def test_get_refreshes_recency(self, tmp_path):
        with ResultCache(tmp_path, max_entries=2) as cache:
            fill(cache, 2)
            assert cache.get("k0") is not None  # k0 is now the hot entry
            cache.put("k2", make_evaluation(("new",)))
            cache.flush()
            assert cache.get("k0") is not None
            assert cache.get("k1") is None  # the cold one was evicted

    def test_eviction_pressure_cannot_break_inflight_claims(self, tmp_path):
        """Eviction during the claim window never strands a waiter: the
        buffered put is protected, and the resolved row lands newest so
        the waiter's read wins the race with LRU pressure."""
        with ResultCache(tmp_path, max_entries=2, shared=True) as cache:
            fill(cache, 2)
            assert cache.claim("inflight")
            got = {}
            waiter = threading.Thread(
                target=lambda: got.update(result=cache.wait_for("inflight", timeout=10))
            )
            waiter.start()
            fill(cache, 4, prefix="pressure")  # churn while the claim is open
            cache.put("inflight", make_evaluation(("mid",)))
            waiter.join(timeout=10)
            assert not waiter.is_alive()
            assert got["result"] is not None
            assert got["result"].tokens == ("mid",)

    def test_bound_persists_across_reopen(self, tmp_path):
        with ResultCache(tmp_path, max_entries=3) as cache:
            fill(cache, 3)
        with ResultCache(tmp_path, max_entries=3) as cache:
            fill(cache, 2, prefix="new")
            survivors = sum(
                cache.get(k) is not None
                for k in ["k0", "k1", "k2", "new0", "new1"]
            )
            assert survivors == 3

    def test_rejects_nonpositive_bound(self, tmp_path):
        with pytest.raises(ValueError, match="max_entries"):
            ResultCache(tmp_path, max_entries=0)


class TestClaims:
    def test_unshared_cache_every_tenant_owns_every_key(self, tmp_path):
        with ResultCache(tmp_path) as cache:
            assert cache.claim("k") is True
            assert cache.claim("k") is True  # no coordination when unshared

    def test_shared_cache_first_claim_wins(self, tmp_path):
        with ResultCache(tmp_path, shared=True) as cache:
            assert cache.claim("k") is True
            assert cache.claim("k") is False

    def test_a_stored_key_cannot_be_claimed(self, tmp_path):
        """A tenant whose claim lands after the owner's put collects the
        result instead of retraining — buffered or committed."""
        with ResultCache(tmp_path, shared=True) as cache:
            cache.put("buffered", make_evaluation())
            assert cache.claim("buffered") is False
            fill(cache, 1)
            assert cache.claim("k0") is False

    def test_wait_for_gives_up_on_a_held_claim_at_its_timeout(self, tmp_path):
        with ResultCache(tmp_path, shared=True) as cache:
            assert cache.claim("k")
            assert cache.wait_for("k", timeout=0.05) is None
            assert cache.claim("k") is False  # the claim is still held

    def test_put_resolves_claim_and_wakes_waiter(self, tmp_path):
        with ResultCache(tmp_path, shared=True) as cache:
            assert cache.claim("k")
            got = {}

            def waiter():
                got["result"] = cache.wait_for("k", timeout=10)

            thread = threading.Thread(target=waiter)
            thread.start()
            cache.put("k", make_evaluation(("owned",)))
            thread.join(timeout=10)
            assert not thread.is_alive()
            assert got["result"].tokens == ("owned",)

    def test_unclaim_without_put_releases_waiter_empty_handed(self, tmp_path):
        """Owner failed: waiters get None and fall back to evaluating."""
        with ResultCache(tmp_path, shared=True) as cache:
            assert cache.claim("k")
            got = {}

            def waiter():
                got["result"] = cache.wait_for("k", timeout=10)

            thread = threading.Thread(target=waiter)
            thread.start()
            cache.unclaim("k")
            thread.join(timeout=10)
            assert not thread.is_alive()
            assert got["result"] is None

    def test_wait_for_unclaimed_key_is_a_plain_get(self, tmp_path):
        with ResultCache(tmp_path, shared=True) as cache:
            cache.put("k", make_evaluation())
            assert cache.wait_for("k", timeout=1) is not None
            assert cache.wait_for("missing", timeout=0.05) is None


class TestConcurrency:
    def test_parallel_tenants_share_work_without_duplicates(self, tmp_path):
        """N threads race over one key space; claim/wait coordination means
        each key is 'evaluated' exactly once."""
        evaluated = []
        evaluated_lock = threading.Lock()
        keys = [f"key{i}" for i in range(12)]

        with ResultCache(tmp_path, shared=True, flush_every=4) as cache:

            def tenant(seed):
                for key in keys[seed:] + keys[:seed]:  # staggered orders
                    if cache.get(key) is not None:
                        continue
                    if cache.claim(key):
                        with evaluated_lock:
                            evaluated.append(key)
                        cache.put(key, make_evaluation((key,)))
                    else:
                        cache.wait_for(key, timeout=10)

            threads = [threading.Thread(target=tenant, args=(s,)) for s in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            cache.flush()
            assert sorted(evaluated) == sorted(set(evaluated))  # no key twice
            assert all(cache.get(k) is not None for k in keys)

    def test_counters_are_exposed(self, tmp_path):
        with ResultCache(tmp_path, max_entries=2) as cache:
            cache.put("a", make_evaluation())
            cache.flush()
            assert cache.get("a") is not None
            assert cache.get("b") is None
            fill(cache, 3, prefix="spill")
            assert cache.hits == 1
            assert cache.misses == 1
            assert cache.evictions > 0
