"""Hypothesis property tests for the content-hash result store.

Two contracts, pinned over random submit/poll/evict/delete
interleavings (run against an *inline* manager so every interleaving
is deterministic):

* the store bounds what the service keeps: when it evicts a result
  (explicit or LRU), the done jobs serving it are retired — gone from
  the manager, reported as retired — and a job the manager still
  returns always has its full result, never a partial one;
* every result a client can observe — fresh compute, warm-cache hit,
  or post-evict recompute — is fingerprint-identical to a direct
  recompute of the same bundle (``graph_fingerprint`` digest and chain
  records both).
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.serve import JobManager, ResultStore
from repro.serve.jobs import JobState, fingerprint_digest, normalize_submission

from tests.serve.bundles import gadget_bundle

#: three distinct bundles against a capacity-2 store, so LRU eviction
#: genuinely happens inside the interleavings
TAGS = ("pa", "pb", "pc")
BODIES = {tag: {"classes": gadget_bundle(tag), "options": {"sources": "native"}}
          for tag in TAGS}
KEYS = {tag: normalize_submission(BODIES[tag]).key for tag in TAGS}

_canonical_cache = {}


def canonical(tag):
    """Digest + chain records from a dedicated single-use manager —
    the recompute baseline every observed result must match."""
    if tag not in _canonical_cache:
        manager = JobManager(workers=1, inline=True)
        job, status = manager.submit(BODIES[tag])
        assert status == "new" and job.state == JobState.DONE
        _canonical_cache[tag] = (
            job.result.fingerprint,
            job.result.chain_records,
            fingerprint_digest(job.result.graph),
        )
    return _canonical_cache[tag]


ops = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.sampled_from(TAGS)),
        st.tuples(st.just("evict"), st.sampled_from(TAGS)),
        st.tuples(st.just("delete"), st.integers(min_value=0, max_value=9)),
        st.tuples(st.just("poll"), st.integers(min_value=0, max_value=9)),
    ),
    min_size=1,
    max_size=12,
)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=ops)
def test_interleavings_never_lose_completed_results(ops):
    manager = JobManager(workers=1, inline=True, store=ResultStore(capacity=2))
    live = []  # (tag, job) pairs not yet deleted or retired
    new_computes = 0
    for op, arg in ops:
        if op == "submit":
            job, status = manager.submit(BODIES[arg])
            assert status in ("new", "cached", "attached")
            # inline execution: nothing is ever in flight to attach to
            assert status != "attached"
            if status == "new":
                new_computes += 1
            assert job.state == JobState.DONE
            live.append((arg, job))
        elif op == "evict":
            manager.store.evict(KEYS[arg])
        elif op == "delete":
            if live:
                tag, job = live.pop(arg % len(live))
                assert manager.delete(job.id) == "deleted"
                assert manager.get(job.id) is None
                assert not manager.retired(job.id)
        else:  # poll
            if live:
                tag, job = live[arg % len(live)]
                assert manager.get(job.id) is job

        # the invariants hold after *every* op, not just at the end
        assert manager.computed == new_computes
        assert len(manager.store) <= 2
        for tag, job in list(live):
            polled = manager.get(job.id)
            if polled is None:
                # retired with its evicted result: gone, never partial
                assert manager.retired(job.id)
                assert manager.delete(job.id) == "missing"
                live.remove((tag, job))
                continue
            assert polled is job and not manager.retired(job.id)
            # a job still served holds a result the store still has
            assert KEYS[tag] in manager.store
            assert job.state == JobState.DONE
            assert job.result is not None
            digest, records, graph_digest = canonical(tag)
            # cache hits and recomputes are fingerprint-identical
            assert job.result.fingerprint == digest
            assert job.result.chain_records == records
            # the retained graph itself still hashes to the same identity
            assert fingerprint_digest(job.result.graph) == graph_digest


def test_done_records_stay_within_store_capacity():
    """Many distinct computes against a small store: finished job
    records (each holding a CPG) never outnumber the store's capacity,
    and a retired job answers as evicted, not unknown."""
    manager = JobManager(workers=1, inline=True, store=ResultStore(capacity=2))
    ids = []
    for n in range(6):
        job, status = manager.submit(
            {"classes": gadget_bundle(f"cap{n}"), "options": {"sources": "native"}}
        )
        assert status == "new" and job.state == JobState.DONE
        ids.append(job.id)
        done = [j for j in manager.jobs() if j.state == JobState.DONE]
        assert len(done) <= manager.store.capacity
    assert [manager.get(i) is not None for i in ids] == [False] * 4 + [True] * 2
    assert all(manager.retired(i) for i in ids[:4])
    assert not manager.retired("j99999")


@settings(max_examples=50, deadline=None)
@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("put"), st.integers(0, 5)),
            st.tuples(st.just("get"), st.integers(0, 5)),
            st.tuples(st.just("evict"), st.integers(0, 5)),
        ),
        max_size=40,
    ),
    capacity=st.integers(min_value=1, max_value=4),
)
def test_store_is_a_faithful_lru_map(ops, capacity):
    """Model-based check of ResultStore against a dict + recency list."""
    from repro.serve.store import JobResult

    store = ResultStore(capacity=capacity)
    model = {}
    recency = []  # least-recent first
    for op, k in ops:
        key = f"k{k}"
        if op == "put":
            store.put(key, JobResult(key=key, fingerprint=f"f{k}"))
            model[key] = f"f{k}"
            if key in recency:
                recency.remove(key)
            recency.append(key)
            while len(model) > capacity:
                oldest = recency.pop(0)
                del model[oldest]
        elif op == "get":
            result = store.get(key)
            if key in model:
                assert result is not None and result.fingerprint == model[key]
                recency.remove(key)
                recency.append(key)
            else:
                assert result is None
        else:
            assert store.evict(key) == (key in model)
            model.pop(key, None)
            if key in recency:
                recency.remove(key)
        assert len(store) == len(model)
        assert set(store.keys()) == set(model)
