"""Bulk absorption: ``put_many`` is sequential ``put`` in one call.

A collective read absorbs the group's merged plan with
:meth:`MetadataNodeCache.put_many`.  Whatever path it takes — one
``dict.update`` for an unbounded cache, a replay of the per-entry puts for a
bounded one — the cache must end exactly where sequential puts leave it:
same entries, same insertion and eviction counts and, when bounded, the same
LRU order.  The generated entry lists reuse a small key space on purpose, so
an entry's exact-version alias often collides with another entry's hint key
(or with a key the cache already holds).
"""

from hypothesis import given, settings, strategies as st

from repro.blobseer.chunk import ChunkKey
from repro.blobseer.metadata.cache import MetadataNodeCache, plan_keys
from repro.blobseer.metadata.nodes import LeafSegment, MetadataNode, NodeKey

BLOB = "b"


def node(version, offset, size):
    segment = LeafSegment(0, 8, ChunkKey("w", version), 0, "p0")
    return MetadataNode(NodeKey(BLOB, version, offset, size), True,
                        segments=(segment,), base_version=version - 1)


@st.composite
def plan_entries(draw, max_entries=12):
    """``((offset, size, hint), node-or-None)`` entries over a tiny key space."""
    entries = []
    for _ in range(draw(st.integers(0, max_entries))):
        offset = draw(st.sampled_from([0, 64]))
        size = 64
        hint = draw(st.integers(1, 4))
        if draw(st.booleans()):
            # resolved at or before the hint: an older version adds an alias
            # key that other entries' hint keys can collide with
            found = node(draw(st.integers(1, hint)), offset, size)
        else:
            found = None
        entries.append(((offset, size, hint), found))
    return entries


def state(cache):
    return (list(cache._resolved.items()), cache.stats.insertions,
            cache.stats.evictions)


def absorb_both(capacity, warm, entries, precomputed):
    sequential = MetadataNodeCache(capacity=capacity)
    bulk = MetadataNodeCache(capacity=capacity)
    for cache in (sequential, bulk):
        for (offset, size, hint), found in warm:
            cache.put(BLOB, offset, size, hint, found)
    for (offset, size, hint), found in entries:
        sequential.put(BLOB, offset, size, hint, found)
    keyed = plan_keys(BLOB, entries) if precomputed else None
    bulk.put_many(BLOB, entries, keyed)
    return sequential, bulk


@settings(max_examples=300, deadline=None)
@given(warm=plan_entries(), entries=plan_entries(),
       precomputed=st.booleans())
def test_unbounded_put_many_equals_sequential_puts(warm, entries,
                                                   precomputed):
    sequential, bulk = absorb_both(None, warm, entries, precomputed)
    # an unbounded cache keeps no LRU order: compare the maps as maps
    assert dict(bulk._resolved) == dict(sequential._resolved)
    assert bulk.stats.insertions == sequential.stats.insertions
    assert bulk.stats.evictions == sequential.stats.evictions == 0


@settings(max_examples=300, deadline=None)
@given(capacity=st.integers(1, 6), warm=plan_entries(),
       entries=plan_entries(), precomputed=st.booleans())
def test_bounded_put_many_equals_sequential_puts(capacity, warm, entries,
                                                 precomputed):
    sequential, bulk = absorb_both(capacity, warm, entries, precomputed)
    # entries, their LRU order and both counters
    assert state(bulk) == state(sequential)


def test_plan_keys_include_aliases_and_keep_the_last_write():
    older = node(1, 0, 64)
    newer = node(2, 0, 64)
    keyed = plan_keys(BLOB, [((0, 64, 3), older), ((0, 64, 1), None),
                             ((0, 64, 4), newer), ((64, 64, 2), None)])
    # (0, 64, 1) is first the alias of the hint-3 entry, then overwritten
    # by the negative entry, exactly as sequential puts would leave it
    assert keyed == {(BLOB, 0, 64, 3): older, (BLOB, 0, 64, 1): None,
                     (BLOB, 0, 64, 4): newer, (BLOB, 0, 64, 2): newer,
                     (BLOB, 64, 64, 2): None}
