"""The LSM read path against a dict model, at the edges its shortcuts rely on.

``LSMStore.get`` reads the memtable dict, hashes the key once at its first
bloom probe, skips empty levels and finds a level >= 1's one candidate with
a single bisect on ``max_key`` plus a ``min_key`` check; ``scan`` bisects
each table once for both its page charge and its slice. Each test here
builds the levels by hand so the edges are certain to occur: keys equal to
a table's first or last key, keys in the gap between two tables of a level,
empty levels between populated ones, L0 tables whose ranges overlap,
tombstones over live versions in deeper levels, and scan bounds on table
and page boundaries. Every answer, probe count and page charged is checked
against a recount that walks every table linearly.
"""

import random

import pytest

from repro.apps.lsm import LSMConfig, SSTable
from repro.apps.lsm.memtable import TOMBSTONE
from tests.apps.test_lsm import ram_store
from tests.test_page_path import python_calls

CFG = LSMConfig(memtable_pages=64, level0_pages=768, max_table_pages=32)
POPULATED = (5, 3, 1)  # oldest first; levels 2, 4 and 6 stay empty
KEYS = 300
SEEDS = range(12)


def store_holding(*tables):
    """A store whose levels hold ``tables`` (in the order given) and an empty
    memtable, plus the ``(table_id, page)`` list its backend reads."""
    store = ram_store(CFG)
    backend, pages_read = store.backend, []
    read_table_page = backend.read_table_page

    def recording(table, page_index):
        pages_read.append((table.table_id, page_index))
        read_table_page(table, page_index)

    for table in tables:
        backend.write_table(table)
        store.levels[table.level].append(table)
    backend.read_table_page = recording
    return store, pages_read


def _table(rng, keys, level):
    values = [TOMBSTONE if rng.random() < 0.2 else (level, k) for k in keys]
    return SSTable(keys=keys, values=values, level=level, size_pages=rng.randint(1, len(keys)))


def build(seed):
    """A store with hand-built levels and its dict model (tombstones kept)."""
    rng = random.Random(seed)
    tables = []
    for level in POPULATED:
        keys = sorted(rng.sample(range(KEYS), rng.randrange(30, 90)))
        cuts = sorted(rng.sample(range(2, len(keys) - 1, 2), 3))
        # Drop the key at each cut, so a level's tables are separated by a gap.
        bounds = zip([0] + [cut + 1 for cut in cuts], cuts + [len(keys)])
        tables += [_table(rng, keys[start:end], level) for start, end in bounds]
    for _ in range(3):  # L0 in flush order: ranges overlap one another
        tables.append(_table(rng, sorted(rng.sample(range(KEYS), rng.randrange(5, 30))), 0))
    store, pages_read = store_holding(*tables)
    model = {}
    for table in tables:
        model.update(zip(table.keys, table.values))
    for key in rng.sample(range(KEYS), 8):
        if rng.random() < 0.3:
            store.delete(key)
            model[key] = TOMBSTONE
        else:
            store.put(key, ("mem", key))
            model[key] = ("mem", key)
    store.check_invariants()
    return store, pages_read, model


def search_order(store):
    """Every table in the order a point lookup may probe them."""
    return list(reversed(store.levels[0])) + [t for level in store.levels[1:] for t in level]


def expected_probes(store, key):
    """Tables whose range holds ``key``, up to the first that has it: each is
    one bloom skip or one table read (the bloom has no false negatives)."""
    if key in store.memtable.data:
        return 0
    probes = 0
    for table in search_order(store):
        if table.min_key <= key <= table.max_key:
            probes += 1
            if key in table.keys:
                break
    return probes


def boundary_keys(store):
    """Each table's first and last key, the first and last key on each of its
    pages, their neighbours, and keys outside every table."""
    keys = {-1, KEYS}
    for table in search_order(store):
        count, pages = len(table.keys), table.size_pages
        for i, key in enumerate(table.keys):
            page = i * pages // count
            if i in (0, count - 1) or page != (i - 1) * pages // count or (
                page != (i + 1) * pages // count
            ):
                keys.update((key - 1, key, key + 1))
    return sorted(keys)


@pytest.mark.parametrize("seed", SEEDS)
def test_gets_match_the_model(seed):
    store, pages_read, model = build(seed)
    stats = store.stats
    for key in boundary_keys(store):
        before = (stats.bloom_skips, stats.table_reads, len(pages_read))
        expected = model.get(key)
        assert store.get(key) == (None if expected is TOMBSTONE else expected), key
        skips, reads = stats.bloom_skips - before[0], stats.table_reads - before[1]
        assert skips + reads == expected_probes(store, key), key
        assert len(pages_read) - before[2] == reads


@pytest.mark.parametrize("seed", SEEDS)
def test_scans_match_the_model_and_recount(seed):
    store, pages_read, model = build(seed)
    # A scan merges oldest first: deepest level up, then L0 in flush order.
    order = [t for level in store.levels[:0:-1] for t in level] + store.levels[0]
    bounds = boundary_keys(store)
    rng = random.Random(seed)
    pairs = [(key, key) for key in bounds]
    pairs += [tuple(sorted(rng.sample(bounds, 2))) for _ in range(300)]
    for lo, hi in pairs:
        expected_pages = []
        for table in order:
            inside = [i for i, key in enumerate(table.keys) if lo <= key <= hi]
            if inside:
                count, pages = len(table.keys), table.size_pages
                first, last = inside[0] * pages // count, inside[-1] * pages // count
                expected_pages += [(table.table_id, page) for page in range(first, last + 1)]
        before = store.stats.scan_pages_read
        pages_read.clear()
        live = sorted((k, v) for k, v in model.items() if lo <= k <= hi and v is not TOMBSTONE)
        assert store.scan(lo, hi) == live, (lo, hi)
        assert pages_read == expected_pages, (lo, hi)
        assert store.stats.scan_pages_read - before == len(expected_pages)


def test_the_built_levels_reach_every_edge():
    """The builder is only worth its recount if the edges occur."""
    gaps = shadowed = overlapping_l0 = 0
    for seed in SEEDS:
        store, _, model = build(seed)
        populated = [number for number, level in enumerate(store.levels) if level]
        assert populated == [0, 1, 3, 5] and len(store.levels) == 7
        l0 = store.levels[0]
        overlapping_l0 += any(a.overlaps(b) for a in l0 for b in l0 if a is not b)
        for level in store.levels[1:]:
            gaps += sum(right.min_key - left.max_key > 1 for left, right in zip(level, level[1:]))
        deeper_live = {
            k for level in store.levels[1:] for t in level
            for k, v in zip(t.keys, t.values) if v is not TOMBSTONE
        }
        shadowed += sum(model[k] is TOMBSTONE for k in deeper_live)
    assert overlapping_l0 == len(SEEDS)
    assert gaps >= 9 * len(SEEDS)
    assert shadowed >= len(SEEDS)


def test_a_lookup_hashes_its_key_once():
    """Python frames per ``get`` (blooms already built): one for a memtable
    hit or a key no table's range holds; ``get`` plus the one hash pair
    (``hashes`` and ``_digest``) plus one per bloom probe for a miss every
    bloom rejects. Ceilings only go down."""
    store, _, _ = build(0)
    for table in search_order(store):
        table.bloom  # built on first probe: build them outside the count
    hit = next(iter(store.memtable.data))
    assert python_calls(lambda: store.get(hit)) == 1
    assert python_calls(lambda: store.get(KEYS + 10)) == 1
    stats, checked = store.stats, 0
    for key in range(KEYS):
        before = (stats.bloom_skips, stats.table_reads)
        calls = python_calls(lambda: store.get(key))
        skips, reads = stats.bloom_skips - before[0], stats.table_reads - before[1]
        if skips >= 2 and reads == 0:
            assert calls == 3 + skips, key
            checked += 1
    assert checked > 10
