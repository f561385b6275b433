"""Hashing, hash-range ownership, and backup placement."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ftmr.partition import (
    HASH_SPACE,
    BackupMode,
    Owners,
    PartitionMap,
    Range,
    backup_targets,
    hash_key,
    initial_partition,
    mix_seed,
    shrink_partition,
    split_self_message,
    splitmix_mix,
)

# -- hashing ------------------------------------------------------------

# Frozen from an independent reimplementation of FNV-1a 64 folded through
# the splitmix64 finalizer.
HASH_GOLDENS = {
    b"": 17665956581633026203,
    b"a": 198367012849983736,
    b"abc": 996580060897260808,
    b"w00042": 1647041773692362214,
    bytes(8): 9313164154874788883,
}


def test_hash_goldens():
    for key, want in HASH_GOLDENS.items():
        assert hash_key(key) == want


def test_splitmix_reference_sequence():
    # the published splitmix64 outputs for seed 0: the finalizer applied
    # to successive multiples of the golden-ratio increment
    gamma = 0x9E3779B97F4A7C15
    assert splitmix_mix(1 * gamma) == 0xE220A8397B1DCDAF
    assert splitmix_mix(2 * gamma) == 0x6E789E6AA1B965F4
    assert splitmix_mix(3 * gamma) == 0x06C45D188009454F
    assert splitmix_mix(0) == 0


@given(st.binary(max_size=32))
def test_hash_range_and_determinism(key):
    h = hash_key(key)
    assert 0 <= h < HASH_SPACE
    assert hash_key(key) == h


def test_mix_seed_varies_with_each_salt():
    base = mix_seed(7, 1, 2)
    assert mix_seed(7, 1, 3) != base
    assert mix_seed(7, 2, 2) != base
    assert mix_seed(8, 1, 2) != base
    assert mix_seed(7, 1, 2, 0) != base
    assert all(0 <= mix_seed(s, 9) < HASH_SPACE for s in range(50))


def test_hash_uniformity_across_16_ranges():
    pm = initial_partition(16)
    counts = [0] * 16
    for i in range(100_000):
        counts[pm.owner_of(hash_key(b"key-%d" % i))] += 1
    assert sum(counts) == 100_000
    for c in counts:
        assert abs(c - 6250) < 500


# -- partition maps -----------------------------------------------------


def test_initial_partition_boundaries():
    pm = initial_partition(4)
    assert [(r.pe, r.lo, r.hi) for r in pm.ranges] == [
        (0, 0, HASH_SPACE // 4),
        (1, HASH_SPACE // 4, HASH_SPACE // 2),
        (2, HASH_SPACE // 2, 3 * HASH_SPACE // 4),
        (3, 3 * HASH_SPACE // 4, HASH_SPACE),
    ]
    pm3 = initial_partition(3)
    assert [r.lo for r in pm3.ranges] == [
        0,
        6148914691236517205,
        12297829382473034410,
    ]


def test_owner_of_boundaries():
    pm = initial_partition(4)
    assert pm.owner_of(0) == 0
    assert pm.owner_of(HASH_SPACE - 1) == 3
    for i, r in enumerate(pm.ranges):
        assert pm.owner_of(r.lo) == i
        assert pm.owner_of(r.hi - 1) == i
    with pytest.raises(ValueError):
        pm.owner_of(HASH_SPACE)
    with pytest.raises(ValueError):
        pm.owner_of(-1)


@given(st.integers(1, 32), st.integers(0, HASH_SPACE - 1))
def test_owner_matches_linear_scan(p, h):
    pm = initial_partition(p)
    want = next(r.pe for r in pm.ranges if r.lo <= h < r.hi)
    assert pm.owner_of(h) == want


@given(st.integers(2, 12), st.data())
def test_owners_memo_matches_owner_of(p, data):
    failed = {data.draw(st.integers(0, p - 1))}
    heir = data.draw(st.integers(0, p - 1).filter(lambda j: j not in failed))
    keys = data.draw(st.lists(st.binary(max_size=12), max_size=20))
    for pm in (
        initial_partition(p),
        shrink_partition(initial_partition(p), failed),
        shrink_partition(initial_partition(p), failed, [heir]),
    ):
        owners = Owners(pm)
        # every key twice: the second lookup is a memo hit
        for key in keys + keys:
            assert owners[key] == pm.owner_of(hash_key(key))
        assert owners.keys() == set(keys)


def test_partition_map_validates_coverage():
    with pytest.raises(ValueError):
        PartitionMap(())
    with pytest.raises(ValueError):
        PartitionMap((Range(0, 0, 10),))  # does not reach the top
    with pytest.raises(ValueError):
        PartitionMap((Range(0, 1, HASH_SPACE),))  # gap at 0
    with pytest.raises(ValueError):
        Range(0, 5, 5)  # empty


def test_initial_partition_rejects_zero():
    with pytest.raises(ValueError):
        initial_partition(0)


# -- shrinking ----------------------------------------------------------


@given(
    st.integers(2, 12),
    st.data(),
)
def test_shrink_properties(p, data):
    pm = initial_partition(p)
    n_failed = data.draw(st.integers(1, p - 1))
    failed = set(data.draw(st.permutations(range(p)))[:n_failed])
    survivors = sorted(set(range(p)) - failed)
    shrunk = shrink_partition(pm, failed)
    # validity (coverage, ordering) is enforced by the constructor
    assert set(shrunk.live_pes()) == set(survivors)
    # survivor ranges are untouched
    for r in pm.ranges:
        if r.pe not in failed:
            assert r in shrunk.ranges
    # each failed range is split near-evenly over all survivors
    for r in pm.ranges:
        if r.pe not in failed:
            continue
        pieces = [q for q in shrunk.ranges if r.lo <= q.lo and q.hi <= r.hi]
        widths = [q.width for q in pieces]
        assert sum(widths) == r.width
        if len(survivors) <= r.width:
            assert len(pieces) == len(survivors)
            assert [q.pe for q in pieces] == survivors
            assert max(widths) - min(widths) <= 1


def test_shrink_noops_and_errors():
    pm = initial_partition(4)
    assert shrink_partition(pm, set()) is pm
    with pytest.raises(ValueError):
        shrink_partition(pm, {7})
    with pytest.raises(ValueError):
        shrink_partition(pm, {0, 1, 2, 3})


def test_shrink_twice_composes():
    pm = shrink_partition(initial_partition(4), {1})
    pm = shrink_partition(pm, {2})
    assert set(pm.live_pes()) == {0, 3}
    assert sum(r.width for r in pm.ranges) == HASH_SPACE


def test_shrink_to_one_heir():
    pm = initial_partition(4)
    moved = shrink_partition(pm, {1}, [3])
    assert set(moved.live_pes()) == {0, 2, 3}
    assert tuple(r for r in moved.ranges if r.pe == 3) == (
        Range(3, HASH_SPACE // 4, HASH_SPACE // 2),
        Range(3, 3 * HASH_SPACE // 4, HASH_SPACE),
    )
    with pytest.raises(ValueError):
        shrink_partition(pm, {1}, [1])
    with pytest.raises(ValueError):
        shrink_partition(pm, {1}, [9])


# -- backup placement ---------------------------------------------------


def test_backup_targets_split():
    live = {0, 1, 2, 3}
    singles = (0, 1, 2, 3)
    assert backup_targets(1, live, BackupMode.SPLIT, singles) == [0, 2, 3]
    assert backup_targets(0, live, BackupMode.OFF, singles) == []
    with pytest.raises(ValueError):
        backup_targets(9, live, BackupMode.SPLIT, singles)


def test_backup_targets_respect_groups():
    live = {0, 1, 2, 3}
    groups = (0, 0, 1, 1)
    assert backup_targets(0, live, BackupMode.SPLIT, groups) == [2, 3]
    assert backup_targets(3, live, BackupMode.SPLIT, groups) == [0, 1]
    # a PE whose group spans all live peers has nowhere to back up
    assert backup_targets(2, {2, 3}, BackupMode.SPLIT, groups) == []


def test_backup_targets_single_mode():
    live = {0, 1, 2, 3}
    singles = (0, 1, 2, 3)
    assert backup_targets(1, live, BackupMode.SINGLE, singles) == [2]
    assert backup_targets(3, live, BackupMode.SINGLE, singles) == [0]  # wraps
    # skips dead ids and the caller's own group
    assert backup_targets(1, {1, 3}, BackupMode.SINGLE, singles) == [3]
    groups = (0, 0, 1, 1)
    assert backup_targets(1, live, BackupMode.SINGLE, groups) == [2]
    assert backup_targets(3, live, BackupMode.SINGLE, groups) == [0]


def test_backup_mode_parse():
    assert BackupMode.parse("split") is BackupMode.SPLIT
    assert BackupMode.parse("single") is BackupMode.SINGLE
    assert BackupMode.parse("off") is BackupMode.OFF
    with pytest.raises(ValueError):
        BackupMode.parse("sometimes")


@given(st.lists(st.integers(), max_size=40), st.integers(1, 6))
def test_split_self_message_round_robin(records, n_targets):
    targets = list(range(10, 10 + n_targets))
    shares = split_self_message(records, targets)
    assert [t for t, _ in shares] == targets
    sizes = [len(part) for _, part in shares]
    assert sum(sizes) == len(records)
    assert max(sizes) - min(sizes) <= 1
    # interleaving the shares in target order restores the input order
    rebuilt = []
    for k in range(max(sizes, default=0)):
        for _, part in shares:
            if k < len(part):
                rebuilt.append(part[k])
    assert rebuilt == records


def test_split_self_message_requires_targets():
    with pytest.raises(ValueError):
        split_self_message([1, 2], [])
