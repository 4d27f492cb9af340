"""The bulk bloom build against the scalar reference in ``tests/oracle``."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.lsm.bloom import BloomFilter
from tests.oracle.scalar_bloom import ScalarBloom

FP_RATES = [0.5, 0.1, 0.01, 0.001, 1e-6]

ints = st.integers(min_value=-(2**70), max_value=2**70)
keys = st.one_of(ints, st.text(max_size=12), st.tuples(ints, st.text(max_size=4)))


def scalar_build(key_list, fp_rate):
    reference = ScalarBloom(max(len(key_list), 1), fp_rate)
    for key in key_list:
        reference.add(key)
    return reference


def assert_same_filter(key_list, fp_rate, probes=()):
    bloom = BloomFilter.build(key_list, fp_rate=fp_rate)
    reference = scalar_build(key_list, fp_rate)
    assert bytes(bloom._bits) == bytes(reference._bits)
    assert isinstance(bloom._bits, bytearray)
    assert (bloom.num_bits, bloom.num_hashes, bloom.items_added) == (
        reference.num_bits,
        reference.num_hashes,
        reference.items_added,
    )
    assert all(bloom.might_contain(key) for key in key_list)  # no false negatives
    for key in probes:
        assert bloom.might_contain(key) == reference.might_contain(key)


@settings(max_examples=150, deadline=None)
@given(st.lists(keys, max_size=60), st.sampled_from(FP_RATES), st.lists(keys, max_size=20))
def test_bulk_build_matches_scalar(key_list, fp_rate, probes):
    assert_same_filter(key_list, fp_rate, probes)


@pytest.mark.parametrize("fp_rate", FP_RATES)
@pytest.mark.parametrize("size", [0, 1, 5000])
def test_sizes(size, fp_rate):
    mixed = [k if k % 3 else (f"k{k}" if k % 2 else (k, "t")) for k in range(size)]
    assert_same_filter(mixed, fp_rate, probes=range(size, size + 200))
    assert_same_filter([k * 2**54 - 2**63 for k in range(size)], fp_rate)


def test_probe_sum_past_uint64_is_reduced_exactly():
    # h1 + (k-1)*h2 does not fit in 64 bits for this key, and letting it
    # wrap would land on another bit: the build must reduce before adding.
    key = 0
    digest = hashlib.blake2b(repr(key).encode(), digest_size=16).digest()
    h1 = int.from_bytes(digest[:8], "little")
    h2 = int.from_bytes(digest[8:], "little") | 1
    bloom = BloomFilter.build([key])
    total = h1 + (bloom.num_hashes - 1) * h2
    assert total >= 2**64
    assert (total % 2**64) % bloom.num_bits != total % bloom.num_bits
    assert_same_filter([key], 0.01)
