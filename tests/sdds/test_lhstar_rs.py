"""LH*_RS parity maintenance and recovery."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sdds import LHStarRSFile
from repro.sdds.lhstar_rs import _scale, _xor, generator_matrix
from repro.gf import GF2


class TestPrimitives:
    def test_xor_zero_extends(self):
        assert _xor(b"\x01\x02\x03", b"\x01") == b"\x00\x02\x03"

    def test_xor_symmetric(self):
        assert _xor(b"ab", b"abcd") == _xor(b"abcd", b"ab")

    def test_scale_by_zero_and_one(self):
        assert _scale(0, b"xyz") == b"\x00\x00\x00"
        assert _scale(1, b"xyz") == b"xyz"

    def test_scale_matches_field(self):
        field = GF2(8)
        data = bytes(range(0, 250, 7))
        scaled = _scale(5, data)
        assert scaled == bytes(field.mul(5, b) for b in data)

    def test_generator_is_cauchy(self):
        g = generator_matrix(4, 2)
        assert g.nrows == 2 and g.ncols == 4
        assert g.all_nonzero()

    def test_generator_too_large(self):
        with pytest.raises(ValueError):
            generator_matrix(200, 100)


def populated_file(n=80, group_size=4, parity_count=2, capacity=4):
    file = LHStarRSFile(
        bucket_capacity=capacity,
        group_size=group_size,
        parity_count=parity_count,
    )
    for k in range(n):
        file.insert(k, f"payload-{k:04d}".encode() + b"\x00")
    return file


class TestRecovery:
    def test_single_bucket_recovery(self):
        file = populated_file()
        for address in list(file.buckets)[:4]:
            assert file.verify_recovery([address]), address

    def test_double_bucket_recovery_same_group(self):
        file = populated_file()
        groups: dict[int, list[int]] = {}
        for address in file.buckets:
            groups.setdefault(file.group_of(address), []).append(address)
        tested = 0
        for members in groups.values():
            if len(members) >= 2:
                assert file.verify_recovery(sorted(members)[:2])
                tested += 1
        assert tested > 0

    def test_triple_parity(self):
        file = LHStarRSFile(
            bucket_capacity=4, group_size=4, parity_count=3
        )
        for k in range(60):
            file.insert(k, f"r{k}".encode() + b"\x00")
        groups: dict[int, list[int]] = {}
        for address in file.buckets:
            groups.setdefault(file.group_of(address), []).append(address)
        for members in groups.values():
            if len(members) >= 3:
                assert file.verify_recovery(sorted(members)[:3])
                return
        pytest.skip("no group with 3 buckets materialised")

    def test_recovery_after_updates_and_deletes(self):
        file = populated_file()
        file.insert(7, b"updated-payload\x00")
        file.delete(13)
        file.delete(14)
        file.insert(13, b"reinserted\x00")
        for address in list(file.buckets)[:3]:
            assert file.verify_recovery([address])

    def test_recovery_after_splits(self):
        """Splits move records between buckets; parity must follow."""
        file = LHStarRSFile(bucket_capacity=2, group_size=4,
                            parity_count=2)
        for k in range(150):
            file.insert(k, f"split-{k}".encode() + b"\x00")
        assert file.bucket_count >= 8
        for address in list(file.buckets)[:6]:
            assert file.verify_recovery([address]), address

    def test_recovered_contents_exact(self):
        file = populated_file()
        recovered = file.recover_buckets([0])
        live = {
            rid: record.content
            for rid, record in file.buckets[0].records.items()
        }
        assert recovered[0] == live


class TestRecoveryValidation:
    def test_too_many_failures_rejected(self):
        file = populated_file(parity_count=2)
        with pytest.raises(ValueError):
            file.recover_buckets([0, 1, 2])

    def test_cross_group_rejected(self):
        file = populated_file(group_size=2)
        with pytest.raises(ValueError):
            file.recover_buckets([0, 2])  # groups 0 and 1

    def test_duplicates_rejected(self):
        file = populated_file()
        with pytest.raises(ValueError):
            file.recover_buckets([0, 0])

    def test_empty_request(self):
        assert populated_file().recover_buckets([]) == {}

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            LHStarRSFile(group_size=1)
        with pytest.raises(ValueError):
            LHStarRSFile(parity_count=0)


class TestParityTraffic:
    def test_inserts_generate_parity_messages(self):
        file = LHStarRSFile(group_size=4, parity_count=2)
        before = file.network.stats.snapshot()
        file.insert(1, b"x\x00")
        delta = file.network.stats.diff(before)
        assert delta.by_kind["parity_delta"] == 2

    def test_parity_bucket_count(self):
        file = populated_file(group_size=4, parity_count=2)
        data_groups = {file.group_of(a) for a in file.buckets}
        assert len(file.parity_buckets) == 2 * len(data_groups)


@settings(max_examples=10)
@given(
    st.lists(
        st.tuples(st.integers(0, 400), st.binary(min_size=1, max_size=20)),
        min_size=5,
        max_size=60,
    ),
    st.integers(0, 100),
)
def test_property_recovery_under_random_workload(operations, seed):
    """Random inserts/overwrites/deletes never break recoverability."""
    file = LHStarRSFile(bucket_capacity=3, group_size=4, parity_count=2)
    rng = random.Random(seed)
    live = set()
    for key, value in operations:
        if live and rng.random() < 0.2:
            victim = rng.choice(sorted(live))
            file.delete(victim)
            live.discard(victim)
        file.insert(key, value)
        live.add(key)
    for address in list(file.buckets)[:3]:
        assert file.verify_recovery([address])
