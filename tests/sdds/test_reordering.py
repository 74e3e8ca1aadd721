"""Protocol robustness under message reordering (jittered latency)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EncryptedSearchableStore, SchemeParameters
from repro.net import JitterLatencyModel, Network
from repro.sdds import LHStarFile, LHStarRSFile
from repro.sdds.lhstar import RidScanMatcher


def jittered_network(seed=0):
    return Network(JitterLatencyModel(seed=seed, jitter=0.05))


class TestJitterModel:
    def test_deterministic_per_seed(self):
        a = JitterLatencyModel(seed=5)
        b = JitterLatencyModel(seed=5)
        assert [a.latency(64) for __ in range(5)] == [
            b.latency(64) for __ in range(5)
        ]

    def test_jitter_reorders_across_links_only(self):
        from repro.net.simulator import Node, Message

        class Sink(Node):
            def __init__(self):
                super().__init__("sink")
                self.order = []

            def handle(self, message: Message) -> None:
                self.order.append(message.payload["n"])

        net = jittered_network(seed=1)
        sink = net.attach(Sink())
        for n in range(20):
            net.attach(Sink.__base__(f"src-{n}"))
        # Different links: jitter reorders freely.
        for n in range(20):
            net.send(f"src-{n}", "sink", "data", {"n": n}, size=64)
        net.run()
        assert sink.order != list(range(20))  # reordering did happen
        assert sorted(sink.order) == list(range(20))
        # Same link: pairwise FIFO holds even under jitter.
        sink.order.clear()
        for n in range(20):
            net.send("src-0", "sink", "data", {"n": n}, size=64)
        net.run()
        assert sink.order == list(range(20))


class TestLHStarUnderJitter:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_inserts_and_lookups(self, seed):
        file = LHStarFile(network=jittered_network(seed),
                          bucket_capacity=3)
        for k in range(150):
            file.insert(k * 13, str(k).encode() + b"\x00")
        for k in range(150):
            assert file.lookup(k * 13) == str(k).encode() + b"\x00"

    def test_scan_complete_under_jitter(self):
        file = LHStarFile(network=jittered_network(7),
                          bucket_capacity=3)
        for k in range(120):
            file.insert(k, b"v\x00")
        hits = file.scan(RidScanMatcher())
        assert sorted(hits) == list(range(120))

    def test_rs_recovery_under_jitter(self):
        file = LHStarRSFile(
            network=jittered_network(9), bucket_capacity=3,
            group_size=4, parity_count=2,
        )
        for k in range(100):
            file.insert(k, f"j{k}".encode() + b"\x00")
        for address in list(file.buckets)[:3]:
            assert file.verify_recovery([address])

    def test_shrink_under_jitter(self):
        file = LHStarFile(network=jittered_network(11),
                          bucket_capacity=4, shrink=True)
        for k in range(200):
            file.insert(k, b"v\x00")
        for k in range(180):
            file.delete(k)
        for k in range(180, 200):
            assert file.lookup(k) == b"v\x00"


class TestSchemeUnderJitter:
    def test_encrypted_search(self):
        store = EncryptedSearchableStore(
            SchemeParameters.full(4), network=jittered_network(13)
        )
        store.put(1, "SCHWARZ THOMAS")
        store.put(2, "LITWIN WITOLD")
        assert store.search("SCHWARZ").matches == frozenset({1})
        assert store.search("WITOLD").matches == frozenset({2})


@settings(max_examples=10)
@given(st.integers(0, 10 ** 6))
def test_property_jitter_never_breaks_lookups(seed):
    file = LHStarFile(network=jittered_network(seed),
                      bucket_capacity=2)
    for k in range(60):
        file.insert(k * 7, b"x\x00")
    for k in range(60):
        assert file.lookup(k * 7) == b"x\x00"
