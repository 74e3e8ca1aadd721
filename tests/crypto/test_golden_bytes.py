"""Bytes pinned at the commit before the T-table AES, the big-integer
CTR XOR, the translate-table HMAC pads and the once-per-hierarchy HKDF
extract (8c58982): those changes may only move time, never a byte.

Every literal below was printed by that commit's code, not by the code
under test — persisted stores, wire sizes and sim-vs-live parity rest
on these staying put.
"""

import pytest

from repro.core.config import SchemeParameters
from repro.core.scheme import EncryptedSearchableStore
from repro.crypto.keys import KeyHierarchy
from repro.crypto.modes import CtrCipher

NONCE = bytes.fromhex("0011223344556677")
PLAINTEXT = bytes((7 * i + 3) % 256 for i in range(33))
CTR_128 = (
    "b51181898c7b13dd1d7695886329f30f"
    "182921b9340e9f5cda3e4d4fe1f98c81"
    "7d"
)


class TestCtrGolden:
    @pytest.mark.parametrize("length", [0, 1, 15, 16, 17, 33])
    def test_aes128_ctr_prefixes(self, length):
        """Empty input, a lone byte, one short of a block, a block, one
        over, two blocks and a byte — CTR is a prefix-stable stream."""
        cipher = CtrCipher(bytes(range(16)))
        assert cipher.encrypt(PLAINTEXT[:length], NONCE) == (
            bytes.fromhex(CTR_128)[:length]
        )

    def test_aes256_ctr(self):
        cipher = CtrCipher(bytes(range(32)))
        assert cipher.encrypt(PLAINTEXT, NONCE).hex() == (
            "ee34a00a239a95993a26af93bc53a052"
            "baeeaeb8bff1197442583e3f161def5e"
            "d7"
        )


class TestKeyHierarchyGolden:
    def test_derived_keys_and_nonce(self):
        keys = KeyHierarchy(b"repro-master-key")
        assert keys.record_nonce(7).hex() == "77a67bf90fed85d0"
        assert keys.record_store_key().hex() == (
            "40fa83c9aab009d5b5d2c67552624bbe"
        )
        assert keys.chunking_key(2).hex() == (
            "88eb4dff8820e839716961c3527d597b"
        )


TRAINING = [
    b"ABOGADO ALEXANDER\x00", b"SCHWARZ THOMAS\x00",
    b"LITWIN WITOLD\x00", b"TSUI PETER\x00", b"ANDREWS MARY ANN\x00",
]


class TestStorePutGolden:
    """One ``put`` into the benchmark's scheme (full(4), 64 codes,
    k = 2): the record-store ciphertext and all eight index streams."""

    @pytest.fixture
    def store(self):
        params = SchemeParameters.full(4, n_codes=64, dispersal=2)
        store = EncryptedSearchableStore.with_trained_encoder(
            params, TRAINING
        )
        store.put(7, "SCHWARZ THOMAS J")
        return store

    def test_record_store_ciphertext(self, store):
        (record,) = store.record_file.all_records()
        assert (record.rid, record.content.hex()) == (
            7, "1767498b947593c1af000a6f7ed7d8dd41"
        )

    def test_index_streams(self, store):
        stored = {
            record.rid: record.content.hex()
            for record in store.index_file.all_records()
        }
        assert stored == {
            56: "0303000007", 57: "0100040501",
            58: "0401070307", 59: "0304050406",
            60: "0703050407", 61: "0200030102",
            62: "0706050306", 63: "0104040203",
        }

    def test_plan_needles_and_billed_search(self, store):
        plan = store.pipeline.plan_query(b"SCHWARZ")
        assert plan.request_size() == 32
        assert [s.hex() for s in plan.needles[(0, 0)]] == ["03", "01"]
        assert [s.hex() for s in plan.needles[(3, 3)]] == ["06", "04"]
        result = store.search("SCHWARZ")
        assert result.candidates == {7}
        assert (result.scan_cost.messages, result.scan_cost.bytes) == (
            2, 292
        )
        assert (result.cost.messages, result.cost.bytes) == (4, 389)
