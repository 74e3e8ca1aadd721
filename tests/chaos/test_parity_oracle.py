"""The one parity oracle is at least as strong as ``verify_recovery``.

``check_parity_consistency`` recomputes the parity algebra from
``network.dump_buckets`` / ``network.dump_parity`` — the same code on
the simulator and the live backend.  ``LHStarRSFile.verify_recovery``
reconstructs a bucket from its group in-process and stays the
reference: for an untouched file and three out-of-band damages, the
oracle must report a violation exactly when the reconstruction fails.
"""

from __future__ import annotations

import pytest

from repro.chaos.invariants import check_parity_consistency
from repro.sdds.lhstar_rs import LHStarRSFile


def _flip_payload_byte(file, address, rid, slot, offset):
    slot.payload = bytes([slot.payload[0] ^ 0x5A]) + slot.payload[1:]


def _remove_record(file, address, rid, slot, offset):
    del file.buckets[address].records[rid]


def _shorten_length(file, address, rid, slot, offset):
    slot.lengths[offset] -= 1


DAMAGES = {
    "untouched": None,
    "flipped-parity-byte": _flip_payload_byte,
    "record-removed": _remove_record,
    "wrong-slot-length": _shorten_length,
}


@pytest.mark.parametrize("damage", list(DAMAGES))
def test_oracle_agrees_with_verify_recovery(damage):
    file = LHStarRSFile(name="po", bucket_capacity=4, group_size=4,
                        parity_count=2)
    for key in range(12):
        file.insert(key, b"record %d" % key)
    assert len(file.buckets) > 1
    # The victim: the lowest rid of the lowest-address data bucket,
    # and its slot in the group's parity-0 bucket.
    address = min(file.buckets)
    rid = min(file.buckets[address].records)
    offset = file.offset_of(address)
    parity = file.parity_buckets[(file.group_of(address), 0)]
    slot = next(slot for slot in parity.slots.values()
                if slot.rids[offset] == rid)
    if DAMAGES[damage] is not None:
        DAMAGES[damage](file, address, rid, slot, offset)

    violations = check_parity_consistency(file.network, file)
    recovers = file.verify_recovery([address])
    assert bool(violations) == (not recovers)
    assert recovers == (damage == "untouched"), violations
