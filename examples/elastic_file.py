#!/usr/bin/env python3
"""The abstract's promise: the file 'grows and shrinks with the
storage needs of applications, but transparently to them'.

Grows an LH* file under inserts, shrinks it under deletes, shows that
clients with images from the large epoch keep working through
tombstone redirection, then runs a concurrent mixed batch under
jittered (reordering) latency.
"""

import random

from repro.net import JitterLatencyModel, Network
from repro.sdds import LHStarFile


def main() -> None:
    file = LHStarFile(
        network=Network(JitterLatencyModel(seed=1, jitter=0.01)),
        bucket_capacity=8,
        shrink=True,
    )
    rng = random.Random(7)

    print("phase 1: growth")
    keys = [rng.randrange(10 ** 9) for __ in range(1500)]
    for key in keys:
        file.insert(key, f"record-{key}".encode() + b"\x00")
    i, n = file.state
    print(f"  {file.record_count} records -> "
          f"{file.coordinator.bucket_count} buckets, state (i={i}, n={n})")

    # A client that converged on the big file.
    veteran = file.new_client()
    for key in rng.sample(keys, 150):
        op = veteran.start_keyed("lookup", key)
        file.network.run()
        veteran.take_reply(op)
    image = (1 << veteran.i_image) + veteran.n_image
    print(f"  veteran client image: {image} buckets")

    print("phase 2: shrink")
    survivors = keys[1200:]
    for key in keys[:1200]:
        file.delete(key)
    i, n = file.state
    tombstones = sum(1 for b in file.buckets.values() if b.retired)
    print(f"  {file.record_count} records -> "
          f"{file.coordinator.bucket_count} live buckets "
          f"({tombstones} tombstones), state (i={i}, n={n})")

    print("phase 3: the veteran client (oversized image) still works")
    before = file.network.stats.snapshot()
    for key in rng.sample(survivors, 100):
        op = veteran.start_keyed("lookup", key)
        file.network.run()
        assert veteran.take_reply(op)["ok"]
    cost = file.network.stats.diff(before).messages / 100
    print(f"  100/100 lookups resolved at {cost:.2f} msgs each "
          "(tombstones redirect)")

    print("phase 4: concurrent mixed batch under jittered latency")
    # One lookup then four inserts, so every window of eight in-flight
    # operations mixes reads with inserts that force splits.
    batch = []
    for index, key in enumerate(survivors[:100]):
        batch.append(("lookup", key))
        for k in range(4 * index, 4 * index + 4):
            batch.append(("insert", 2_000_000_000 + k, b"fresh\x00"))
    results = file.run_concurrent(batch, concurrency=8)
    found = sum(1 for r in results[::5] if r is not None)
    print(f"  {found}/100 concurrent lookups correct while 400 inserts "
          "forced splits mid-flight")
    i, n = file.state
    print(f"  regrown to {file.coordinator.bucket_count} buckets, "
          f"state (i={i}, n={n})")


if __name__ == "__main__":
    main()
