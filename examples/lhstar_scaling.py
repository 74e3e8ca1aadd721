#!/usr/bin/env python3
"""The SDDS substrate in action: LH* growing under load.

Shows the properties the paper inherits from LH*: the file spreads
over more buckets as it grows, clients with stale images still reach
every record in at most two extra hops, and converged clients pay a
constant two messages per lookup regardless of file size.
"""

import random

from repro.sdds import LHStarFile


class Contains:
    """Scan matcher: every bucket reports the rids of its records that
    contain ``needle``."""

    def __init__(self, needle: bytes) -> None:
        self.needle = needle

    def match_bucket(self, haystack):
        return list(haystack.find_records(self.needle))


def main() -> None:
    file = LHStarFile(bucket_capacity=16)
    rng = random.Random(42)
    print(f"{'records':>8} {'buckets':>8} {'(i, n)':>8} "
          f"{'msgs/insert':>12} {'msgs/lookup':>12}")
    total = 0
    for batch in range(6):
        before = file.network.stats.snapshot()
        for __ in range(500):
            key = rng.randrange(10 ** 9)
            file.insert(key, f"record-{key}".encode() + b"\x00")
            total += 1
        insert_cost = file.network.stats.diff(before).messages / 500
        probe = rng.sample(sorted(
            rid for bucket in file.buckets.values()
            for rid in bucket.records
        ), 100)
        for key in probe:
            file.lookup(key)  # converge the client image
        before = file.network.stats.snapshot()
        for key in probe:
            file.lookup(key)
        lookup_cost = file.network.stats.diff(before).messages / 100
        i, n = file.state
        print(f"{total:8} {file.bucket_count:8} {f'({i},{n})':>8} "
              f"{insert_cost:12.2f} {lookup_cost:12.2f}")

    print("\na brand-new client (image = one bucket) probes the "
          "full file:")
    stale = file.new_client()
    before = file.network.stats.snapshot()
    probe = rng.sample(sorted(
        rid for bucket in file.buckets.values() for rid in bucket.records
    ), 200)
    for key in probe:
        op = stale.start_keyed("lookup", key)
        file.network.run()
        assert stale.take_reply(op)["ok"]
    cost = file.network.stats.diff(before).messages / 200
    print(f"  {cost:.2f} messages/lookup while converging "
          f"({stale.iam_count} image adjustments received)")
    print(f"  final image: 2^{stale.i_image} + {stale.n_image} buckets "
          f"of the real {file.bucket_count}")

    print("\nparallel scan (substring search on all buckets in one "
          "round):")
    needle = f"record-{probe[0]}".encode()
    before = file.network.stats.snapshot()
    hits = file.scan(Contains(needle))
    delta = file.network.stats.diff(before)
    print(f"  {len(hits)} hit(s) for {needle.decode()!r}, "
          f"{delta.messages} messages "
          f"({file.bucket_count} buckets x request+reply)")


if __name__ == "__main__":
    main()
