"""Invariant oracles: the faulted store versus a fault-free twin.

The chaos runner executes one seeded workload twice — once on a
network the nemesis is torturing, once on a perfectly reliable twin —
and these oracles assert that the only admissible differences are the
ones the paper documents (search false positives) or the ones the
fault model forces (operations whose retry budget died, tracked as
*uncertain*).  Checked after the nemesis quiesces and the file heals:

* **acked durability** — every acknowledged insert is retrievable
  and decrypts to the acknowledged text.
* **search agreement** — verified matches agree with the twin's,
  modulo uncertain rids; recall is preserved (every twin match is at
  least a candidate — the scheme's 100 % recall guarantee).
* **scan coverage** — a full record-store scan covers exactly the
  acked rids (plus possibly uncertain ones), and every scan
  terminates with its coverage fractions summing to 1 (enforced by
  ``take_scan``; surfacing here as a violation, not a crash).
* **monotone file level** — the coordinator's ``(i, n)`` state never
  steps backwards except through a legitimate delete-driven merge.
* **parity consistency** — for LH*_RS files, every live record is
  covered by its group's parity, and every parity slot (payload and
  recorded lengths) recomputes from the dumped group contents.
* **heal convergence** — after the nemesis quiesces, no bucket stays
  declared dead (recovery completed and probes cleared the rest).
* **tombstone convergence** — every retired bucket is empty and its
  merge-target forwarding chain reaches a live bucket (membership
  events leave no dangling redirects).
* **migration integrity** — across merges, leaves and rejoins no
  record is lost or duplicated: each acked rid sits in exactly one
  live bucket.
* **post-heal levels** — once healed, every live bucket's level
  matches the LH* addressing formula for the coordinator's final
  ``(i, n)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import SDDSError


@dataclass(frozen=True)
class Violation:
    """One invariant breach: which oracle, and what it saw."""

    invariant: str
    detail: str

    def to_dict(self) -> dict[str, Any]:
        return {"invariant": self.invariant, "detail": self.detail}


def check_durability(
    store: Any, model: dict[int, str], uncertain: set[int]
) -> list[Violation]:
    """Every acked insert must read back as the acked text."""
    violations = []
    for rid in sorted(model):
        if rid in uncertain:
            continue
        try:
            text = store.get(rid)
        except SDDSError as error:
            violations.append(Violation(
                "acked-durability",
                f"get({rid}) failed after heal: {error}",
            ))
            continue
        if text != model[rid]:
            violations.append(Violation(
                "acked-durability",
                f"get({rid}) = {text!r}, acked {model[rid]!r}",
            ))
    return violations


def check_search_agreement(
    pattern: str,
    chaos_result: Any,
    twin_result: Any,
    uncertain: set[int],
) -> list[Violation]:
    """Verified matches agree modulo uncertainty; recall holds.

    Candidate sets may legitimately differ (the scheme's documented
    false positives are corpus-dependent, and uncertain rids may be
    half-indexed), but after client-side verification the match sets
    must be identical outside the uncertain rids — and every certain
    twin match must at least have been a chaos candidate, or the scan
    round lost a record (recall breach).
    """
    violations = []
    chaos_matches = set(chaos_result.matches) - uncertain
    twin_matches = set(twin_result.matches) - uncertain
    if chaos_matches != twin_matches:
        violations.append(Violation(
            "search-agreement",
            f"search({pattern!r}) matches "
            f"{sorted(chaos_matches)} != twin "
            f"{sorted(twin_matches)}",
        ))
    missing = twin_matches - set(chaos_result.candidates)
    if missing:
        violations.append(Violation(
            "search-agreement",
            f"search({pattern!r}) lost recall: twin matches "
            f"{sorted(missing)} never became candidates",
        ))
    return violations


def check_scan_coverage(
    store: Any, model: dict[int, str], uncertain: set[int]
) -> list[Violation]:
    """A full record-store scan sees the acked rids, nothing else.

    ``take_scan`` has already enforced that coverage fractions summed
    to exactly 1 (raising ``RuntimeError`` otherwise — reported by the
    caller as a scan-coverage violation); this checks the scan's
    *content* against the acked model.
    """
    from repro.sdds.lhstar import RidScanMatcher

    try:
        scanned = set(store.record_file.scan(RidScanMatcher()))
    except SDDSError as error:
        return [Violation(
            "scan-coverage", f"record scan failed after heal: {error}"
        )]
    except RuntimeError as error:
        return [Violation("scan-coverage", str(error))]
    acked = set(model) - uncertain
    lost = acked - scanned
    ghosts = scanned - set(model) - uncertain
    violations = []
    if lost:
        violations.append(Violation(
            "scan-coverage",
            f"scan missed acked rids {sorted(lost)}",
        ))
    if ghosts:
        violations.append(Violation(
            "scan-coverage",
            f"scan saw rids never acked: {sorted(ghosts)}",
        ))
    return violations


class LevelMonitor:
    """Tracks the coordinator's ``(i, n)`` state across the workload.

    The LH* file level only grows under inserts.  Without shrink it
    never steps back at all.  With shrink it steps back through
    merges, which only delete-driven underflows make possible — but
    the step lands asynchronously (underflows ride the network, and a
    merge skipped for a dead bucket is re-attempted when liveness
    changes), so after the first delete any decrease is legal.
    The runner feeds one ``observe`` per operation.
    """

    def __init__(self, name: str, shrink: bool = False) -> None:
        self.name = name
        self.shrink = shrink
        self._last: tuple[int, int] | None = None
        self._deleted_ever = False
        self.violations: list[Violation] = []

    def observe(self, state: tuple[int, int], deleted: bool) -> None:
        if deleted:
            self._deleted_ever = True
        if (
            self._last is not None
            and state < self._last
            and not (self.shrink and self._deleted_ever)
        ):
            self.violations.append(Violation(
                "monotone-level",
                f"{self.name} state {state} < {self._last} "
                + ("with no delete yet" if self.shrink
                   else "on a non-shrinking file"),
            ))
        self._last = state


def check_heal_convergence_dead(
    name: str, dead: dict[int, Any] | set[int]
) -> list[Violation]:
    """After quiesce + probe rounds no bucket may stay declared dead;
    ``dead`` is the ``dead`` map of ``network.coordinator_state``."""
    remaining = sorted(dead)
    if not remaining:
        return []
    return [Violation(
        "heal-convergence",
        f"{name} still has dead buckets {remaining} after heal",
    )]


def check_tombstone_convergence(
    name: str, buckets: dict[int, dict]
) -> list[Violation]:
    """Every retired bucket is an empty tombstone whose merge-target
    chain reaches a live bucket in finitely many hops — a stale
    client image redirected through it always lands somewhere that
    answers."""
    violations = []
    for address in sorted(buckets):
        info = buckets[address]
        if not info["retired"]:
            continue
        if info["records"]:
            violations.append(Violation(
                "tombstone-convergence",
                f"{name} tombstone {address} still holds rids "
                f"{sorted(r.rid for r in info['records'])}",
            ))
        target = info["merge_target"]
        seen = {address}
        while target is not None:
            if target in seen or target not in buckets:
                violations.append(Violation(
                    "tombstone-convergence",
                    f"{name} tombstone {address} forwards to "
                    f"{target}, which is "
                    + ("a redirect cycle" if target in seen
                       else "not a known bucket"),
                ))
                break
            seen.add(target)
            follow = buckets[target]
            if not follow["retired"]:
                break
            target = follow["merge_target"]
        else:
            violations.append(Violation(
                "tombstone-convergence",
                f"{name} tombstone {address} has no merge target",
            ))
    return violations


def check_migration_integrity(
    name: str, buckets: dict[int, dict],
    acked: set[int], uncertain: set[int],
) -> list[Violation]:
    """No record lost or duplicated across membership events.

    Reads the raw bucket dumps (not the keyed/scan paths, which have
    their own oracles): every certainly acked rid must sit in exactly
    one live bucket, and no rid — acked or not — may sit in more than
    one.
    """
    holders: dict[int, list[int]] = {}
    for address in sorted(buckets):
        info = buckets[address]
        if info["pending"]:
            continue
        for record in info["records"]:
            holders.setdefault(record.rid, []).append(address)
    violations = []
    for rid in sorted(holders):
        if len(holders[rid]) > 1:
            violations.append(Violation(
                "migration-integrity",
                f"{name} rid {rid} duplicated across buckets "
                f"{holders[rid]}",
            ))
    lost = sorted(rid for rid in acked - uncertain
                  if rid not in holders)
    if lost:
        violations.append(Violation(
            "migration-integrity",
            f"{name} lost acked rids {lost} from every bucket",
        ))
    return violations


def check_post_heal_levels(
    name: str, state: tuple[int, int], buckets: dict[int, dict]
) -> list[Violation]:
    """After heal, live buckets carry the level LH* addressing
    dictates for the final ``(i, n)`` — merges dropped the level back
    exactly where membership says it belongs."""
    from repro.sdds.hashing import bucket_level

    i, n = state
    count = (1 << i) + n
    violations = []
    for address in sorted(buckets):
        info = buckets[address]
        if info["retired"] or info["pending"]:
            continue
        if address >= count:
            violations.append(Violation(
                "post-heal-levels",
                f"{name} bucket {address} is live beyond the file "
                f"extent {count}",
            ))
            continue
        expected = bucket_level(address, i, n)
        if info["level"] != expected:
            violations.append(Violation(
                "post-heal-levels",
                f"{name} bucket {address} at level {info['level']}, "
                f"addressing demands {expected} for (i={i}, n={n})",
            ))
    return violations


def check_parity_consistency(network: Any, file: Any) -> list[Violation]:
    """Every live LH*_RS record is covered by parity, and every parity
    slot is the generator-weighted XOR of its contributors.

    Reads raw state through ``network.dump_buckets`` /
    ``network.dump_parity`` — in-process on the simulator, over the
    control plane on the live backend — and recomputes the parity
    algebra here, so one oracle runs on both.  Slot lengths are
    checked too: a reconstruction truncates to them, so a wrong
    length loses bytes exactly like a wrong payload.
    """
    if file.rs is None:
        return []
    buckets = network.dump_buckets(file.name)
    slots = network.dump_parity(file.name)
    violations: list[Violation] = []
    live = {
        address: info for address, info in buckets.items()
        if not info["retired"] and not info["pending"]
    }
    for group in sorted({file.group_of(address) for address in live}):
        members = file.members(group)
        contents: dict[int, dict[int, bytes]] = {}
        for offset, address in enumerate(members):
            info = live.get(address)
            if info is not None:
                contents[offset] = {
                    record.rid: record.content
                    for record in info["records"]
                }
        # Coverage: every live record owes a parity contribution.
        covered: dict[int, set[int]] = {
            offset: set() for offset in range(len(members))
        }
        for slot in (slots.get((group, 0)) or {}).values():
            for offset, rid in enumerate(slot["rids"]):
                if rid is not None:
                    covered[offset].add(rid)
        for offset, table in contents.items():
            missing = set(table) - covered[offset]
            if missing:
                violations.append(Violation(
                    "parity-consistency",
                    f"{file.name} bucket {members[offset]}: rids "
                    f"{sorted(missing)} have no parity contribution",
                ))
        # Algebra: each slot reconstructs from the dumps.
        for index in range(file.parity_count):
            row = file.generator.rows[index]
            for rank, slot in (slots.get((group, index)) or {}).items():
                problem = _slot_problem(slot, contents, members, row)
                if problem is not None:
                    violations.append(Violation(
                        "parity-consistency",
                        f"{file.name} parity ({group},{index}) rank "
                        f"{rank}: {problem}",
                    ))
    return violations


def _slot_problem(
    slot: dict, contents: dict[int, dict[int, bytes]], members: list[int],
    row: tuple[int, ...],
) -> str | None:
    """Why one dumped parity slot disagrees with its group's dumped
    records (``contents``: offset -> rid -> content; ``members``: the
    group's addresses by offset), or ``None``."""
    from repro.sdds.lhstar_rs import _scale, _xor

    expected = b""
    for offset, rid in enumerate(slot["rids"]):
        if rid is None:
            continue
        content = contents.get(offset, {}).get(rid)
        if content is None:
            return (f"contributor rid {rid} not held by bucket "
                    f"{members[offset]}")
        if slot["lengths"][offset] != len(content):
            return (f"length {slot['lengths'][offset]} recorded for rid "
                    f"{rid}, bucket {members[offset]} holds "
                    f"{len(content)} bytes")
        expected = _xor(expected, _scale(row[offset], content))
    if expected.rstrip(b"\x00") != slot["payload"].rstrip(b"\x00"):
        return "payload does not match its group contents"
    return None
