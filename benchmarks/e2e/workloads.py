"""The four workloads: inputs, set-up, op streams and the checked executor.

Everything the store sees is generated here from ``--seed``; nothing in
``src/`` learns the workload name or the seed.  The store is driven
through its public API only (``EncryptedSearchableStore`` and, for the
live tier, ``LiveCluster``).

Load model: one closed-loop client in one process.  The store API is
synchronous — ``Network.run()`` / ``LiveNetwork.run()`` drain to
quiescence with one operation in flight per client — so a caller waits
for each reply before it can send the next request; an open loop would
only measure the generator's own backlog.

Each workload has pinned sizes for what it loads and a *stream*: an
endless, seeded sequence of operations in a fixed mix.  The runner
executes the stream until ``--seconds`` have passed, so a run takes the
same time on a slow and a fast machine and a faster store simply
completes more operations.  What must not depend on speed (peak RSS,
exact message counts) is read at a pinned operation count instead.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import random
import resource
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Iterator

from repro.core.config import SchemeParameters
from repro.core.scheme import EncryptedSearchableStore
from repro.data.phonebook import PhonebookEntry, generate_directory
from repro.net.faults import RetryPolicy

#: Entries whose names train the Stage-2 encoder.
TRAINING_SAMPLE = 2000
#: Shortest surname used as a search pattern.
MIN_PATTERN = 5
#: Patterns per ``search_batch`` call.
BATCH = 8
#: Ops of a stream that go into the op-list hash.
HASHED_OPS = 200
#: Searches whose billed message count makes ``search_msgs_per_op``.
COUNTED_SEARCHES = 8
#: Live-tier retry timeout.  The default (0.25 s) is wall-clock on the
#: live tier; a scheduling stall that long on a busy 2-core box would
#: retransmit, bill an extra message and break parity with the twin.
LIVE_RETRY = RetryPolicy(timeout=5.0)


def scheme_parameters() -> SchemeParameters:
    """The §5 store.  Not bare ``full(4)``: its 32-bit chunk domain
    silently leaves the fused codec path (docs/PERFORMANCE.md "Fallback
    triggers") and would measure the reference twin."""
    return SchemeParameters.full(4, n_codes=64, dispersal=2)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- inputs ----------------------------------------------------------------


@dataclass
class Inputs:
    seed: int
    scale: float
    entries: list[PhonebookEntry]
    training: list[bytes]

    def scaled(self, count: int) -> int:
        return max(int(count * self.scale), 1) if count else 0


def make_inputs(seed: int, scale: float, directory_size: int) -> Inputs:
    size = max(int(directory_size * scale), 64)
    directory = generate_directory(n=size, seed=seed)
    sample = directory.sample(min(TRAINING_SAMPLE, size), seed=seed)
    return Inputs(
        seed=seed, scale=scale, entries=directory.entries,
        training=[entry.name.encode("ascii") for entry in sample],
    )


def make_store(inputs: Inputs, bucket_capacity: int,
               **kwargs: Any) -> EncryptedSearchableStore:
    return EncryptedSearchableStore.with_trained_encoder(
        scheme_parameters(), inputs.training,
        bucket_capacity=bucket_capacity, **kwargs,
    )


# -- the model the store is checked against --------------------------------


class Model:
    """What the store must hold: ``rid -> text``.

    Keeps the live rids in a list as well, so a stream can pick one at
    random in O(1) however large the store has grown.
    """

    def __init__(self) -> None:
        self.texts: dict[int, str] = {}
        self._rids: list[int] = []
        self._slot: dict[int, int] = {}
        self.last_deleted: int | None = None

    def put(self, rid: int, text: str) -> None:
        if rid not in self.texts:
            self._slot[rid] = len(self._rids)
            self._rids.append(rid)
        self.texts[rid] = text

    def delete(self, rid: int) -> bool:
        if rid not in self.texts:
            return False
        del self.texts[rid]
        slot = self._slot.pop(rid)
        last = self._rids.pop()
        if last != rid:
            self._rids[slot] = last
            self._slot[last] = slot
        self.last_deleted = rid
        return True

    def pick(self, rng: random.Random) -> int:
        return self._rids[rng.randrange(len(self._rids))]

    def matches(self, pattern: str) -> frozenset[int]:
        return frozenset(
            rid for rid, text in self.texts.items() if pattern in text
        )

    def __len__(self) -> int:
        return len(self.texts)


def read_op(model: Model, rng: random.Random) -> tuple:
    """A get of a live rid — or, one time in twenty, of the rid deleted
    last, which must read as absent: a delete that did not delete is
    caught there."""
    gone = model.last_deleted
    if gone is not None and gone not in model.texts \
            and rng.random() < 0.05:
        return ("get", gone)
    return ("get", model.pick(rng))


def apply_to_model(model: Model, op: tuple) -> None:
    if op[0] == "put":
        model.put(op[1], op[2])
    elif op[0] == "delete":
        model.delete(op[1])


class SurnameSampler:
    """Frequency-proportional surname draws, stratified.

    ``draw(rng, k, strata)`` picks from the ``k``-th of ``strata`` equal
    slices of the frequency-ordered, count-weighted surname list, so any
    ``strata`` consecutive draws cover common and rare names alike.  Each
    draw is still frequency-proportional and a common name still comes
    up again and again (about a third of the searches of a run repeat an
    earlier one, which is what the plan cache, automaton cache and scan
    memo see).  Independent draws would have the same mix on average,
    but with the few dozen searches a run has time for, runs would
    differ by which expensive patterns they happened to draw.
    """

    def __init__(self, surnames: list[str]) -> None:
        counts = Counter(surnames)
        self.names = sorted(counts, key=lambda name: (-counts[name], name))
        self.cumulative = list(itertools.accumulate(
            counts[name] for name in self.names))

    def draw(self, rng: random.Random, k: int, strata: int) -> str:
        point = (k % strata + rng.random()) / strata * self.cumulative[-1]
        return self.names[bisect.bisect_right(self.cumulative, point)]

    def batch(self, rng: random.Random, size: int) -> tuple[str, ...]:
        """``size`` distinct surnames, one per stratum where it can."""
        size = min(size, len(self.names))
        chosen: dict[str, None] = {}
        for k in range(size):
            chosen.setdefault(self.draw(rng, k, size))
        while len(chosen) < size:  # one name spanned two strata
            chosen.setdefault(self.names[rng.randrange(len(self.names))])
        return tuple(chosen)


# -- the checked executor --------------------------------------------------


@dataclass
class Recorder:
    """Latency samples, billed traffic and failures of one run."""

    latencies: dict[str, list[float]] = field(
        default_factory=lambda: defaultdict(list))
    #: op kind -> [billed messages, billed bytes]
    billed: dict[str, list[int]] = field(
        default_factory=lambda: defaultdict(lambda: [0, 0]))
    search_messages: list[int] = field(default_factory=list)
    candidates: int = 0
    matches: int = 0
    batch_patterns: int = 0
    attempted: int = 0
    #: ops that returned (a batch counts once per pattern: the unit of
    #: throughput is a keyed op or a pattern answered) and the seconds
    #: the client waited for them
    completed: int = 0
    busy_s: float = 0.0
    failures: list[str] = field(default_factory=list)

    def fail(self, op: tuple, why: str) -> None:
        self.failures.append(f"{op[0]} {str(op[1])[:60]}: {why}")


def _check_search(model: Model, pattern: str, result: Any) -> str | None:
    expected = model.matches(pattern)
    if result.matches != expected:
        return (f"matches differ from the model: {len(result.matches)} "
                f"returned, {len(expected)} expected")
    if not result.matches <= result.candidates:
        return "a match is missing from the candidates"
    if result.false_positives != result.candidates - result.matches:
        return "false positives are not candidates minus matches"
    return None


def execute(store: EncryptedSearchableStore, model: Model, op: tuple,
            recorder: Recorder) -> None:
    """Run one op through the public API, time it, and check the answer
    against the model.  A raise, a timeout or a wrong answer is a failed
    op; the model is only advanced by ops that succeeded."""
    kind = op[0]
    stats = store.network.stats
    messages, size = stats.messages, stats.bytes
    recorder.attempted += 1
    started = perf_counter()
    try:
        if kind == "search_batch":
            answer = store.search_batch(list(op[1]))
        else:  # get, put, delete, search: the op names the method
            answer = getattr(store, kind)(*op[1:])
    except Exception:  # boundary: the run goes on and reports the failure
        recorder.fail(op, traceback.format_exc(limit=3))
        return
    elapsed = perf_counter() - started
    recorder.completed += len(op[1]) if kind == "search_batch" else 1
    recorder.busy_s += elapsed
    billed = recorder.billed[kind]
    billed[0] += stats.messages - messages
    billed[1] += stats.bytes - size

    problem = None
    if kind == "get":
        recorder.latencies[kind].append(elapsed)
        if answer != model.texts.get(op[1]):
            problem = "text differs from the model"
    elif kind == "put":
        recorder.latencies[kind].append(elapsed)
        model.put(op[1], op[2])
    elif kind == "delete":
        recorder.latencies[kind].append(elapsed)
        if answer != model.delete(op[1]):
            problem = "return value differs from the model"
    elif kind == "search":
        recorder.latencies[kind].append(elapsed)
        if len(recorder.search_messages) < COUNTED_SEARCHES:
            recorder.search_messages.append(answer.cost.messages)
        recorder.candidates += len(answer.candidates)
        recorder.matches += len(answer.matches)
        problem = _check_search(model, op[1], answer)
    else:
        # One sample per batch, in time per pattern: the quantity that
        # compares with a single search.
        recorder.latencies[kind].append(elapsed / len(op[1]))
        recorder.batch_patterns += len(op[1])
        if set(answer) != set(op[1]):
            problem = "batch answered other patterns than asked"
        for pattern, result in answer.items():
            recorder.candidates += len(result.candidates)
            recorder.matches += len(result.matches)
            problem = problem or _check_search(model, pattern, result)
    if problem:
        recorder.fail(op, problem)


# -- workloads -------------------------------------------------------------


@dataclass
class Bench:
    """One set-up store with its model, ready for the timed phase."""

    store: EncryptedSearchableStore
    model: Model
    cluster: Any = None
    #: values the per-layer ledger and the extra metrics read afterwards
    facts: dict[str, float] = field(default_factory=dict)

    def close(self) -> None:
        if self.cluster is not None:
            self.cluster.shutdown()
            self.cluster = None


def load_factor(file: Any) -> float:
    """Records over capacity: how full the buckets of an LH* file are."""
    return len(file.all_records()) / (
        file.bucket_count * file.bucket_capacity)


class Workload:
    name = ""
    backend = "sim"
    bucket_capacity = 128
    #: directory entries generated (scaled); must cover what the stream
    #: can consume in one run on a fast machine
    directory_size = 0
    #: records in the store when the timed phase starts (scaled)
    loaded = 0
    #: peak RSS is read when this many stream ops have completed
    rss_after_ops = 0

    def initial_model(self, inputs: Inputs) -> Model:
        model = Model()
        for entry in inputs.entries[:inputs.scaled(self.loaded)]:
            model.put(entry.rid, entry.record_text)
        return model

    def setup(self, inputs: Inputs, scratch: Path) -> Bench:
        """Build the store the timed phase runs on (timed as set-up)."""
        store = make_store(inputs, self.bucket_capacity)
        model = self.initial_model(inputs)
        for rid, text in model.texts.items():
            store.put(rid, text)
        return Bench(store, model)

    def prologue(self, bench: Bench, inputs: Inputs,
                 recorder: Recorder) -> None:
        """Pinned ops before the stream (inside the measured time)."""

    def stream(self, model: Model, inputs: Inputs,
               rng: random.Random) -> Iterator[tuple]:
        raise NotImplementedError

    def epilogue(self, bench: Bench, inputs: Inputs,
                 recorder: Recorder) -> None:
        """Pinned ops after the stream (after the deadline)."""

    def verify(self, bench: Bench, inputs: Inputs, executed: list[tuple],
               recorder: Recorder) -> None:
        """Untimed whole-run checks and facts."""
        bench.facts["index_load_factor_put"] = load_factor(
            bench.store.index_file)

    def surnames(self, inputs: Inputs) -> SurnameSampler:
        """Search patterns: surnames of the loaded records."""
        loaded = inputs.entries[:inputs.scaled(self.loaded)]
        return SurnameSampler([entry.last_name for entry in loaded
                               if len(entry.last_name) >= MIN_PATTERN])

    def fresh_entries(self, inputs: Inputs) -> Iterator[PhonebookEntry]:
        return iter(inputs.entries[inputs.scaled(self.loaded):])

    def stream_start_model(self, inputs: Inputs) -> Model:
        """The model of the store the stream starts on."""
        return self.initial_model(inputs)

    def op_hash(self, inputs: Inputs) -> str:
        """Hash of the stream's first ops, run dry against a model."""
        model = self.stream_start_model(inputs)
        digest = hashlib.sha256()
        ops = self.stream(model, inputs, random.Random(inputs.seed))
        for op in itertools.islice(ops, HASHED_OPS):
            digest.update(repr(op).encode())
            apply_to_model(model, op)
        return digest.hexdigest()[:16]


class SimQuery(Workload):
    """Read-only search, search_batch and get: bucket sweep,
    simulator rounds and candidate verify do the work, index
    building none; repeated surnames hit the plan, automaton and
    scan caches."""

    name = "sim_query"
    directory_size = 5200
    loaded = 4000
    #: one full cycle: 12 searches, one batch of 8 and their 400 gets
    rss_after_ops = 413
    searches_per_batch = 12
    gets_per_search = 20
    write_tail = 1000

    def stream(self, model, inputs, rng):
        # 100 search : 4 batches of 8 : 2,000 get, interleaved so that
        # the stream can stop anywhere and have run the same mix: every
        # pattern, single or batched, is followed by its share of gets.
        names = self.surnames(inputs)
        while True:
            for k in range(self.searches_per_batch):
                yield ("search", names.draw(rng, k, self.searches_per_batch))
                for __ in range(self.gets_per_search):
                    yield ("get", model.pick(rng))
            batch = names.batch(rng, BATCH)
            yield ("search_batch", batch)
            for __ in range(self.gets_per_search * len(batch)):
                yield ("get", model.pick(rng))

    def epilogue(self, bench, inputs, recorder):
        # The only writes of this workload, after the read-only stream:
        # what a put and a delete cost when every bucket holds warm scan
        # caches that the write must drop.  It also gives this workload
        # the put and delete samples every workload reports.
        tail = list(itertools.islice(self.fresh_entries(inputs),
                                     inputs.scaled(self.write_tail)))
        for entry in tail:
            execute(bench.store, bench.model,
                    ("put", entry.rid, entry.record_text), recorder)
        for entry in tail:
            execute(bench.store, bench.model, ("delete", entry.rid),
                    recorder)


class SimIngest(Workload):
    """Write path: stream building, CTR encrypt, LH* insert/split
    and per-message simulator cost do the work and the sweep almost
    none, so a sweep optimisation must show no change here."""

    name = "sim_ingest"
    directory_size = 60000
    #: set-up is a bulk_load of this many records into a fresh store
    loaded = 1500
    rss_after_ops = 5000
    probes = 4

    def setup(self, inputs, scratch):
        store = make_store(inputs, self.bucket_capacity)
        model = self.initial_model(inputs)
        store.bulk_load(dict(model.texts))
        return Bench(store, model)

    def prologue(self, bench, inputs, recorder):
        # Probe searches on the bulk-loaded store expose the file shape
        # bulk_load leaves behind (see README: split storm); then the
        # put stream starts on a fresh, empty store.
        rng = random.Random(inputs.seed + 1)
        names = self.surnames(inputs)
        for k in range(self.probes):
            execute(bench.store, bench.model,
                    ("search", names.draw(rng, k, self.probes)), recorder)
        bench.facts["index_load_factor_bulk"] = load_factor(
            bench.store.index_file)
        bench.store = make_store(inputs, self.bucket_capacity)
        bench.model = Model()

    def stream_start_model(self, inputs):
        return Model()

    def stream(self, model, inputs, rng):
        # 10,000 put : 1,000 overwrite : 1,000 delete, interleaved, plus
        # two read-backs per cycle so what was written is checked.
        fresh = self.fresh_entries(inputs)
        entries = inputs.entries
        while True:
            for __ in range(10):
                entry = next(fresh, None)
                if entry is None:
                    return  # directory exhausted
                yield ("put", entry.rid, entry.record_text)
            yield ("put", model.pick(rng),
                   entries[rng.randrange(len(entries))].record_text)
            yield ("delete", model.pick(rng))
            yield read_op(model, rng)
            yield read_op(model, rng)

    def verify(self, bench, inputs, executed, recorder):
        super().verify(bench, inputs, executed, recorder)
        bench.facts["storage_overhead_ratio"] = (
            bench.store.footprint().overhead)


class SimMixed(Workload):
    """Every search follows writes that invalidated haystacks, gram
    indexes and scan memos: a read-path cache gain paid for in
    invalidation or write cost shows here, not in sim_query."""

    name = "sim_mixed"
    directory_size = 8000
    loaded = 3000
    rss_after_ops = 800
    #: 65 % get, 25 % put (half new, half overwrite), 7.5 % delete,
    #: 2.5 % search.  Searches take nearly all of the time whatever
    #: their share, so a low share costs no search samples and buys
    #: keyed ones.
    cycle = (["get"] * 52 + ["new"] * 10 + ["overwrite"] * 10
             + ["delete"] * 6 + ["search"] * 2)
    strata = 12

    def stream(self, model, inputs, rng):
        names = self.surnames(inputs)
        fresh = self.fresh_entries(inputs)
        entries = inputs.entries
        searches = itertools.count()
        while True:
            order = list(self.cycle)
            rng.shuffle(order)
            for slot in order:
                if slot == "get":
                    yield read_op(model, rng)
                elif slot == "new":
                    entry = next(fresh, None)
                    if entry is None:
                        return  # directory exhausted
                    yield ("put", entry.rid, entry.record_text)
                elif slot == "overwrite":
                    yield ("put", model.pick(rng),
                           entries[rng.randrange(len(entries))].record_text)
                elif slot == "delete":
                    yield ("delete", model.pick(rng))
                else:
                    yield ("search",
                           names.draw(rng, next(searches), self.strata))


class LivePoint(Workload):
    """Put/get/delete over the live TCP tier: wire encode/decode,
    socket send/run/census and site dispatch do all the work, the
    sweep none (live search is broken at this commit)."""

    name = "live_point"
    backend = "live"
    bucket_capacity = 1024
    directory_size = 4000
    loaded = 0
    rss_after_ops = 130
    sites = 4

    def setup(self, inputs, scratch):
        from repro.net.live import LiveCluster

        cluster = LiveCluster(buckets=self.sites,
                              log_dir=scratch / "site-logs").start()
        try:
            store = make_store(inputs, self.bucket_capacity,
                               network=cluster.connect(),
                               retry_policy=LIVE_RETRY)
        except BaseException:
            cluster.shutdown()
            raise
        return Bench(store, Model(), cluster=cluster)

    def stream(self, model, inputs, rng):
        # 300 put : 900 get : 100 delete, interleaved.
        fresh = self.fresh_entries(inputs)
        while True:
            for __ in range(3):
                entry = next(fresh, None)
                if entry is None:
                    return  # directory exhausted
                yield ("put", entry.rid, entry.record_text)
                for __ in range(3):
                    yield read_op(model, rng)
            yield ("delete", model.pick(rng))

    def verify(self, bench, inputs, executed, recorder):
        """Replay the executed ops on a simulator twin: same answers
        (both are checked against the same model history) and the same
        billed traffic, counter by counter."""
        twin = make_store(inputs, self.bucket_capacity,
                          retry_policy=LIVE_RETRY)
        replay = Recorder()
        twin_model = Model()
        for op in executed:
            execute(twin, twin_model, op, replay)
        live, sim = bench.store.network.stats, twin.network.stats
        problems = list(replay.failures)
        for what in ("messages", "bytes"):
            if getattr(live, what) != getattr(sim, what):
                problems.append(
                    f"billed {what}: live {getattr(live, what)} != "
                    f"simulator {getattr(sim, what)}")
        if dict(live.by_kind) != dict(sim.by_kind):
            problems.append(f"billed by_kind: live {dict(live.by_kind)} "
                            f"!= simulator {dict(sim.by_kind)}")
        bench.facts["parity_ok"] = 0.0 if problems else 1.0
        recorder.attempted += 1  # the parity check counts as one op
        if problems:
            recorder.fail(("parity", "simulator twin"),
                          "; ".join(problems))


def live_scan_canary(inputs: Inputs, out_dir: Path) -> bool:
    """Can the live tier answer a search at all?

    Runs on a throwaway one-site cluster with a short quiescence
    timeout: a failed scan leaves the census unbalanced for good, so
    the canary never shares a cluster with measured ops, and its outcome
    is not an op of the workload.  On failure the client traceback is
    saved beside the site logs under ``out/``.
    """
    from repro.net.live import LiveCluster

    log_dir = out_dir / f"canary-{inputs.seed}"
    log_dir.mkdir(parents=True, exist_ok=True)
    records = {entry.rid: f"CANARY {entry.record_text}"
               for entry in inputs.entries[:3]}
    try:
        with LiveCluster(buckets=1, log_dir=log_dir) as cluster:
            store = make_store(inputs, 1024,
                               network=cluster.connect(run_timeout=2.0))
            for rid, text in records.items():
                store.put(rid, text)
            found = store.search("CANARY").matches
        if found == frozenset(records):
            return True
        problem = f"search answered {sorted(found)}, not {sorted(records)}"
    except Exception:  # boundary: the canary reports, never raises
        problem = traceback.format_exc()
    (log_dir / "client-traceback.txt").write_text(problem, encoding="utf-8")
    return False


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (SimQuery(), SimIngest(), SimMixed(), LivePoint())
}
