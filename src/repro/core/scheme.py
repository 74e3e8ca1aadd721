"""The complete scheme (paper section 5) as a storage facade.

An :class:`EncryptedSearchableStore` owns

* a **record-store** LH* file holding each record strongly encrypted
  (AES-CTR, per-record nonce) under its RID;
* an **index** LH* file holding every index stream under the key
  ``RID · 2^b  |  chunking-id · 2^(site bits)  |  site-id`` — the
  paper's aside: "The keys for the index records are made up of the
  RID and the chunking identifier and the dispersion site identifier
  appended as the least significant bits.  In this way, index records
  belonging to the same original record will be stored in different
  LH* buckets."

``search()`` runs the paper's protocol: chunk/encode/encrypt/disperse
the pattern once per chunking, ship all needles to all index sites in
one parallel scan round, intersect per-group hit offsets, keep the
records where enough groups agree on one pattern start, then fetch and
decrypt the candidates from the record store and (optionally) verify —
measuring precision on the way.  The scheme guarantees 100 % recall;
the false-positive count is the quantity the paper's Tables 4/5 study.

Both files can live on one shared simulated network so message
counters reflect the whole deployment.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.chunking import query_series
from repro.core.config import SchemeParameters
from repro.core.encoder import FrequencyEncoder
from repro.core.errors import ConfigurationError
from repro.core.index import IndexPipeline
from repro.core.kernels import MAX_FUSED_BITS
from repro.core.search import (
    HitAggregator,
    IndexKeyCodec,
    MultiPlanScanMatcher,
    PlanScanMatcher,
)
from repro.crypto.keys import KeyHierarchy
from repro.crypto.modes import CtrCipher
from repro.net.faults import RetryPolicy
from repro.net.simulator import Network
from repro.net.stats import NetworkStats
from repro.obs.metrics import observe as metric_observe
from repro.obs.trace import span as obs_span
from repro.sdds.lhstar import DEFAULT_RETRY_POLICY, LHStarFile
from repro.sdds.lhstar_rs import LHStarRSFile

#: Clients ``bulk_load`` runs each file's inserts from, and so the
#: operations it keeps in flight at once.
BULK_LOAD_CONCURRENCY = 8


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one content search.

    ``cost`` is the *total* network cost of the query — the parallel
    index-scan round **and** the candidate fetches of verification —
    so every search entry point accounts the same way (``search``,
    ``search_all`` and ``search_batch`` once disagreed on whether
    verification was billed).  ``scan_cost``/``verify_cost`` break the
    total down; for batched queries that share one scan round and one
    verification pass, each per-pattern result reports the shared
    totals.  Retransmissions and injected faults during the query show
    up in the cost's ``retries``/``dropped``/``duplicated`` counters.
    """

    pattern: str
    candidates: frozenset[int]
    matches: frozenset[int]
    false_positives: frozenset[int]
    cost: NetworkStats
    #: simulated wall-clock seconds the whole query took (scan round
    #: + candidate fetches) under the network's latency model.
    elapsed: float = 0.0
    #: the scan round's share of ``cost`` (None for composite results
    #: that cannot split it).
    scan_cost: NetworkStats | None = None
    #: verification's share of ``cost`` (candidate fetch + decrypt);
    #: zero-valued when ``verify=False``.
    verify_cost: NetworkStats | None = None

    @property
    def precision(self) -> float:
        if not self.candidates:
            return 1.0
        return len(self.matches) / len(self.candidates)


@dataclass(frozen=True)
class StorageFootprint:
    """Bytes stored, by role — the storage-overhead view of §2.5."""

    record_bytes: int
    index_bytes: int
    index_records: int

    @property
    def overhead(self) -> float:
        """Index bytes per record byte."""
        if self.record_bytes == 0:
            return 0.0
        return self.index_bytes / self.record_bytes


@dataclass
class _ScanRound:
    """One parallel scan round as the client sees it: the filled
    per-plan aggregators plus the marks that split a query's cost into
    its scan and verification shares."""

    network: Network
    before: NetworkStats
    started: float
    after_scan: NetworkStats
    aggregators: list[HitAggregator]

    def results(
        self, outcomes: list[tuple[str, set[int], set[int]]]
    ) -> list[SearchResult]:
        """One :class:`SearchResult` per ``(pattern, candidates,
        matches)`` outcome.  Call once all shared work — scan round
        *and* candidate fetches — is done: every result carries the
        same totals, so batches account verification exactly like a
        single-pattern search."""
        stats = self.network.stats
        cost = stats.diff(self.before)
        elapsed = self.network.now - self.started
        scan_cost = self.after_scan.diff(self.before)
        verify_cost = stats.diff(self.after_scan)
        return [
            SearchResult(
                pattern=pattern,
                candidates=frozenset(candidates),
                matches=frozenset(matches),
                false_positives=frozenset(candidates - matches),
                cost=cost,
                elapsed=elapsed,
                scan_cost=scan_cost,
                verify_cost=verify_cost,
            )
            for pattern, candidates, matches in outcomes
        ]


class EncryptedSearchableStore:
    """The paper's complete scheme over simulated LH* files."""

    def __init__(
        self,
        params: SchemeParameters,
        encoder: FrequencyEncoder | None = None,
        network: Network | None = None,
        bucket_capacity: int = 128,
        high_availability: bool = False,
        name: str = "ess",
        retry_policy: RetryPolicy = DEFAULT_RETRY_POLICY,
        group_size: int = 4,
        parity_count: int = 2,
        shrink: bool = False,
        merge_threshold: float = 0.4,
    ) -> None:
        self.params = params
        self.pipeline = IndexPipeline(params, encoder)
        self.network = network or Network()
        keys = KeyHierarchy(params.master_key)
        self._keys = keys
        self._record_cipher = CtrCipher(keys.record_store_key())
        # "A standard SDDS such as LH* or its high-availability
        # version LH*_RS is used to store index records and the
        # records themselves" (§5) — HA applies to both files.
        # ``group_size``/``parity_count`` shape the parity code (the
        # paper's m and k): with HA on, up to ``parity_count`` crashed
        # buckets per group keep every get and search answerable.
        file_type = LHStarRSFile if high_availability else LHStarFile
        # ``shrink`` makes both files merge back when deletes empty
        # them (the membership/elasticity story rides on the same
        # flag on either backend).
        file_kwargs: dict = {
            "shrink": shrink,
            "merge_threshold": merge_threshold,
        }
        if high_availability:
            file_kwargs.update(
                group_size=group_size,
                parity_count=parity_count,
            )
        self.record_file: LHStarFile = file_type(
            name=f"{name}-store",
            network=self.network,
            bucket_capacity=bucket_capacity,
            retry_policy=retry_policy,
            **file_kwargs,
        )
        self.index_file: LHStarFile = file_type(
            name=f"{name}-index",
            network=self.network,
            bucket_capacity=bucket_capacity,
            retry_policy=retry_policy,
            **file_kwargs,
        )
        sites = params.dispersal
        groups = params.layout.group_count
        self._site_bits = max(sites - 1, 0).bit_length()
        self._group_bits = max(groups - 1, 0).bit_length()
        self._suffix_bits = self._site_bits + self._group_bits
        #: Wire-encodable inverse of :meth:`index_key`, handed to scan
        #: matchers so they can cross a process boundary.
        self.key_codec = IndexKeyCodec(
            site_bits=self._site_bits, group_bits=self._group_bits
        )
        self._rids: set[int] = set()

    # -- index keying --------------------------------------------------------

    def index_key(self, rid: int, group: int, site: int) -> int:
        """RID with chunking and site ids appended as LSBs (paper §5)."""
        return (
            (rid << self._suffix_bits)
            | (group << self._site_bits)
            | site
        )

    def decode_index_key(self, key: int) -> tuple[int, int, int]:
        return self.key_codec(key)

    # -- text <-> content (8-bit ASCII or 16-bit Unicode symbols) --------------

    def _to_content(self, text: str) -> bytes:
        """Zero-terminated symbol string per the configured width."""
        if self.params.symbol_width == 1:
            return text.encode("ascii") + b"\x00"
        return text.encode("utf-16-be") + b"\x00\x00"

    def _from_content(self, content: bytes) -> str:
        width = self.params.symbol_width
        if width == 1:
            return content.rstrip(b"\x00").decode("ascii")
        # Strip zero *symbols* (aligned pairs) — a code unit like
        # U+0100 ends in a zero byte but is not a zero symbol.
        while content.endswith(b"\x00\x00"):
            content = content[:-2]
        return content.decode("utf-16-be")

    def _pattern_bytes(self, pattern: str) -> bytes:
        if self.params.symbol_width == 1:
            return pattern.encode("ascii")
        return pattern.encode("utf-16-be")

    # -- data plane ---------------------------------------------------------------

    def put(self, rid: int, text: str) -> None:
        """Store a record: strong copy + all its index streams."""
        with obs_span("ess.put", network=self.network, rid=rid):
            content = self._to_content(text)
            ciphertext = self._record_cipher.encrypt(
                content, self._keys.record_nonce(rid)
            )
            self.record_file.insert(rid, ciphertext)
            for (group, site), stream in (
                self.pipeline.build_index_streams(content).items()
            ):
                self.index_file.insert(
                    self.index_key(rid, group, site), stream
                )
            self._rids.add(rid)

    def bulk_load(self, records: dict[int, str]) -> None:
        """Load many records with concurrent batches.

        Client-side encryption and index building run up front; the
        record-store and index inserts then run from
        ``BULK_LOAD_CONCURRENCY`` clients with at most that many
        operations in flight, instead of one network round per
        record — the practical way to populate a deployment.  With
        so few operations in flight, the files split about as they
        would under one-by-one puts.
        """
        with obs_span("ess.bulk_load", network=self.network,
                      records=len(records)):
            self._bulk_load(records)

    def _bulk_load(self, records: dict[int, str]) -> None:
        # Build the fused codec tables up front (a no-op for large
        # chunk domains) so the per-record loop below is pure table
        # lookups from the first record on.
        self.pipeline.warm()
        record_ops = []
        index_ops = []
        for rid, text in records.items():
            content = self._to_content(text)
            record_ops.append((
                "insert",
                rid,
                self._record_cipher.encrypt(
                    content, self._keys.record_nonce(rid)
                ),
            ))
            for (group, site), stream in (
                self.pipeline.build_index_streams(content).items()
            ):
                index_ops.append(
                    ("insert", self.index_key(rid, group, site), stream)
                )
            self._rids.add(rid)
        self.record_file.run_concurrent(
            record_ops, concurrency=BULK_LOAD_CONCURRENCY)
        self.index_file.run_concurrent(
            index_ops, concurrency=BULK_LOAD_CONCURRENCY)

    def get(self, rid: int) -> str | None:
        """Fetch and decrypt one record by RID."""
        with obs_span("ess.get", network=self.network, rid=rid):
            ciphertext = self.record_file.lookup(rid)
            if ciphertext is None:
                return None
            content = self._record_cipher.decrypt(
                ciphertext, self._keys.record_nonce(rid)
            )
            return self._from_content(content)

    def delete(self, rid: int) -> bool:
        """Remove a record and all of its index streams."""
        with obs_span("ess.delete", network=self.network, rid=rid):
            removed = self.record_file.delete(rid)
            if removed:
                for group in range(self.params.layout.group_count):
                    for site in range(self.params.dispersal):
                        self.index_file.delete(
                            self.index_key(rid, group, site)
                        )
                self._rids.discard(rid)
            return removed

    def __len__(self) -> int:
        return len(self._rids)

    # -- search ---------------------------------------------------------------------

    def search(
        self,
        pattern: str,
        verify: bool = True,
        anchor_start: bool = False,
        anchor_end: bool = False,
    ) -> SearchResult:
        """Parallel content search for ``pattern``.

        With ``verify`` the candidates are fetched, decrypted and
        checked, so the result separates true matches from false
        positives (the client-side post-filter the paper assumes).
        Without it, ``matches`` equals ``candidates`` unverified.

        Anchors (the paper's "search for 'Schwarz ' with a leading
        space and a trailing zero", §2.5, done properly):

        * ``anchor_end`` — match only at the end of the record text.
          The pattern is extended with zero symbols so its chunk grid
          can tile onto the record's zero-padded final chunks; exactly
          one (chunking, alignment) pair is guaranteed to match, so
          aggregation drops to the OR rule for this query.
        * ``anchor_start`` — match only at the very beginning: the
          hit must sit at chunk position 0 of the offset-0 chunking.
        """
        with obs_span("ess.search", network=self.network,
                      pattern=pattern) as span:
            result = self._search(
                pattern, verify, anchor_start, anchor_end
            )
            self._finish_search_span(span, result)
            return result

    def _finish_search_span(self, span, result: SearchResult) -> None:
        """Annotate a search-type span with the result's shape and
        feed the latency/false-positive histograms (no-ops without an
        installed tracer/registry)."""
        span.annotate(
            candidates=len(result.candidates),
            matches=len(result.matches),
            false_positives=len(result.false_positives),
            scan_messages=(
                None if result.scan_cost is None
                else result.scan_cost.messages
            ),
            verify_messages=(
                None if result.verify_cost is None
                else result.verify_cost.messages
            ),
        )
        metric_observe("ess.search.elapsed", result.elapsed)
        metric_observe("ess.search.messages", result.cost.messages)
        metric_observe("ess.search.false_positives",
                       len(result.false_positives))

    def _search(
        self,
        pattern: str,
        verify: bool,
        anchor_start: bool,
        anchor_end: bool,
    ) -> SearchResult:
        pattern_bytes = self._pattern_bytes(pattern)
        if anchor_end:
            pattern_bytes += bytes(
                self.params.chunk_size * self.params.symbol_width
            )
        plan = self.pipeline.plan_query(pattern_bytes)
        if anchor_end:
            # The zero-extension only tiles one chunking exactly; the
            # all-groups threshold would reject true matches.
            plan = replace(plan, required_groups=1)
        scan = self._scan_round([plan])
        (aggregator,) = scan.aggregators
        candidates = aggregator.candidates()
        if anchor_start:
            group, alignment, position = self._start_anchor(plan)
            candidates = {
                rid
                for rid in candidates
                if position in aggregator.intersected_positions(
                    rid, group, alignment
                )
            }

        if verify:
            matches = set()
            for rid in candidates:
                text = self.get(rid)
                if text is None or pattern not in text:
                    continue
                if anchor_start and not text.startswith(pattern):
                    continue
                if anchor_end and not text.endswith(pattern):
                    continue
                matches.add(rid)
        else:
            matches = set(candidates)
        return scan.results([(pattern, candidates, matches)])[0]

    def _scan_round(self, plans: list) -> _ScanRound:
        """Ship ``plans`` to every index site in one scan round and
        aggregate the site reports per plan — the part ``search``,
        ``search_all`` and ``search_batch`` share.

        Every report is a :class:`~repro.core.search.SiteHit`; a round
        of several plans tags each with its plan index, a one-plan
        round ships untagged hits.
        """
        if len(plans) == 1:
            matcher = PlanScanMatcher(plans[0], self.key_codec)
        else:
            matcher = MultiPlanScanMatcher(plans, self.key_codec)
        before = self.network.stats.snapshot()
        started = self.network.now
        replies = self.index_file.scan(
            matcher,
            request_size=sum(plan.request_size() for plan in plans),
        )
        after_scan = self.network.stats.snapshot()
        layout = self.params.layout
        origins = layout.chunk_origins(self.params.drop_partial_chunks)
        aggregators = [
            HitAggregator(plan, layout.chunk_size, origins)
            for plan in plans
        ]
        routed: list[list] = [[] for _ in plans]
        for hit in replies:
            routed[hit.plan or 0].append(hit)
        for aggregator, hits in zip(aggregators, routed):
            aggregator.add_all(hits)
        return _ScanRound(self.network, before, started, after_scan,
                          aggregators)

    def _start_anchor(self, plan) -> tuple[int, int, int]:
        """The (group, alignment, chunk position) pinning a record-start
        match, derived from the layout and the query plan.

        A pattern occurrence at record position 0 lines up with the
        chunking of offset ``o`` exactly at query alignment ``o``, and
        its first complete chunk sits at stream position 0 — or 1 when
        that chunking stores a padded partial head chunk before it.
        Offset 0 is always stored and alignment 0 always populated, so
        in practice this returns (0, 0, 0); the scan is kept general
        so a future layout that breaks the assumption fails loudly
        instead of silently filtering out every true match.
        """
        layout = self.params.layout
        origins = layout.chunk_origins(self.params.drop_partial_chunks)
        for group, offset in enumerate(layout.offsets):
            if offset in plan.alignments:
                position = (offset - origins[group]) // layout.chunk_size
                return group, offset, position
        raise ConfigurationError(
            "layout cannot express a start anchor: no stored chunking "
            f"offset in {layout.offsets} coincides with a populated "
            f"query alignment in {plan.alignments}"
        )

    def search_all(
        self, patterns: list[str], verify: bool = True
    ) -> SearchResult:
        """Conjunctive search: records containing *every* pattern.

        All patterns ship in one parallel scan round (one message per
        index site instead of one round per pattern); candidate sets
        intersect client-side.  The paper's search protocol
        generalises to this without any server-side change — sites
        just match several needle sets.
        """
        with obs_span("ess.search_all", network=self.network,
                      patterns=list(patterns)) as span:
            result = self._search_all(patterns, verify)
            self._finish_search_span(span, result)
            return result

    def _search_all(
        self, patterns: list[str], verify: bool
    ) -> SearchResult:
        if not patterns:
            raise ConfigurationError("need at least one pattern")
        plans = [
            self.pipeline.plan_query(self._pattern_bytes(p))
            for p in patterns
        ]
        scan = self._scan_round(plans)
        candidates = set.intersection(*(
            aggregator.candidates() for aggregator in scan.aggregators
        ))
        if verify:
            matches = {
                rid
                for rid in candidates
                if (text := self.get(rid)) is not None
                and all(p in text for p in patterns)
            }
        else:
            matches = set(candidates)
        return scan.results(
            [(" AND ".join(patterns), candidates, matches)]
        )[0]

    def search_batch(
        self, patterns: list[str], verify: bool = True
    ) -> dict[str, SearchResult]:
        """Run many *independent* queries in one parallel scan round.

        The Table-4 workload shape: hundreds of last-name searches.
        Shipping all plans at once costs one round instead of one per
        query; results are per-pattern (unlike :meth:`search_all`,
        which intersects).

        Cost accounting: the scan round and the verification fetches
        are shared across patterns (each candidate record is fetched
        once, however many patterns name it), so every per-pattern
        result carries the *shared* totals — ``cost`` includes
        verification, exactly like :meth:`search`, and for a
        single-pattern batch the two entry points report identical
        numbers.
        """
        with obs_span("ess.search_batch", network=self.network,
                      patterns=len(patterns)) as span:
            results = self._search_batch(patterns, verify)
            if results:
                shared = next(iter(results.values()))
                span.annotate(
                    candidates=len(
                        set().union(*(r.candidates
                                      for r in results.values()))
                    ),
                    cost_messages=shared.cost.messages,
                )
                metric_observe("ess.search.elapsed", shared.elapsed)
            return results

    def _search_batch(
        self, patterns: list[str], verify: bool
    ) -> dict[str, SearchResult]:
        if not patterns:
            raise ConfigurationError("need at least one pattern")
        unique = list(dict.fromkeys(patterns))
        plans = [
            self.pipeline.plan_query(self._pattern_bytes(p))
            for p in unique
        ]
        scan = self._scan_round(plans)
        outcomes: list[tuple[str, set[int], set[int]]] = []
        text_cache: dict[int, str | None] = {}
        for pattern, aggregator in zip(unique, scan.aggregators):
            candidates = aggregator.candidates()
            if verify:
                matches = set()
                for rid in candidates:
                    if rid not in text_cache:
                        text_cache[rid] = self.get(rid)
                    text = text_cache[rid]
                    if text is not None and pattern in text:
                        matches.add(rid)
            else:
                matches = set(candidates)
            outcomes.append((pattern, candidates, matches))
        return {
            result.pattern: result for result in scan.results(outcomes)
        }

    # -- key rotation -----------------------------------------------------------

    def rekey(self, new_master: bytes) -> None:
        """Rotate the master secret: re-encrypt the record store and
        rebuild every index stream under the new key hierarchy.

        Client-driven, as the threat model requires — storage sites
        only ever see old ciphertext going out and new ciphertext
        coming in.  O(records) cost, reported through the usual
        message counters.
        """
        with obs_span("ess.rekey", network=self.network,
                      records=len(self._rids)):
            self._rekey(new_master)

    def _rekey(self, new_master: bytes) -> None:
        if not new_master:
            raise ConfigurationError("new master key must be non-empty")
        plaintexts = {rid: self.get(rid) for rid in sorted(self._rids)}
        new_params = replace(self.params, master_key=new_master)
        new_keys = KeyHierarchy(new_master)
        new_cipher = CtrCipher(new_keys.record_store_key())
        new_pipeline = IndexPipeline(new_params, self.pipeline.encoder)
        for rid, text in plaintexts.items():
            if text is None:
                continue
            content = self._to_content(text)
            self.record_file.insert(
                rid, new_cipher.encrypt(content, new_keys.record_nonce(rid))
            )
            for (group, site), stream in (
                new_pipeline.build_index_streams(content).items()
            ):
                self.index_file.insert(
                    self.index_key(rid, group, site), stream
                )
        self.params = new_params
        self._keys = new_keys
        self._record_cipher = new_cipher
        self.pipeline = new_pipeline

    def search_short(
        self,
        pattern: str,
        alphabet: str = " ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789&'-",
        verify: bool = True,
    ) -> SearchResult:
        """The paper's §2.3 kludge for sub-minimum patterns.

        "We can 'kludge' a search strategy for search strings of
        length s−1 by adding all possible characters to the end of
        the string.  This method is wasteful and might pose a
        security risk if an attacker snoops network traffic."

        Both caveats are real here: the query fans out to
        ``len(alphabet) + 1`` extended patterns (every alphabet
        extension plus the record-final case via the zero symbol),
        shipped in one batched scan round; the fan-out itself tells a
        network observer the query was short.  Recursion extends
        patterns more than one symbol short of the minimum.
        """
        with obs_span("ess.search_short", network=self.network,
                      pattern=pattern) as span:
            result = self._search_short(pattern, alphabet, verify)
            self._finish_search_span(span, result)
            return result

    def _search_short(
        self, pattern: str, alphabet: str, verify: bool
    ) -> SearchResult:
        deficit = self.params.min_query_length - len(pattern)
        if deficit <= 0:
            return self.search(pattern, verify=verify)
        import itertools

        extensions = [
            pattern + "".join(tail)
            for tail in itertools.product(alphabet, repeat=deficit)
        ]
        before = self.network.stats.snapshot()
        started = self.network.now
        batched = self.search_batch(extensions, verify=False)
        candidates: set[int] = set()
        for result in batched.values():
            candidates |= result.candidates
        # The record-final case: the short pattern followed only by
        # the terminator/padding — covered by the end-anchored query.
        anchored = self.search(pattern, anchor_end=True, verify=False)
        candidates |= anchored.candidates
        after_scan = self.network.stats.snapshot()
        if verify:
            matches = {
                rid
                for rid in candidates
                if (text := self.get(rid)) is not None and pattern in text
            }
        else:
            matches = set(candidates)
        return SearchResult(
            pattern=pattern,
            candidates=frozenset(candidates),
            matches=frozenset(matches),
            false_positives=frozenset(candidates - matches),
            cost=self.network.stats.diff(before),
            elapsed=self.network.now - started,
            scan_cost=after_scan.diff(before),
            verify_cost=self.network.stats.diff(after_scan),
        )

    # -- planning / introspection -------------------------------------------------

    def explain(self, pattern: str) -> str:
        """A human-readable query plan, with an analytical FP estimate.

        Shows what the query will cost before running it: the
        alignments and needle payload the plan ships, the aggregation
        rule in force, and — when a Stage-2 encoder is trained — the
        expected number of random-text false positives from
        :mod:`repro.analysis.model`.
        """
        pattern_bytes = self._pattern_bytes(pattern)
        plan = self.pipeline.plan_query(pattern_bytes)
        layout = self.params.layout
        lines = [
            f"query {pattern!r} ({len(pattern_bytes) // self.params.symbol_width} symbols)",
            f"  scheme: {self.params.describe()}",
            f"  alignments used: {list(plan.alignments)} of "
            f"{layout.alignments}",
            f"  needles shipped: {len(plan.needles) * plan.sites} "
            f"streams, {plan.request_size()} bytes per site",
            f"  candidate rule: >= {plan.required_groups} of "
            f"{plan.group_count} chunking groups"
            + (" agreeing on one pattern start"
               if plan.required_groups > 1 else "")
            + (f", all {plan.sites} dispersal sites at one offset"
               if plan.sites > 1 else ""),
            # The chunk domain is the only way off the fused tables.
            "  codec: " + (
                "fused tables" if self.pipeline.codec(0) is not None
                else f"per-chunk (chunk domain 2^{self.params.chunk_bits}"
                     f" > 2^{MAX_FUSED_BITS})"
            ),
        ]
        encoder = self.pipeline.encoder
        if encoder is not None and encoder.training_counts:
            from repro.analysis.model import (
                code_distribution,
                spurious_match_probability,
            )
            distribution = code_distribution(encoder)
            query_codes = [
                self.pipeline.chunk_value(chunk)
                for chunk in query_series(
                    pattern_bytes, layout.chunk_size,
                    plan.alignments[0],
                    symbol_width=self.params.symbol_width,
                )
            ]
            typical_record = 40 // self.params.chunk_size
            per_record = spurious_match_probability(
                distribution, query_codes, typical_record
            )
            lines.append(
                f"  random-text FP estimate: "
                f"{per_record * len(self._rids):.2f} expected over "
                f"{len(self._rids)} records (independence baseline; "
                "structured corpora run higher)"
            )
        return "\n".join(lines)

    # -- accounting ----------------------------------------------------------------

    def footprint(self) -> StorageFootprint:
        """Stored bytes by role, for the §2.5 overhead analysis."""
        record_bytes = sum(
            len(record.content)
            for record in self.record_file.all_records()
        )
        index_records = self.index_file.all_records()
        return StorageFootprint(
            record_bytes=record_bytes,
            index_bytes=sum(len(r.content) for r in index_records),
            index_records=len(index_records),
        )

    @classmethod
    def with_trained_encoder(
        cls,
        params: SchemeParameters,
        training_texts: list[bytes],
        **kwargs,
    ) -> "EncryptedSearchableStore":
        """Convenience constructor: train the Stage-2 encoder on a
        representative corpus (the paper's 'preprocess a representative
        part of the database')."""
        if params.n_codes is None:
            raise ConfigurationError(
                "with_trained_encoder requires n_codes to be set"
            )
        encoder = FrequencyEncoder.train(
            training_texts, params.chunk_bytes, params.n_codes
        )
        return cls(params, encoder=encoder, **kwargs)
