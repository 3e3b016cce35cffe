"""lusearch: the DaCapo text-search benchmark analog (§3.2.2).

A small Lucene-shaped search engine built on the simulated heap: an inverted
index (chained hash table from terms to posting lists) built over a
deterministic synthetic corpus, and an ``IndexSearcher`` that runs term
queries and allocates per-query scoring objects.

The paper's finding: "We instrumented lusearch with an assert-instances
assertion stating that only one instance of IndexSearcher should be live.
We found that for most of the benchmark's execution, 32 instances of
IndexSearcher are live, one for each thread performing searches."  The
``share_searcher`` switch reproduces both the buggy per-thread-searcher
behavior and the repaired shared-searcher behavior.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.heap.object_model import FieldKind
from repro.runtime.handles import Handle
from repro.runtime.scheduler import Scheduler
from repro.runtime.vm import VirtualMachine
from repro.workloads.containers import HashTable, IntVector

INDEX = "lucene.Index"
SEARCHER = "lucene.IndexSearcher"
READER = "lucene.IndexReader"
TERM_INFO = "lucene.TermInfo"
SCORE_DOC = "lucene.ScoreDoc"
HITS = "lucene.Hits"

#: Vocabulary used to synthesize documents (drawn zipf-ish by rank).
_VOCAB_SIZE_DEFAULT = 200


def define_lucene_classes(vm: VirtualMachine) -> None:
    if vm.classes.maybe(INDEX) is not None:
        return
    vm.define_class(
        INDEX,
        [("dictionary", FieldKind.REF), ("ndocs", FieldKind.INT), ("name", FieldKind.STR)],
    )
    vm.define_class(TERM_INFO, [("term", FieldKind.STR), ("postings", FieldKind.REF), ("docFreq", FieldKind.INT)])
    vm.define_class(READER, [("index", FieldKind.REF), ("buffer", FieldKind.REF)])
    vm.define_class(SEARCHER, [("reader", FieldKind.REF), ("scoreCache", FieldKind.REF)])
    vm.define_class(SCORE_DOC, [("doc", FieldKind.INT), ("score", FieldKind.FLOAT)])
    vm.define_class(HITS, [("docs", FieldKind.REF), ("count", FieldKind.INT)])


def _term(rank: int) -> str:
    return f"term{rank:04d}"


def _draw_term_rank(rng: random.Random, vocab: int) -> int:
    """Zipf-flavored rank draw: low ranks much more likely."""
    u = rng.random()
    return min(int(vocab * u * u), vocab - 1)


def build_index(
    vm: VirtualMachine,
    ndocs: int,
    terms_per_doc: int,
    vocab: int = _VOCAB_SIZE_DEFAULT,
    seed: int = 7,
) -> Handle:
    """Index a synthetic corpus; returns the on-heap Index object."""
    define_lucene_classes(vm)
    rng = random.Random(seed)
    with vm.scope("build_index"):
        index = vm.new(INDEX, ndocs=ndocs, name="lusearch-index")
        dictionary = HashTable.new(vm, buckets=max(16, vocab // 2))
        index["dictionary"] = dictionary.handle
        for doc in range(ndocs):
            seen: set[int] = set()
            for _ in range(terms_per_doc):
                rank = _draw_term_rank(rng, vocab)
                if rank in seen:
                    continue
                seen.add(rank)
                term = _term(rank)
                info = dictionary.get(term)
                if info is None:
                    with vm.scope("new-term"):
                        info = vm.new(TERM_INFO, term=term, docFreq=0)
                        info["postings"] = IntVector.new(vm).handle
                        dictionary.put(term, info)
                IntVector(vm, info["postings"]).append(doc)
                info["docFreq"] = info["docFreq"] + 1
    return index


def new_searcher(vm: VirtualMachine, index: Handle) -> Handle:
    """Open an IndexSearcher (reader + scoring scratch buffers)."""
    with vm.scope("IndexSearcher.open"):
        reader = vm.new(READER)
        reader["index"] = index
        reader["buffer"] = vm.new_array(FieldKind.INT, 256)
        searcher = vm.new(SEARCHER)
        searcher["reader"] = reader
        searcher["scoreCache"] = vm.new_array(FieldKind.FLOAT, 128)
    return searcher


def search(vm: VirtualMachine, searcher: Handle, term: str, limit: int = 10) -> Handle:
    """Run one term query; returns a Hits object with ScoreDoc results."""
    index = searcher["reader"]["index"]
    dictionary = HashTable(vm, index["dictionary"])
    info = dictionary.get(term)
    with vm.scope("search"):
        hits = vm.new(HITS, count=0)
        if info is None:
            hits["docs"] = vm.new_array(vm.classes.get(SCORE_DOC), 0)
            return hits
        postings = IntVector(vm, info["postings"])
        n = min(limit, len(postings))
        docs = vm.new_array(vm.classes.get(SCORE_DOC), n)
        hits["docs"] = docs
        ndocs = index["ndocs"]
        doc_freq = info["docFreq"]
        idf = 1.0 + (ndocs / (1.0 + doc_freq))
        for i in range(n):
            doc = postings.get(i)
            docs[i] = vm.new(SCORE_DOC, doc=doc, score=idf / (1.0 + i))
        hits["count"] = n
    return hits


@dataclass
class LusearchConfig:
    threads: int = 32
    queries_per_thread: int = 60
    ndocs: int = 120
    terms_per_doc: int = 12
    vocab: int = _VOCAB_SIZE_DEFAULT
    seed: int = 7
    #: The repair: one shared IndexSearcher instead of one per thread.
    share_searcher: bool = False
    #: The paper's assertion: at most one live IndexSearcher.
    assert_single_searcher: bool = False
    #: Trigger a GC mid-run (while all searchers are open), as the
    #: benchmark's allocation pressure would.
    gc_midway: bool = True


@dataclass
class LusearchResult:
    queries: int = 0
    hits: int = 0
    searchers_created: int = 0
    violations: int = 0
    peak_live_searchers: int = 0


def run_lusearch(vm: VirtualMachine, config: LusearchConfig | None = None) -> LusearchResult:
    """Run the lusearch analog on ``vm`` with cooperative threads."""
    config = config or LusearchConfig()
    define_lucene_classes(vm)
    result = LusearchResult()
    rng = random.Random(config.seed)

    with vm.scope("lusearch-index"):
        index = build_index(vm, config.ndocs, config.terms_per_doc, config.vocab, config.seed)
        vm.statics.set_ref("lusearch.index", index.address)

    if config.assert_single_searcher and vm.assertions is not None:
        vm.assertions.assert_instances(SEARCHER, 1)

    shared_searcher: Handle | None = None
    if config.share_searcher:
        shared_searcher = new_searcher(vm, index)
        vm.statics.set_ref("lusearch.sharedSearcher", shared_searcher.address)
        result.searchers_created = 1

    scheduler = Scheduler(vm)
    query_plans = [
        [_term(_draw_term_rank(rng, config.vocab)) for _ in range(config.queries_per_thread)]
        for _ in range(config.threads)
    ]

    def worker(plan):
        def body(vm, thread):
            frame = thread.push_frame("lusearch.QueryThread.run")
            try:
                if shared_searcher is not None:
                    searcher = shared_searcher
                else:
                    # The bug: every thread opens its own IndexSearcher and
                    # keeps it live for its whole run.
                    searcher = new_searcher(vm, index)
                    result.searchers_created += 1
                frame.set_ref("searcher", searcher.address)
                for term in plan:
                    hits = search(vm, searcher, term)
                    result.hits += hits["count"]
                    result.queries += 1
                    yield  # safepoint: other threads interleave here
            finally:
                thread.pop_frame()

        return body

    scheduler.spawn_all([worker(plan) for plan in query_plans], prefix="lusearch")

    total_steps = config.threads * config.queries_per_thread
    midpoint = total_steps // 2
    steps = 0
    while scheduler.pending:
        scheduler.step()
        steps += 1
        if config.gc_midway and steps == midpoint:
            vm.gc(reason="lusearch midway")
            searcher_cls = vm.classes.get(SEARCHER)
            result.peak_live_searchers = sum(
                1 for obj in vm.heap.live() if obj.cls is searcher_cls
            )

    if vm.engine is not None:
        result.violations = len(vm.engine.log)
    return result
