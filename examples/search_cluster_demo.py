#!/usr/bin/env python
"""Drive the mini web-search serving system end to end (Figure 1).

Builds a synthetic corpus, indexes it into four shards placed in simulated
memory, wires leaf servers under an aggregation tree with a caching front
end, serves a Zipfian query stream (plus one literal text query), and then
pushes the leaves' emitted memory trace through the cache simulator — the
same path the paper takes from production binaries to miss statistics.
"""

from repro._units import format_size
from repro.cachesim import analytic_hierarchy
from repro.hw import catalog
from repro.hw.adapters import hierarchy_config
from repro.memtrace.stats import cold_fraction, working_set_bytes
from repro.memtrace.trace import Segment
from repro.search import QueryGenerator, QueryGeneratorConfig, SearchCluster
from repro.search.documents import CorpusConfig


def main() -> None:
    print("building the serving cluster (4 leaf shards, fanout-2 tree)…")
    cluster = SearchCluster.build(
        corpus_config=CorpusConfig(num_documents=4000, vocabulary_size=30_000, seed=1),
        num_leaves=4,
        fanout=2,
        result_cache_capacity=512,
        seed=1,
    )

    generator = QueryGenerator(
        QueryGeneratorConfig(vocabulary_size=30_000, distinct_queries=2000, seed=1)
    )
    print("serving 1200 queries…")
    pages = cluster.serve_generated(generator, 1200)
    print(f"  sample result page: {len(pages[0].hits)} hits, "
          f"snippet: {pages[0].snippets[0] if pages[0].snippets else '(none)'}")

    # A literal text query through the tokenizer.
    word = cluster.corpus.vocabulary.word(3)
    page = cluster.frontend.search_text(word)
    print(f"  text query {word!r}: top doc {page.hits[0].doc_id}, "
          f"score {page.hits[0].score:.2f}")

    stats = cluster.stats()
    print(f"\n{stats.render()}")

    print("\n== per-segment behaviour of the emitted trace ==")
    trace = cluster.leaf_trace()
    for segment in (Segment.CODE, Segment.HEAP, Segment.SHARD):
        sub = trace.only_segment(segment)
        if len(sub) == 0:
            continue
        print(
            f"  {segment.name.lower():6s}: {len(sub):8d} accesses, "
            f"working set {format_size(working_set_bytes(sub)):>9s}, "
            f"cold fraction {cold_fraction(sub):5.1%}"
        )

    print("\n== trace through a scaled PLT1-like hierarchy ==")
    config = hierarchy_config(catalog.plt1_simulated()).scaled(1 / 16)
    result = analytic_hierarchy(trace, config)
    print(result.render())
    print("\nnote the paper's structure: code dies at the shared L3, heap")
    print("keeps reusable misses, shard misses are cold posting-list scans.")


if __name__ == "__main__":
    main()
