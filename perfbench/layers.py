"""Per-layer tracing for the traced run: where the wrappers go, and the
per-layer metrics computed from the spans they record.

Span names and the calls they wrap:

=========================  ==================================================
``http.dispatch``          ``SearchHttpApp.dispatch`` plus ``body()``, client side
``service.submit``         ``AsyncSearchService.submit``
``engine.search_many``     ``search_many`` of the served engine or replica set,
                           with every result materialized (the evaluation the
                           service runs on its executor thread)
``core.query``             ``index.query`` / ``index.top_k`` of each core index
                           (``meta["shard"]`` set on shard indexes)
``suffix.range``           ``suffix_range`` as the core modules call it
``suffix.rmq.query_batch`` ``query_batch`` of every RMQ class (one reporting round)
``build.*``                factor enumeration, suffix array, LCP, RMQ builds
``payload.export``         ``index_to_payload`` inside ``save``
=========================  ==================================================

The set-up and swap steps (``setup``, ``build``, ``persistence.save``,
``persistence.load``, ``replicas.load``, ``replicas.swap``) are recorded
by :class:`~perfbench.workloads.Deployment` itself.

Two links cannot come from the context: the batch evaluation runs on the
service's executor thread, and shard queries on the shard pool.  A
``service.submit`` is linked to the ``engine.search_many`` that carried
its key inside its interval, and a parentless ``core.query`` to the
``engine.search_many`` whose interval contains it (the service evaluates
one window at a time, so there is exactly one).
"""

from __future__ import annotations

import bisect
import statistics
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.api.persistence as persistence_module
import repro.core.general_index as general_module
import repro.core.listing as listing_module
import repro.suffix.suffix_array as suffix_array_module
from repro.api.sharding import ShardedEngine
from repro.obs import MetricsRegistry
from repro.suffix.rmq import BlockRMQ, CompactRMQ, SparseTableRMQ

from .spans import Span, SpanRecorder, patch, self_time
from .workloads import Deployment, engines_of


def install_build_tracing(recorder: SpanRecorder) -> None:
    """Wrap the build path: factors, suffix array, LCP, RMQ, payload export."""

    def transformed_length(result: Any) -> Dict[str, Any]:
        return {"transformed_length": result.length}

    patch(
        general_module,
        "transform_uncertain_string",
        lambda f: recorder.wrap("build.factors", f, describe=transformed_length),
    )
    patch(
        listing_module,
        "transform_collection",
        lambda f: recorder.wrap("build.factors", f, describe=transformed_length),
    )
    patch(
        suffix_array_module,
        "build_suffix_array",
        lambda f: recorder.wrap("build.suffix_array", f),
    )
    for module in (general_module, listing_module):
        patch(module, "build_lcp_array", lambda f: recorder.wrap("build.lcp", f))
        patch(module, "make_rmq", lambda f: recorder.wrap("build.rmq", f))
    patch(persistence_module, "index_to_payload", lambda f: recorder.wrap("payload.export", f))


def _request_key(request: Any) -> Tuple[str, Optional[float], Optional[int]]:
    return (request.pattern, request.tau, request.top_k)


def _instrument_engine(recorder: SpanRecorder, engine: Any) -> None:
    """Wrap ``query`` / ``top_k`` of every core index behind ``engine``."""
    if isinstance(engine, ShardedEngine):
        indexes = [(shard.index, ordinal) for ordinal, shard in enumerate(engine.shards)]
    else:
        indexes = [(engine.index, None)]

    def matches(result: Any) -> Dict[str, Any]:
        return {"matches": len(result)}

    for index, shard in indexes:
        for method in ("query", "top_k"):
            patch(
                index,
                method,
                lambda f: recorder.wrap("core.query", f, describe=matches, shard=shard),
            )


def install_query_tracing(recorder: SpanRecorder, deployment: Deployment) -> None:
    """Wrap the request path of a running deployment (and of every engine
    its later swaps load)."""
    service = deployment.service
    served = deployment.served
    assert service is not None, "deployment not started"

    patch(
        service,
        "submit",
        lambda f: recorder.wrap_async(
            "service.submit", f, describe=lambda args: {"key": _request_key(args[0])}
        ),
    )

    def traced_search_many(search_many: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(requests: Sequence[Any]) -> Any:
            keys = [_request_key(request) for request in requests]
            with recorder.span("engine.search_many", keys=keys):
                results = search_many(requests)
                for result in results:
                    try:
                        result.matches
                    except Exception:  # noqa: BLE001 — re-raised to its submitters by the service
                        pass
            return results

        return wrapper

    patch(served, "search_many", traced_search_many)
    for engine in engines_of(served):
        _instrument_engine(recorder, engine)
    deployment.instrument = lambda engine: _instrument_engine(recorder, engine)
    for module in (general_module, listing_module):
        patch(module, "suffix_range", lambda f: recorder.wrap("suffix.range", f))
    for rmq_class in (BlockRMQ, SparseTableRMQ, CompactRMQ):
        patch(rmq_class, "query_batch", lambda f: recorder.wrap("suffix.rmq.query_batch", f))


def _ms(seconds: Sequence[float]) -> List[float]:
    return [value * 1000.0 for value in seconds]


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile; ``0.0`` when empty.

    Computed by the shared ``repro.obs`` histogram (nearest rank over all
    samples), the quantile every other latency figure of the repository
    uses; the histogram name is only a label in this private registry.
    """
    histogram = MetricsRegistry().histogram("loadgen_latency_ms", sample_limit=None)
    for value in values:
        histogram.observe(value)
    return histogram.quantiles((q / 100.0,))[q / 100.0]


def mean(values: Sequence[float]) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _children(spans: Sequence[Span]) -> Dict[int, List[Span]]:
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    return children


def link_orphans(spans: Sequence[Span]) -> None:
    """Parent every parentless ``core.query`` to the ``engine.search_many``
    whose interval contains it."""
    searches = sorted((s for s in spans if s.name == "engine.search_many"), key=lambda s: s.start)
    starts = [search.start for search in searches]
    for span in spans:
        if span.parent is None and span.name == "core.query":
            position = bisect.bisect_right(starts, span.start) - 1
            if position >= 0 and searches[position].end >= span.end:
                span.parent = searches[position].id


def _carriers(spans: Sequence[Span]) -> Dict[int, Span]:
    """``service.submit`` span id → the ``engine.search_many`` that carried it."""
    searches = sorted((s for s in spans if s.name == "engine.search_many"), key=lambda s: s.start)
    starts = [search.start for search in searches]
    carriers = {}
    for submit in (s for s in spans if s.name == "service.submit"):
        for search in searches[bisect.bisect_left(starts, submit.start) :]:
            if search.start > submit.end:
                break
            if search.end <= submit.end and submit.meta["key"] in search.meta["keys"]:
                carriers[submit.id] = search
                break
    return carriers


def request_metrics(spans: Sequence[Span]) -> Dict[str, float]:
    """Request-path metrics of one traced phase (times in ms)."""
    link_orphans(spans)
    children = _children(spans)
    carriers = _carriers(spans)
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    ledger: Dict[str, List[float]] = defaultdict(list)
    for dispatch in by_name["http.dispatch"]:
        submits = [child for child in children[dispatch.id] if child.name == "service.submit"]
        ledger["latency"].append(dispatch.duration)
        ledger["http"].append(self_time(dispatch, submits))
        carrier = carriers.get(submits[0].id) if submits else None
        if carrier is None:
            ledger["unattributed"].append(sum(submit.duration for submit in submits))
            continue
        engine_self = self_time(carrier, children[carrier.id])
        ledger["service_wait"].append(submits[0].duration - carrier.duration)
        ledger["engine"].append(engine_self)
        ledger["core"].append(carrier.duration - engine_self)
    latency_mean = mean(ledger["latency"])
    total_requests = max(1, len(ledger["latency"]))

    def share(part: str) -> float:
        # Every request contributes to the mean, unlinked ones with 0.
        return sum(ledger[part]) / total_requests / latency_mean if latency_mean else 0.0

    searches = by_name["engine.search_many"]
    core = by_name["core.query"]
    shards = [span for span in core if span.meta.get("shard") is not None]
    # Only batches that reached a shard have a merge (cache hits do not).
    merges = [
        search for search in searches
        if any(child.meta.get("shard") is not None for child in children[search.id])
    ]
    core_ids = {span.id for span in core}
    rounds = [span for span in by_name["suffix.rmq.query_batch"] if span.parent in core_ids]
    wait = _ms(ledger["service_wait"])
    return {
        "http.self_ms.p50": percentile(_ms(ledger["http"]), 50),
        "http.response_kb.mean": mean([s.meta["bytes"] for s in by_name["http.dispatch"]]) / 1024.0,
        "service.wait_ms.p50": percentile(wait, 50),
        "service.wait_ms.p99": percentile(wait, 99),
        "engine.search_many_ms.p50": percentile(_ms([s.duration for s in searches]), 50),
        "engine.search_many_ms.p99": percentile(_ms([s.duration for s in searches]), 99),
        "sharding.shard_ms.p50": percentile(_ms([s.duration for s in shards]), 50),
        "sharding.merge_self_ms.p50": percentile(
            _ms([self_time(s, children[s.id]) for s in merges]), 50
        ),
        "core.query_ms.p50": percentile(_ms([s.duration for s in core]), 50),
        "core.query_ms.p99": percentile(_ms([s.duration for s in core]), 99),
        "core.matches.mean": mean([s.meta["matches"] for s in core]),
        "core.calls_total": float(len(core)),
        "suffix.range_ms.p50": percentile(_ms([s.duration for s in by_name["suffix.range"]]), 50),
        "suffix.rmq_rounds_per_query.mean": len(rounds) / len(core) if core else 0.0,
        "trace.latency_mean_ms": latency_mean * 1000.0,
        "latency_share.http": share("http"),
        "latency_share.service_wait": share("service_wait"),
        "latency_share.engine": share("engine"),
        "latency_share.core": share("core"),
        "latency_share.unattributed": share("unattributed"),
    }


def build_metrics(spans: Sequence[Span]) -> Dict[str, float]:
    """Build-path metrics: per set-up totals, median over the set-ups."""
    by_id = {span.id: span for span in spans}
    children = _children(spans)

    def setup_of(span: Span) -> Optional[int]:
        current: Optional[Span] = span
        while current is not None and current.name != "setup":
            current = by_id.get(current.parent) if current.parent is not None else None
        return None if current is None else current.id

    def under_build(span: Span) -> bool:
        parent = by_id.get(span.parent) if span.parent is not None else None
        return parent is not None and parent.name == "build"

    totals: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        setup = setup_of(span)
        if setup is None:
            continue
        row = totals[setup]
        if span.name == "build":
            row["build.self_s"] += self_time(span, children[span.id])
        elif span.name.startswith("build.") and under_build(span):
            row[span.name + "_s"] += span.duration
            if span.name == "build.factors":
                row["build.transformed_len"] += span.meta["transformed_length"]
        elif span.name in ("payload.export", "persistence.save"):
            row[span.name + "_s"] += span.duration
    names = (
        "build.factors_s",
        "build.suffix_array_s",
        "build.lcp_s",
        "build.rmq_s",
        "build.self_s",
        "build.transformed_len",
        "payload.export_s",
        "persistence.save_s",
    )
    return {
        name: statistics.median(row[name] for row in totals.values()) if totals else 0.0
        for name in names
    }


def load_and_swap_metrics(
    setup_spans: Sequence[Span], phase_spans: Sequence[Span]
) -> Dict[str, float]:
    """Archive loads and swap drains.

    ``persistence.load_ms.p50`` takes the loads inside swaps where the
    workload swaps, else the set-up loads.
    """
    children = _children(phase_spans)
    swaps = [span for span in phase_spans if span.name == "replicas.swap"]
    loads = [span for span in phase_spans if span.name == "persistence.load"] or [
        span for span in setup_spans if span.name == "persistence.load"
    ]
    return {
        "persistence.load_ms.p50": percentile(_ms([s.duration for s in loads]), 50),
        "replicas.drain_close_ms.p50": percentile(
            _ms([self_time(s, children[s.id]) for s in swaps]), 50
        ),
    }
