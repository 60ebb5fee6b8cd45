import pytest

from perfbench.layers import build_metrics, request_metrics
from perfbench.spans import Span

KEY = ("AT", 0.3, None)


def _spans():
    # One request: dispatch [0, 10] > submit [1, 9]; the batch evaluation
    # runs on another thread [5, 8] and carries the key; the two shard
    # queries ran on the shard pool without a context parent.
    return [
        Span(1, "http.dispatch", 0.0, 0.010, None, 7, {"bytes": 2048}),
        Span(2, "service.submit", 0.001, 0.009, 1, 7, {"key": KEY}),
        Span(3, "engine.search_many", 0.005, 0.008, None, None, {"keys": [KEY]}),
        Span(4, "core.query", 0.0055, 0.0070, None, None, {"shard": 0, "matches": 3}),
        Span(5, "core.query", 0.0060, 0.0075, None, None, {"shard": 1, "matches": 1}),
        Span(6, "suffix.rmq.query_batch", 0.0056, 0.0057, 4, None, {}),
        Span(7, "suffix.rmq.query_batch", 0.0061, 0.0062, 5, None, {}),
    ]


def test_request_metrics_split_latency_into_layers():
    metrics = request_metrics(_spans())
    assert metrics["trace.latency_mean_ms"] == pytest.approx(10.0)
    assert metrics["http.self_ms.p50"] == pytest.approx(2.0)
    assert metrics["service.wait_ms.p50"] == pytest.approx(5.0)
    # Shards cover [5.5, 7.5] of the [5, 8] evaluation.
    assert metrics["sharding.merge_self_ms.p50"] == pytest.approx(1.0)
    assert metrics["latency_share.core"] == pytest.approx(0.2)
    parts = ("http", "service_wait", "engine", "core", "unattributed")
    shares = [metrics[f"latency_share.{part}"] for part in parts]
    assert sum(shares) == pytest.approx(1.0)
    assert metrics["latency_share.unattributed"] == 0.0
    assert metrics["core.calls_total"] == 2
    assert metrics["core.matches.mean"] == pytest.approx(2.0)
    assert metrics["suffix.rmq_rounds_per_query.mean"] == pytest.approx(1.0)
    assert metrics["http.response_kb.mean"] == pytest.approx(2.0)


def test_unlinked_requests_count_as_unattributed():
    spans = [span for span in _spans() if span.name != "engine.search_many"]
    metrics = request_metrics(spans)
    assert metrics["latency_share.unattributed"] == pytest.approx(0.8)
    assert metrics["latency_share.http"] == pytest.approx(0.2)


def test_build_metrics_take_the_median_over_set_ups():
    spans = []
    for setup, scale in ((100, 1.0), (200, 2.0), (300, 3.0)):
        spans += [
            Span(setup, "setup", 0.0, 10.0 * scale, None, None, {}),
            Span(setup + 1, "build", 0.0, 5.0 * scale, setup, None, {}),
            Span(
                setup + 2, "build.factors", 0.0, 1.0 * scale, setup + 1, None,
                {"transformed_length": 50},
            ),
            Span(setup + 3, "build.rmq", 1.0 * scale, 2.0 * scale, setup + 1, None, {}),
            Span(setup + 4, "persistence.save", 5.0 * scale, 6.0 * scale, setup, None, {}),
            Span(setup + 5, "payload.export", 5.0 * scale, 5.5 * scale, setup + 4, None, {}),
        ]
    metrics = build_metrics(spans)
    assert metrics["build.factors_s"] == pytest.approx(2.0)
    assert metrics["build.rmq_s"] == pytest.approx(2.0)
    assert metrics["build.self_s"] == pytest.approx(6.0)
    assert metrics["build.transformed_len"] == 50
    assert metrics["payload.export_s"] == pytest.approx(1.0)
    assert metrics["persistence.save_s"] == pytest.approx(2.0)
    assert metrics["build.lcp_s"] == 0.0
