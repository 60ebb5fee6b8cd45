import asyncio

import pytest

from perfbench.spans import Span, SpanRecorder, patch, self_time


def _span(name, start, end, parent=None):
    return Span(0, name, start, end, parent, None, {})


def test_self_time_subtracts_the_union_of_overlapping_children():
    parent = _span("p", 0.0, 10.0)
    children = [_span("a", 1.0, 4.0), _span("b", 2.0, 6.0), _span("c", 8.0, 12.0)]
    # Covered: [1, 6] and [8, 10] -> 7 of 10.
    assert self_time(parent, children) == pytest.approx(3.0)
    assert self_time(parent, []) == pytest.approx(10.0)


def test_nested_spans_record_parents_and_request_ids():
    recorder = SpanRecorder()
    recorder.request.set(42)
    with recorder.span("outer") as outer:
        with recorder.span("inner", tag=1) as inner:
            pass
    assert inner.parent == outer.id and outer.parent is None
    assert inner.request == 42 and inner.meta == {"tag": 1}
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert [span.name for span in recorder.take()] == ["inner", "outer"]
    assert recorder.spans == []


def test_concurrent_tasks_keep_their_own_parent_chain():
    recorder = SpanRecorder()

    async def client(request_id):
        recorder.request.set(request_id)
        with recorder.span("request"):
            await asyncio.sleep(0.001)
            with recorder.span("child"):
                await asyncio.sleep(0.001)

    async def main():
        await asyncio.gather(client(1), client(2))

    asyncio.run(main())
    spans = {(span.name, span.request): span for span in recorder.spans}
    for request_id in (1, 2):
        assert spans[("child", request_id)].parent == spans[("request", request_id)].id


def test_wrap_and_patch_record_calls_and_describe_results():
    recorder = SpanRecorder()

    class Thing:
        def double(self, value):
            return 2 * value

    thing = Thing()
    def describe(result):
        return {"result": result}

    patch(thing, "double", lambda f: recorder.wrap("double", f, describe=describe, shard=3))
    assert thing.double(5) == 10
    (span,) = recorder.spans
    assert span.name == "double" and span.meta == {"shard": 3, "result": 10}


def test_wrap_async_records_the_awaited_call():
    recorder = SpanRecorder()

    async def submit(request):
        await asyncio.sleep(0)
        return request * 2

    wrapped = recorder.wrap_async("submit", submit, describe=lambda args: {"key": args[0]})
    assert asyncio.run(wrapped(4)) == 8
    (span,) = recorder.spans
    assert span.meta == {"key": 4}
