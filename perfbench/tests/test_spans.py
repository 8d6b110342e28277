"""Self-time subtraction, summaries and the Chrome trace export."""

import json

import pytest

from spans import SpanRecorder, merge_summaries, self_times, summarize, write_chrome_trace


def _spans(*rows):
    """(start, end, parent) rows -> the three parallel sequences."""
    return [r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows]


def test_nested_children_are_subtracted_once():
    # 0 [0,10] > 1 [1,6] > 2 [2,4]
    selfs = self_times(*_spans((0.0, 10.0, -1), (1.0, 6.0, 0), (2.0, 4.0, 1)))
    assert list(selfs) == pytest.approx([5.0, 3.0, 2.0])


def test_adjacent_children_cover_their_sum():
    # 0 [0,10] with children [1,3] and [3,7] touching at 3
    selfs = self_times(*_spans((0.0, 10.0, -1), (1.0, 3.0, 0), (3.0, 7.0, 0)))
    assert list(selfs) == pytest.approx([4.0, 2.0, 4.0])


def test_overlapping_children_count_their_union():
    # children [1,5] and [3,8] overlap on [3,5]: union is 7, not 9
    selfs = self_times(*_spans((0.0, 10.0, -1), (1.0, 5.0, 0), (3.0, 8.0, 0)))
    assert selfs[0] == pytest.approx(3.0)


def test_children_are_clipped_to_the_parent_and_order_does_not_matter():
    # a child running past its parent's end covers only the parent's part;
    # spans given out of start order give the same answer
    selfs = self_times(*_spans((4.0, 12.0, 1), (0.0, 10.0, -1), (2.0, 3.0, 1)))
    assert selfs[1] == pytest.approx(10.0 - 1.0 - 6.0)


def test_summary_groups_count_outermost_spans_only():
    recorder = SpanRecorder()
    outer, inner = recorder.name_id("A.apply"), recorder.name_id("B.apply")
    first = recorder.open(outer)
    second = recorder.open(inner)
    recorder.close(second)
    recorder.close(first)
    recorder.count("hits", 2)
    summary = summarize(recorder, {"apply": ("A.apply", "B.apply")})
    total = recorder.ends[first] - recorder.starts[first]
    assert summary["groups"]["apply"] == pytest.approx(total)
    assert summary["spans"]["A.apply"]["count"] == 1
    assert summary["counters"] == {"hits": 2}
    merged = merge_summaries([summary, summary])
    assert merged["spans"]["B.apply"]["count"] == 2
    assert merged["counters"]["hits"] == 4


def test_chrome_trace_is_trace_event_json(tmp_path):
    recorder = SpanRecorder()
    recorder.cell = 3
    outer = recorder.open(recorder.name_id("Simulator.run"))
    recorder.close(recorder.open(recorder.name_id("LockManager.acquire")))
    recorder.close(outer)
    path = tmp_path / "trace.json"
    write_chrome_trace(recorder, str(path), category=lambda name: name.split(".")[0], limit=1)
    payload = json.loads(path.read_text())
    assert payload["otherData"] == {"spans_total": 2, "spans_written": 1}
    (event,) = payload["traceEvents"]
    assert event["ph"] == "X" and event["name"] == "Simulator.run"
    assert event["args"] == {"id": 0, "parent": -1, "cell": 3}
