"""Tests of the benchmark's own arithmetic, fault schedule and mock framing.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import hashlib
import http.client
import json
import random
import statistics
import threading
from http.server import ThreadingHTTPServer

import pytest

from mock_endpoint import (
    VIOLATION_TEXT,
    Fault,
    MockState,
    fault_schedule,
    frame,
    make_handler,
    response_for,
)
from run import coverage
from tracing import Tracer, aggregate, covered, percentile, self_times


class TestPercentile:
    def test_hand_values(self):
        assert percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
        assert percentile([1.0, 2.0, 3.0, 4.0], 0) == 1.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 100) == 4.0
        assert percentile([7.0], 99) == 7.0
        assert percentile([float(i) for i in range(1, 101)], 99) == pytest.approx(99.01)

    def test_matches_inclusive_quartiles(self):
        rng = random.Random(3)
        for _ in range(200):
            values = [rng.uniform(0, 10) for _ in range(rng.randint(2, 40))]
            expected = statistics.quantiles(values, n=4, method="inclusive")
            got = [percentile(values, q) for q in (25, 50, 75)]
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestSelfTime:
    def test_union_of_overlapping_children(self):
        # children [1,4] and [3,6] overlap; [8,12] sticks out of the parent
        assert covered((0.0, 10.0), [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)]) == 7.0

    def test_disjoint_nested_and_empty(self):
        assert covered((0.0, 10.0), [(1.0, 2.0), (4.0, 5.0)]) == 2.0
        assert covered((0.0, 10.0), [(1.0, 5.0), (2.0, 3.0)]) == 4.0
        assert covered((0.0, 10.0), []) == 0.0
        assert covered((0.0, 10.0), [(11.0, 12.0)]) == 0.0

    def test_only_direct_children_count(self):
        spans = [
            (1, 0, "stage", 0.0, 10.0),
            (2, 1, "child", 1.0, 5.0),
            (3, 2, "grandchild", 2.0, 4.0),
            (4, 1, "worker", 3.0, 7.0),  # overlaps the other child
        ]
        own = self_times(spans)
        assert own == {1: 4.0, 2: 2.0, 3: 2.0, 4: 4.0}
        agg = aggregate(spans)
        assert agg["stage"] == {"calls": 1, "total_s": 10.0, "self_s": 4.0}

    def test_tracer_parents_across_threads(self):
        tracer = Tracer()
        inner = tracer.wrap("inner", lambda: None)
        outer = tracer.wrap("outer", lambda: inner())

        def stage():
            outer()
            worker = threading.Thread(target=inner)
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()

        tracer.run_root("stage", stage)
        by_name: dict[str, list] = {}
        for span in tracer.spans:
            by_name.setdefault(span[2], []).append(span)
        (root,) = by_name["stage"]
        (out,) = by_name["outer"]
        assert root[1] == 0 and out[1] == root[0]
        parents = sorted(s[1] for s in by_name["inner"])
        assert parents == sorted([out[0], root[0]])


class TestFaultSchedule:
    HASHES = [hashlib.sha256(str(i).encode()).hexdigest() for i in range(6000)]

    def test_deterministic_and_order_free(self):
        first = fault_schedule(self.HASHES, 11)
        assert first == fault_schedule(reversed(self.HASHES), 11)
        assert first != fault_schedule(self.HASHES, 12)

    def test_exact_shares(self):
        for seed in (1, 2, 3):
            faults = list(fault_schedule(self.HASHES, seed).values())
            assert faults.count(Fault.TWO_VIOLATIONS) == 30
            assert faults.count(Fault.ONE_VIOLATION) == 120
            assert faults.count(Fault.ONE_503) == 12
            assert faults.count(Fault.NONE) == 6000 - 162

    def test_scripts(self):
        ok = '{"label": "positive"}'
        script = lambda fault: [response_for(fault, a, ok) for a in range(3)]  # noqa: E731
        assert script(Fault.NONE) == [(200, ok)] * 3
        assert script(Fault.ONE_VIOLATION) == [(200, VIOLATION_TEXT), (200, ok), (200, ok)]
        assert script(Fault.TWO_VIOLATIONS) == [(200, VIOLATION_TEXT)] * 2 + [(200, ok)]
        assert script(Fault.ONE_503) == [(503, None), (200, ok), (200, ok)]


class TestMock:
    def test_frame_is_one_complete_response(self):
        body = b'{"a": 1}'
        raw = frame(503, body)
        head, _, rest = raw.partition(b"\r\n\r\n")
        assert head.split(b"\r\n")[0] == b"HTTP/1.1 503 Service Unavailable"
        assert b"Content-Length: 8" in head and rest == body

    def test_turnaround_pairs_oldest_unanswered_response(self):
        state = MockState({}, seed=0, latency_s=0.0)
        state.arrive(0.0)  # client A; nothing answered yet: no sample
        state.arrive(0.5)  # client B
        state.record(200, 0.0, 1.0)  # A's response
        state.record(200, 0.5, 2.0)  # B's response
        state.arrive(2.5)  # next request follows the oldest response (1.0)
        state.record(200, 2.5, 3.0)
        state.arrive(3.25)  # follows 2.0
        state.arrive(3.5)  # follows 3.0
        assert state.stats()["turnaround_s"] == [1.5, 1.25, 0.5]
        state.reset()
        assert state.stats()["turnaround_s"] == [] and state.stats()["requests"] == 0

    def test_each_response_is_a_single_write(self):
        prompt = "Read the disclosure."
        phash = hashlib.sha256(prompt.encode()).hexdigest()
        table = {phash: '{"label": "neutral", "rationale": "r", "confidence": 0.5}'}
        state = MockState(table, seed=0, latency_s=0.0)
        writes: list[bytes] = []

        class Counting(make_handler(state)):
            def setup(self):
                super().setup()
                real = self.wfile

                class Writer:
                    def write(self, data):
                        writes.append(bytes(data))
                        return real.write(data)

                    def __getattr__(self, name):
                        return getattr(real, name)

                self.wfile = Writer()

        server = ThreadingHTTPServer(("127.0.0.1", 0), Counting)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            conn = http.client.HTTPConnection("127.0.0.1", server.server_address[1], timeout=10)
            bodies = []
            for _ in range(3):  # keep-alive: three requests on one connection
                conn.request("POST", "/v1/chat/completions",
                             body=json.dumps({"messages": [{"content": prompt}]}))
                response = conn.getresponse()
                assert response.status == 200
                bodies.append(json.loads(response.read()))
            conn.close()
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        assert len(writes) == 3
        assert all(w.startswith(b"HTTP/1.1 200 OK\r\n") for w in writes)
        assert bodies[0]["choices"][0]["message"]["content"] == table[phash]
        assert state.stats()["requests"] == 3 and len(state.stats()["turnaround_s"]) == 2


def test_coverage_line_parse():
    out = "noise\ncoverage: 6000/6000 pairs (0 cached, 6000 fetched, 31 fallbacks)\n"
    assert coverage(out) == {"covered": 6000, "pairs": 6000, "cached": 0,
                             "fetched": 6000, "fallbacks": 31}
    assert coverage("nothing here") is None
