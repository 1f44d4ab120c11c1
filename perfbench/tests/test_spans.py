import pytest

from spans import Span, Tracer, covered, self_times


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1.0, 3.0), (2.0, 5.0)], 0.0, 10.0) == 4.0
    assert covered([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == 2.0
    assert covered([(4.0, 5.0), (1.0, 2.0), (2.0, 3.0)], 0.0, 10.0) == 3.0


def test_self_time_subtracts_back_to_back_children():
    spans = [
        Span(0, "root", 0.0, 10.0, None, None),
        Span(1, "a", 1.0, 3.0, 0, None),
        Span(2, "b", 3.0, 6.0, 0, None),
    ]
    assert self_times(spans) == {0: 5.0, 1: 2.0, 2: 3.0}


def test_self_time_counts_only_direct_children():
    spans = [
        Span(0, "root", 0.0, 10.0, None, None),
        Span(1, "child", 2.0, 8.0, 0, None),
        Span(2, "grandchild", 3.0, 7.0, 1, None),
    ]
    assert self_times(spans) == {0: 4.0, 1: 2.0, 2: 4.0}


def test_tracer_records_parents_batches_and_meta():
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.batch = ("train", 0, 1)
    with tracer.span("outer"):
        clock.now = 1.0
        with tracer.span("inner", rows=3):
            clock.now = 4.0
        clock.now = 5.0
        tracer.batch = ("train", 0, 2)
        with tracer.span("inner"):
            clock.now = 6.0
    outer, first, second = tracer.spans
    assert (outer.parent, first.parent, second.parent) == (None, 0, 0)
    assert (first.start, first.end, first.meta) == (1.0, 4.0, {"rows": 3})
    assert (first.batch, second.batch) == (("train", 0, 1), ("train", 0, 2))
    assert self_times(tracer.spans)[0] == pytest.approx(6.0 - 3.0 - 1.0)


class Owner:
    @staticmethod
    def double(x):
        return 2 * x

    @staticmethod
    def fail():
        raise ValueError("boom")


def test_wrap_records_calls_and_restore_puts_originals_back():
    stored = dict(vars(Owner))
    tracer = Tracer()
    tracer.wrap(Owner, "double", "owner.double", lambda args, kwargs, result: {"out": result})
    tracer.wrap(Owner, "fail", "owner.fail")
    assert Owner.double(4) == 8
    with pytest.raises(ValueError):
        Owner.fail()
    assert [(s.name, s.meta) for s in tracer.spans] == [("owner.double", {"out": 8}),
                                                        ("owner.fail", {})]
    assert all(s.end >= s.start for s in tracer.spans)
    tracer.restore()
    assert vars(Owner)["double"] is stored["double"]
    assert vars(Owner)["fail"] is stored["fail"]
    assert Owner.double(1) == 2 and len(tracer.spans) == 2
