import pytest

from spinbench import estimators


def test_tail_is_p99_with_a_thousand_samples():
    values = list(range(1, 1001))          # 1..1000
    value, q, n = estimators.tail(values)
    assert (value, q, n) == (990, 0.99, 1000)
    assert sum(v > value for v in values) == 10


def test_tail_keeps_ten_samples_beyond_when_short():
    values = [float(v) for v in range(600)]
    value, q, n = estimators.tail(values)
    assert n == 600
    assert sum(v > value for v in values) == 10
    assert q == pytest.approx(590 / 600)


def test_tail_never_goes_past_p99_with_many_samples():
    values = list(range(5000))
    value, q, _ = estimators.tail(values)
    assert q == 0.99
    assert sum(v > value for v in values) == 50


def test_tail_ignores_input_order():
    values = [5.0, 1.0, 9.0, 3.0] * 10
    assert estimators.tail(values) == estimators.tail(sorted(values))


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        estimators.tail(range(10))
    value, q, n = estimators.tail(range(11))
    assert (value, n) == (0, 11)


class Req:
    def __init__(self, due, done):
        self.due = self.submitted = due
        self.done = done


def test_normalised_scales_latency_by_the_reference_around_it():
    # The kernel ran at 1 ms (the reference speed) before the first
    # request and at 3 ms after it: the host ran it twice as slowly on
    # average, so a 20 ms request counts as 10 ms.  The second request
    # sits between two 2-ms samples: 20 ms count as 10 ms too.
    samples = [(10.0, 1.0), (10.3, 3.0), (10.6, 2.0), (10.9, 2.0)]
    reqs = [Req(10.10, 10.12), Req(10.70, 10.72)]
    out = estimators.normalised(reqs, samples, 1.0)
    assert out == pytest.approx([10.0, 10.0])


def test_normalised_keeps_the_wall_clock_floor_as_measured():
    # A 2 ms flush timer does not run slower on a slow host: of a 22 ms
    # request on a 2x-slow host, 2 ms stay and 20 ms count as 10 ms.
    out = estimators.normalised([Req(10.0, 10.022), Req(10.0, 10.001)],
                                [(9.9, 2.0), (10.1, 2.0)], 1.0,
                                floor_s=0.002)
    assert out == pytest.approx([12.0, 1.0])


def test_normalised_uses_one_side_at_the_ends_of_a_run():
    samples = [(10.1, 2.0), (10.5, 4.0)]
    reqs = [Req(10.0, 10.01), Req(11.6, 11.61)]
    out = estimators.normalised(reqs, samples, 1.0)
    assert out == pytest.approx([5.0, 2.5])


def test_steal_exposure_is_the_counter_growth_around_each_request():
    # Marks of the cumulative steal counter.
    marks = [(10.0, 100.0), (10.3, 100.0), (10.6, 130.0), (10.9, 130.0),
             (11.2, 150.0)]
    reqs = [Req(10.0, 10.3),     # from the mark at 10.0 to the one at 10.3
            Req(10.4, 10.5),     # marks at 10.3 and 10.6: 30 ms
            Req(10.6, 10.9),     # exactly on marks: none
            Req(11.0, 11.5)]     # past the last mark: up to it
    assert estimators.steal_exposure(reqs, marks) == [0.0, 30.0, 0.0, 20.0]


def test_least_exposed_keeps_every_request_without_steal():
    exposure = [0.0, 10.0, 0.0, 0.0, 20.0, 0.0, 0.0, 10.0]
    assert estimators.least_exposed(exposure, 0.25) == \
        [True, False, True, True, False, True, True, False]
    assert estimators.least_exposed([0.0] * 4, 0.25) == [True] * 4
    assert estimators.least_exposed([], 0.25) == []


def test_least_exposed_keeps_a_share_in_a_steal_storm():
    # Only one of eight saw no steal; a quarter (two) must be kept, so
    # every request at the second-lowest exposure stays too.
    exposure = [30.0, 10.0, 0.0, 20.0, 10.0, 40.0, 30.0, 20.0]
    assert estimators.least_exposed(exposure, 0.25) == \
        [False, True, True, False, True, False, False, False]


def test_due_latency_charges_generator_lag_to_the_request():
    # Due at 1.000 s, submitted 4 ms late by a stalled generator,
    # served 3 ms after submission: 7 ms from due, of which 4 ms lag.
    latency, lag = estimators.due_latency(1.000, 1.004, 1.007)
    assert latency == pytest.approx(0.007)
    assert lag == pytest.approx(0.004)


def test_due_latency_rejects_impossible_order():
    with pytest.raises(ValueError):
        estimators.due_latency(1.0, 0.9, 1.1)


def test_union_length_merges_overlaps():
    assert estimators.union_length([(0, 1), (0.5, 2), (3, 4)]) == 3
    assert estimators.union_length([(2, 1)]) == 0
    assert estimators.union_length([]) == 0
