"""Per-input latencies, percentiles and the speed scaling of the end-to-end metrics."""

import signal
import time
from pathlib import Path

import workloads


def test_p90_stays_within_the_observed_latencies():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 10.0]
    p90 = workloads.percentile(values, 90)
    assert 7.0 < p90 < 10.0
    assert abs(p90 - (7.0 + 0.3 * 3.0)) < 1e-12
    assert workloads.percentile([4.0], 90) == 4.0


def test_an_input_run_in_several_passes_counts_once_at_its_median():
    ops = [workloads.Op(key, 0.0, 0) for key in ("a", "b", "a", "b", "a", "b")]
    seconds = [1.0, 10.0, 3.0, 20.0, 2.0, 90.0]
    assert workloads.per_input(ops, seconds) == [2.0, 20.0]


def test_short_inputs_of_the_first_pass_run_until_they_have_enough_samples():
    class Corpus(workloads.Workload):
        min_samples = 3

    paths = [Path("long.json"), Path("short.json"), Path("enough.json")]
    first = workloads.Pass([workloads.Op("long", 2.5, 0), workloads.Op("short", 0.1, 0),
                            workloads.Op("enough", 1.5, 0)])
    again = workloads.Pass([workloads.Op("short", 0.1, 0), workloads.Op("enough", 1.5, 0)])
    corpus = Corpus(Path("."), 1, Path("."))
    assert workloads.repeats(corpus, paths, [first]) == paths[1:]
    assert workloads.repeats(corpus, paths, [first, again]) == paths[1:2]
    assert workloads.repeats(workloads.Workload(Path("."), 1, Path(".")), paths, [first]) == []


def test_work_is_scaled_segment_by_segment_without_the_samples():
    speed = workloads.Speed()
    speed.spans = [(0.0, 1.0), (3.0, 4.0), (10.0, 12.0)]  # samples of 1, 1 and 2 s
    ref = workloads.REFERENCE_CALIBRATION_S
    raw, scaled = speed.scaled(0.5, 11.0)
    assert raw == 2.0 + 6.0
    assert abs(scaled - (2.0 * ref / 1.0 + 6.0 * ref / 1.5)) < 1e-12
    assert speed.scaled(1.5, 2.5) == (1.0, ref)


def test_samples_are_taken_inside_a_long_call_and_never_overlap():
    speed = workloads.Speed()
    previous = signal.getsignal(signal.SIGALRM)
    with speed.sampling():
        end = time.perf_counter() + 4 * workloads.CALIBRATE_EVERY_S
        while time.perf_counter() < end:
            pass
    assert len(speed.spans) >= 3
    assert all(e0 <= s1 for (_, e0), (s1, _) in zip(speed.spans, speed.spans[1:]))
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
