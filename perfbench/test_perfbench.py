"""Tests of the benchmark itself, at small sizes.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

import run as bench

bench._load_package()
import workloads  # noqa: E402  (needs the package path set up above)
from clock import Clock  # noqa: E402

SMALL = {
    "fewshot": workloads.Fewshot(episodes=1),
    "enroll_score": workloads.EnrollScore(requests=2),
    "listen": workloads.Listen(blocks=1, isolated_per_block=3, stretch_utterances=2),
}
DECLARED = json.loads((Path(bench.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def passes():
    """One untraced pass of each small workload: (workload, state, log, clock)."""
    out = {}
    for name, workload in SMALL.items():
        state = workload.setup(seed=3)
        log, clock = workload.new_log(), Clock()
        workload.run_pass(state, log, workloads.NoTracer(), clock)
        clock.close()
        out[name] = (workload, state, log, clock)
    return out


def declared(section):
    return {m["name"]: m["unit"] for m in DECLARED[section]}


@pytest.mark.parametrize("name", sorted(SMALL))
@pytest.mark.parametrize("trace", [False, True])
def test_small_run_emits_every_declared_metric(name, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path)
    result, detail = bench.measure(SMALL[name], seed=5, seconds=0, trace=trace)
    want = declared("per_layer" if trace else "end_to_end")
    got = {metric: v["unit"] for metric, v in result["metrics"].items()}
    assert got == want
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    # the only failures are streaming events that are not bit-equal to batch
    not_bit_equal = detail["detail"].get("wakeword.events_not_bit_equal", {"value": 0})["value"]
    assert result["correct"] and result["failed"] == not_bit_equal and result["attempted"] >= 1
    assert "setup_s" in detail["detail"]
    if trace:
        assert list(tmp_path.glob("spans-*.jsonl"))


def test_traced_fewshot_counts_three_front_end_and_two_gru_passes(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path)
    result, _ = bench.measure(SMALL["fewshot"], seed=5, seconds=0, trace=True)
    metrics = result["metrics"]
    assert metrics["evaluation.frontend_passes_per_recording"]["value"] == 3.0
    assert metrics["evaluation.gru_passes_per_recording"]["value"] == 2.0


def test_run_counts_repeat_for_a_seed_whatever_the_pass_speed():
    listen = SMALL["listen"]
    assert bench.workload_passes(listen, 0) == 1
    assert bench.workload_passes(listen, 2 * listen.pass_seconds + 1) == 2
    one, _ = bench.measure(listen, seed=5, seconds=0, trace=False)
    runs = [bench.measure(listen, seed=5, seconds=2 * listen.pass_seconds, trace=False)[0]
            for _ in range(2)]
    counts = {(r["attempted"], r["failed"]) for r in runs}
    assert counts == {(2 * one["attempted"], 2 * one["failed"])}


def test_tracer_restores_the_original_functions():
    from tracing import Tracer
    from wakespot import evaluation, label_model

    original = label_model.run
    with Tracer() as tracer:
        workloads.instrument(tracer)
        assert evaluation.run is not original and label_model.run is not original
    assert evaluation.run is original and label_model.run is original


def test_fewshot_check_flags_skipped_missing_and_nan(passes):
    workload, state, log, _ = passes["fewshot"]
    assert workload.check(state, log).failed == 0
    report = log.reports["donut"][0]
    nan_record = dataclasses.replace(report.records[0], score=float("nan"))
    planted = [
        None,
        dataclasses.replace(report, episodes_skipped=1),
        dataclasses.replace(report, records=report.records[1:]),
        dataclasses.replace(report, records=(nan_record, *report.records[1:])),
    ]
    for bad in planted:
        log.reports["donut"][0] = bad
        assert workload.check(state, log).failed == 1
    log.reports["donut"][0] = report


def test_enroll_score_check_flags_a_perturbed_score(passes):
    workload, state, log, _ = passes["enroll_score"]
    assert workload.check(state, log).failed == 0
    index, j, value = log.scores[0]
    assert j == 0
    log.scores[0] = (index, j, value * (1 + 1e-6))
    try:
        assert workload.check(state, log).failed == 1
    finally:
        log.scores[0] = (index, j, value)


def batch_score(state, event):
    lo, hi = workloads.event_span(event)
    buffer = workloads.audio.AudioBuffer(state.stream[lo:hi])
    return workloads.wakeword.score(state.model, workloads.posteriorgram(state.weights, buffer))


def test_listen_check_fails_an_event_not_bit_equal_to_batch(passes):
    workload, state, log, _ = passes["listen"]
    checked = workload.check(state, log)
    assert checked.correct and checked.attempted == len(log.events) >= 3
    assert checked.failed == checked.within_tolerance
    assert checked.failed == checked.notes["wakeword.events_not_bit_equal"][0]
    event, chunk_end, record = log.events[0]
    want = batch_score(state, event)
    others = checked.failed - (event.score != want)
    planted = [  # (score of the first event, failed, correct)
        (want, others, True),
        (float(np.nextafter(want, math.inf)), others + 1, True),
        (want + 1e-3, others + 1, False),
    ]
    try:
        for score, failed, correct in planted:
            log.events[0] = (dataclasses.replace(event, score=score), chunk_end, record)
            checked = workload.check(state, log)
            assert (checked.failed, checked.correct) == (failed, correct)
    finally:
        log.events[0] = (event, chunk_end, record)


def test_listen_check_fails_a_missing_event(passes):
    workload, state, log, _ = passes["listen"]
    before = workload.check(state, log).failed
    dropped = log.events.pop()
    count, stats = log.passes[0]
    log.passes[0] = (count - 1, stats)
    try:
        checked = workload.check(state, log)
        assert not checked.correct
        assert checked.failed == before - (dropped[0].score != batch_score(state, dropped[0])) + 1
    finally:
        log.events.append(dropped)
        log.passes[0] = (count, stats)


def test_event_latency_runs_from_the_last_utterance_end(passes):
    workload, state, log, clock = passes["listen"]
    latencies = workload.latencies_ms(state, log, clock.seconds)
    assert len(latencies) == len(log.events)
    # an isolated utterance's segment closes one VAD hangover (200 ms) after
    # its last tone, which ends 30-60 ms before the utterance does
    assert all(100.0 < ms < 1000.0 for ms in latencies)
    assert min(latencies) < 250.0


def test_clock_scales_by_the_kernel_time_around_each_operation(monkeypatch):
    import clock

    monkeypatch.setattr(clock, "kernel_seconds", lambda: 2 * clock.REFERENCE_S)
    timer = clock.Clock(interval=0.0)
    record = timer.record(clock._perf() - 1.0)
    assert timer.raw_seconds([record])[0] >= 1.0
    assert timer.seconds([record]) == [timer.raw_seconds([record])[0] / 2]
    assert timer.speed == 0.5
