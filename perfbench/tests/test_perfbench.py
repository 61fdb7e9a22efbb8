"""Tests of the benchmark's own machinery (not of oplength).

    python3 -m pytest perfbench/tests -q
"""

import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import metrics  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
from workloads import PASS_SECONDS, WORKLOADS, Op, Outcome, passes_for  # noqa: E402


def fake_clock(step=1.0):
    ticks = itertools.count()
    return lambda: next(ticks) * step


def test_self_time_subtracts_direct_children_only():
    tracer = spans.Tracer(clock=fake_clock())
    leaf = tracer.wrap("leaf", lambda: None)

    def inner_body():
        leaf()
        leaf()

    inner = tracer.wrap("inner", inner_body)

    def outer_body():
        inner()
        leaf()

    outer = tracer.wrap("outer", outer_body)
    outer()
    agg = spans.aggregate(tracer.spans)
    # clock reads: outer 0, inner 1, leaf 2-3, leaf 4-5, inner 6, leaf 7-8, outer 9
    assert agg["leaf"] == {"calls": 3, "total_s": 3.0, "self_s": 3.0}
    assert agg["inner"]["total_s"] == 5.0
    assert agg["inner"]["self_s"] == 5.0 - 2.0
    assert agg["outer"]["total_s"] == 9.0
    assert agg["outer"]["self_s"] == 9.0 - 5.0 - 1.0
    parents = {name: parent for name, _, _, parent in tracer.spans}
    assert parents["outer"] == -1
    assert tracer.spans[parents["inner"]][0] == "outer"


def test_spans_are_written_as_json_lines(tmp_path):
    tracer = spans.Tracer(clock=fake_clock())
    tracer.wrap("outer", tracer.wrap("inner", lambda: None))()
    path = tmp_path / "spans.jsonl"
    spans.write_jsonl(tracer.spans, str(path))
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows == [
        {"id": 0, "name": "outer", "start": 0.0, "end": 3.0, "parent": -1},
        {"id": 1, "name": "inner", "start": 1.0, "end": 2.0, "parent": 0},
    ]


def test_self_time_with_exceptions_keeps_the_stack_balanced():
    tracer = spans.Tracer(clock=fake_clock())

    def boom():
        raise ValueError("x")

    inner = tracer.wrap("inner", boom)

    def outer_body():
        with pytest.raises(ValueError):
            inner()

    tracer.wrap("outer", outer_body)()
    tracer.wrap("after", lambda: None)()
    assert [s[3] for s in tracer.spans] == [-1, 0, -1]
    agg = spans.aggregate(tracer.spans)
    assert agg["outer"]["self_s"] == agg["outer"]["total_s"] - agg["inner"]["total_s"]


@pytest.mark.parametrize("n, pct, beyond", [
    (19, 50.0, 9),     # below 2 * MIN_BEYOND: falls back to the median
    (20, 50.0, 10),
    (36, 50.0, 18),
    (38, 75.0, 10),
    (40, 75.0, 10),
    (44, 75.0, 11),
    (100, 90.0, 10),
    (104, 90.0, 11),
    (200, 95.0, 10),
    (1000, 99.0, 10),
    (10000, 99.9, 10),
])
def test_tail_is_highest_ladder_percentile_with_ten_beyond(n, pct, beyond):
    values = [float(v) for v in range(n)]
    got_pct, value, got_beyond = metrics.tail(values)
    assert (got_pct, got_beyond) == (pct, beyond)
    assert value == metrics.quantile(values, pct)
    assert sum(v > value for v in values) == got_beyond


def test_quantile_matches_statistics_inclusive():
    import statistics

    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    assert [metrics.quantile(values, p) for p in (25, 50, 75)] == pytest.approx(q)


def test_wrappers_are_removed_after_a_traced_run():
    # force a fresh import of cli during install: it must not bind wrappers
    sys.modules.pop("oplength.cli", None)
    import oplength
    from oplength import blocks, certs, constructions, instances, pipeline

    originals = {
        "certs.operator_norm": certs.operator_norm,
        "pipeline.verify": pipeline.verify,
        "DiagonalMatrix.norm": blocks.DiagonalMatrix.__dict__["norm"],
        "post_init": certs.FactorizationCertificate.__dict__["__post_init__"],
        "t13.build": pipeline.CONSTRUCTIONS["t13"].build,
        "oplength.pinch": oplength.pinch,
    }
    x = instances.random_instance(2, 4, 0)
    tracer = spans.Tracer()
    with tracer:
        assert pipeline.verify is not originals["pipeline.verify"]
        cert, target = pipeline.CONSTRUCTIONS["t13"].build(x)
        pipeline.verify(cert, target)
    names = {s[0] for s in tracer.spans}
    assert {"constructions.build.t13", "constructions.pinch", "certs.verify",
            "blocks.DiagonalMatrix.norm", "certs.FactorizationCertificate.init",
            "certs.cost", "pipeline.pinching_pipeline"} <= names
    assert tracer.counts["constructions.pinch.bytes"] > 0
    assert spans.leftover_wrappers() == []
    from oplength import cli

    assert cli.operator_norm is blocks.operator_norm
    assert certs.operator_norm is originals["certs.operator_norm"]
    assert pipeline.verify is originals["pipeline.verify"]
    assert blocks.DiagonalMatrix.__dict__["norm"] is originals["DiagonalMatrix.norm"]
    assert certs.FactorizationCertificate.__dict__["__post_init__"] is originals["post_init"]
    assert pipeline.CONSTRUCTIONS["t13"].build is originals["t13.build"]
    assert oplength.pinch is originals["oplength.pinch"] is constructions.pinch


def test_traced_run_traces_each_op_in_half_the_passes():
    import worker

    tracer = spans.Tracer()
    calls = []
    ops = [Op(f"op{i}", lambda i=i: calls.append((i, bool(tracer._patches))),
              lambda out: Outcome(True)) for i in range(3)]

    class NoReference:
        def expected(self, workload, seed, op_id):
            return (None, None)

    plain = worker.PassRunner("w", 0, ops, NoReference())
    traced = worker.PassRunner("w", 0, ops, NoReference())
    worker.run_traced(plain, traced, tracer, 4)
    assert sorted(calls) == sorted([(i, t) for i in range(3) for t in (False, True)] * 2)
    assert [t for _, t in calls[:6]] == [False, True, False, True, False, True]
    assert len(plain.times) == len(traced.times) == 6
    assert traced.certs_returned == 6
    assert spans.leftover_wrappers() == []


def test_wrappers_are_removed_when_the_traced_run_raises():
    from oplength import certs

    original = certs.cost
    with pytest.raises(RuntimeError):
        with spans.Tracer():
            assert certs.cost is not original
            raise RuntimeError("op failed")
    assert certs.cost is original
    assert spans.leftover_wrappers() == []


def test_benchmark_json_names_every_metric_the_code_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        doc = json.load(f)
    assert {w["name"] for w in doc["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == metrics.PER_LAYER
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_reference_problems():
    good = Outcome(True, cost=2.0, target_norm=1.0, bound_use=0.5, digest="ab")
    assert reference.problems(good, ("ab", 2.0 * (1 + 5e-13))) == []
    assert reference.problems(good, (None, None)) == []
    assert len(reference.problems(good, ("ac", 2.0))) == 1
    assert len(reference.problems(good, ("ab", 2.0 * (1 + 1e-11)))) == 1
    assert len(reference.problems(Outcome(False), (None, None))) == 1
    below = Outcome(True, cost=1.0 - 1e-9, target_norm=1.0)
    assert len(reference.problems(below, (None, None))) == 1
    over = Outcome(True, cost=1.0, bound_use=1.0 + 1e-6)
    assert len(reference.problems(over, (None, None))) == 1


def test_reference_build_shares_seed_independent_digests():
    doc = reference.build({"w": {
        0: {"a": ("d1", 1.0), "b": ("x0", 2.0)},
        1: {"a": ("d1", 1.5), "b": ("x1", 2.5)},
    }})
    ref = reference.Reference(doc)
    assert doc["workloads"]["w"]["digests"] == {"a": "d1"}
    assert ref.expected("w", 1, "a") == ("d1", 1.5)
    assert ref.expected("w", 0, "b") == ("x0", 2.0)
    assert ref.expected("w", 7, "a") is None
    assert ref.expected("w", 0, "c") is None


def test_an_op_without_reference_record_fails():
    good = Outcome(True, cost=2.0, target_norm=1.0, digest="ab")
    assert reference.problems(good, None) == ["no reference output for this op"]


def test_every_seed_runs_on_a_covered_input_set():
    covered = set(reference.REFERENCE_SEEDS)
    for seed in list(range(200)) + [reference.HELD_OUT_SEED, 10**9 + 7]:
        assert reference.input_seed(seed) in covered
    assert reference.input_seed(reference.HELD_OUT_SEED) == reference.HELD_OUT_SEED
    assert reference.HELD_OUT_SEED not in {reference.input_seed(s) for s in range(1000)}
    ref = reference.Reference.load()
    for wl in WORKLOADS:
        assert set(ref.doc["workloads"][wl]["seeds"]) == {str(s) for s in covered}


def test_reference_has_a_record_for_every_op(tmp_path):
    # op ids do not depend on the seed; the input sets are checked above
    ref = reference.Reference.load()
    seed = reference.HELD_OUT_SEED
    for wl, setup in WORKLOADS.items():
        ops = setup(seed, str(tmp_path))
        assert len({op.op_id for op in ops}) == len(ops)
        assert all(ref.expected(wl, seed, op.op_id) is not None for op in ops), wl


def test_op_count_depends_on_seconds_only():
    for wl in WORKLOADS:
        assert passes_for(wl, 0.1) == 1
        assert passes_for(wl, 2 * PASS_SECONDS[wl]) == 2
        assert passes_for(wl, 10 * PASS_SECONDS[wl]) == 10


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
