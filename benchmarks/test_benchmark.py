"""The benchmark's own checks.  Run from the root of the repository:

    python -m pytest benchmarks
"""
import dataclasses
import json
import signal
import time

import pytest

import run
import spans
import workloads
from hostspeed import HostSpeed

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_reports_every_metric(workload, tmp_path):
    for trace, names in ((False, run.END_TO_END), (True, spans.PER_LAYER)):
        record, result = run.measure(workload, 1, 0, trace, tiny=True, spans_dir=tmp_path)
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == list(names)
        assert all(m["unit"] == names[k] for k, m in result["metrics"].items())
        assert record["machine"]["nproc"] >= 1 and record["seed"] == 1
    assert (tmp_path / f"spans-{workload}-seed1.jsonl").is_file()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_work_counts_repeat(workload):
    counts, digests = [], []
    for _ in range(2):
        record, result = run.measure(workload, 3, 0, True, tiny=True, spans_dir=None)
        assert result["correct"]
        counts.append({k: result["metrics"][k]["value"] for k in spans.WORK_COUNTS})
        digests.append(record["report_sha256"])
    assert counts[0] == counts[1]
    assert digests[0] == digests[1]


def test_pairing_blocks_count_only_minors_of_x():
    mv = run.import_package()
    inst = next(i for i in workloads.build(mv, "genpos", 1) if i.kind == "pairing" and (i.n, i.d) == (2, 3))
    with spans.Recorder(mv, workloads) as rec:
        rec.begin_instance(0)
        workloads.execute(mv, inst)
    # 5 rows of X have C(5, 3) = 10 maximal minors
    assert len(rec.minor_keys) == 10


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == spans.PER_LAYER


def test_inputs_depend_only_on_the_seed():
    mv = run.import_package()

    def rows(seed):
        return [i.data.matrix.rows_raw() for i in workloads.build(mv, "genpos", seed, tiny=True) if i.kind == "genpos"]

    assert rows(1) == rows(1)
    assert rows(1) != rows(2)


def test_reference_determinants():
    assert workloads.det([[7]]) == 7
    assert workloads.det([[1, 2, 3], [4, 5, 6], [7, 8, 10]]) == -3
    assert workloads.det([[2, 0, 0, 0], [0, 3, 0, 0], [1, 1, 5, 0], [4, 4, 4, 7]]) == 210
    assert workloads.det([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]) == -1
    assert workloads.det([[1, 2], [2, 4]]) == 0
    assert workloads.minor_product([[1, 0], [0, 1], [1, 1]]) == 1 * 1 * -1


def test_reference_finds_the_lex_least_witness():
    collinear = [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]]
    assert workloads.lex_least_dependent(collinear, 2) == (0, 1, 2)
    simplex = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]
    assert workloads.lex_least_dependent(simplex, 2) is None
    late = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 1, 1, 1], [1, 1, 0, 0]]
    assert workloads.lex_least_dependent(late, 3) == (0, 1, 2, 5)


def _first(mv, workload, kind):
    return next(i for i in workloads.build(mv, workload, 1, tiny=True) if i.kind == kind)


def test_a_wrong_verdict_fails_the_gate():
    mv = run.import_package()
    (inst,) = [i for i in workloads.build(mv, "genpos", 1, tiny=True) if i.kind == "genpos"][3:4]
    expect = workloads.expected(inst)
    results, _ = workloads.execute(mv, inst)
    assert workloads.check(inst, expect, results)
    assert not workloads.check(inst, (not expect[0], expect[1]), results)


@pytest.mark.parametrize(
    "workload,kind",
    [("numeric-zz", "hdv"), ("numeric-zz", "lemma"), ("numeric-zp", "hdv"), ("numeric-zp", "dual"),
     ("genpos", "pairing"), ("symbolic", "hdv")],
)
def test_a_zeroed_result_fails_the_gate(workload, kind):
    mv = run.import_package()
    inst = _first(mv, workload, kind)
    expect = workloads.expected(inst)
    (report,), _ = workloads.execute(mv, inst)
    assert workloads.check(inst, expect, [report])
    zero = mv.rings.RingElement(report.lhs.ring, report.lhs.ring.zero)
    # both sides zero, so the package's own verdict would still read as a match
    zeroed = dataclasses.replace(report, lhs=zero, rhs=zero, sign=None)
    assert not workloads.check(inst, expect, [zeroed])


def test_without_the_package_the_runner_fails(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    with pytest.raises(run.SetupError):
        run.import_package()
    assert run.main(["--workload", "genpos", "--seconds", "0"]) == 2


def test_reference_seconds_weight_by_the_sampled_speed():
    speed = HostSpeed()
    speed.at, speed.speed = [0.5, 1.5, 2.5], [1.0, 0.5, 1.0]
    # the samples inside the interval and one on each side
    assert speed.seconds((1.0, 0.0), (2.0, 0.0)) == pytest.approx(2.5 / 3)
    # time spent sampling is not work
    assert speed.seconds((1.0, 0.0), (2.0, 0.1)) == pytest.approx(0.9 * 2.5 / 3)
    assert speed.seconds((1.6, 0.0), (1.7, 0.0)) == pytest.approx(0.1 * 0.75)


def test_host_speed_samples_and_restores_the_signal():
    previous = signal.getsignal(signal.SIGALRM)
    with HostSpeed() as speed:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.2:
            pass
    assert len(speed.speed) >= 3 and speed.spent > 0
    assert signal.getsignal(signal.SIGALRM) == previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
