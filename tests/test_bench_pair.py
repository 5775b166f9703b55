import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pair.py"


@pytest.fixture(scope="module")
def bench_pair():
    spec = importlib.util.spec_from_file_location("bench_pair", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summary_of_fixed_pairs(bench_pair):
    parent = [5.0, 6.0, 7.0, 8.0, 4.0]
    change = [3.0, 6.0, 4.0, 9.0, 2.0]
    pairs = [{"parent": {"wall_s": p, "rate": p}, "change": {"wall_s": c, "rate": c}}
             for p, c in zip(parent, change)]
    summary = bench_pair.summarize(pairs, {"wall_s": "lower", "rate": "higher"})

    wall = summary["wall_s"]
    assert wall["parent"] == {"median": 6.0, "q1": 5.0, "q3": 7.0, "iqr": 2.0}
    assert wall["change"] == {"median": 4.0, "q1": 3.0, "q3": 6.0, "iqr": 3.0}
    # pair 1 is a tie: neither side wins it
    assert (wall["pairs"], wall["change_won"], wall["parent_won"]) == (5, 3, 1)
    assert wall["change_vs_parent"] == pytest.approx(-1 / 3)

    rate = summary["rate"]  # higher is better: the wins swap, the medians do not
    assert (rate["change_won"], rate["parent_won"]) == (1, 3)
    assert rate["parent"]["median"] == 6.0


def test_summary_of_one_pair_has_zero_iqr(bench_pair):
    summary = bench_pair.summarize([{"parent": {"m": 2.0}, "change": {"m": 1.0}}], {"m": "lower"})
    assert summary["m"]["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0, "iqr": 0.0}
    assert summary["m"]["change_won"] == 1


def verdicts(bench_pair, parent, change, better="lower", bound=0.25):
    pairs = [{"parent": {"m": p}, "change": {"m": c}} for p, c in zip(parent, change)]
    s = bench_pair.summarize(pairs, {"m": better}, {"m": bound})["m"]
    return s["change_won"], s["gain"], s["past_bound"]


PARENT = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]  # median 14.5, IQR 4.5


def test_gain_needs_nine_of_ten_pairs_and_the_parents_iqr(bench_pair):
    # 9 of 10 won, median 14.5 -> 9.5: 5 better, past the IQR of 4.5
    assert verdicts(bench_pair, PARENT, [p - 5 for p in PARENT[:9]] + [20.0]) == (9, True, False)
    # 8 of 10 won: no gain, however far the median moves
    assert verdicts(bench_pair, PARENT, [p - 9 for p in PARENT[:8]] + [20.0, 20.0]) == (8, False, False)
    # 10 of 10 won, but by 4 each, inside the IQR
    assert verdicts(bench_pair, PARENT, [p - 4 for p in PARENT]) == (10, False, False)
    # higher is better: the same rule, mirrored
    assert verdicts(bench_pair, PARENT, [p + 5 for p in PARENT], better="higher") == (10, True, False)


def test_past_bound_against_the_parents_median(bench_pair):
    # 30% worse against a 0.25 bound; 20% worse is inside it
    assert verdicts(bench_pair, PARENT, [p * 1.3 for p in PARENT]) == (0, False, True)
    assert verdicts(bench_pair, PARENT, [p * 1.2 for p in PARENT]) == (0, False, False)
    assert verdicts(bench_pair, PARENT, [p * 0.7 for p in PARENT], better="higher") == (0, False, True)
    pairs = [{"parent": {"m": 1.0}, "change": {"m": 2.0}}]
    assert bench_pair.summarize(pairs, {"m": "lower"})["m"]["past_bound"] is None  # no bound given


def test_pairs_argument(bench_pair):
    assert bench_pair._pairs_arg("ctc_pipeline=10") == ("ctc_pipeline", 10)
    with pytest.raises(Exception):
        bench_pair._pairs_arg("ctc_pipeline=0")


def test_unknown_workload_refused_before_any_run(bench_pair, monkeypatch, capsys):
    def no_subprocess(*args, **kwargs):
        raise AssertionError("nothing may run for an unknown workload")

    monkeypatch.setattr(bench_pair.subprocess, "run", no_subprocess)
    monkeypatch.setattr(bench_pair.subprocess, "Popen", no_subprocess)
    assert bench_pair.main(["--parent", "HEAD", "--pairs", "ctc_pipeline=1", "ctc_pipelin=10"]) == 1
    err = capsys.readouterr().err
    assert "ctc_pipelin" in err and all(name in err for name in ("ctc_pipeline", "crf_bigram", "long_eval"))


def test_workload_without_a_complete_pair_keeps_the_others(bench_pair, monkeypatch, tmp_path):
    spec = json.loads((bench_pair.ROOT / "BENCHMARK.json").read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    monkeypatch.setattr(bench_pair, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pair, "_git", lambda *args: "abc1234" if args[0] == "rev-parse" else "")
    monkeypatch.setattr(bench_pair, "extract", lambda rev, into: None)
    metrics = {m["name"]: 1.0 for m in spec["end_to_end"]}

    def run_side(root, workload, seed, seconds, trace):
        if workload == "long_eval" and root != tmp_path:  # every parent run of long_eval fails
            return None, {"returncode": 2, "stderr": "boom"}
        return {"cpu": "x"}, {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(bench_pair, "run_side", run_side)
    assert bench_pair.main(["--parent", "HEAD", "--pairs", "ctc_pipeline=2", "long_eval=2"]) == 0
    doc = json.loads((tmp_path / "BENCH_abc1234.json").read_text())
    wall = doc["workloads"]["ctc_pipeline"]["summary"]["wall_s"]
    assert wall["pairs"] == 2 and (wall["gain"], wall["past_bound"]) == (False, False)
    long_eval = doc["workloads"]["long_eval"]
    assert long_eval["summary"] is None
    assert len(long_eval["runs"]) == 4 and long_eval["failed"] == {"parent": 2, "change": 0}


def test_median_units_attempted_recorded_and_printed(bench_pair, monkeypatch, tmp_path, capsys):
    spec = json.loads((bench_pair.ROOT / "BENCHMARK.json").read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    monkeypatch.setattr(bench_pair, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pair, "_git", lambda *args: "abc1234" if args[0] == "rev-parse" else "")
    monkeypatch.setattr(bench_pair, "extract", lambda rev, into: None)
    metrics = {m["name"]: 1.0 for m in spec["end_to_end"]}

    def run_side(root, workload, seed, seconds, trace):
        if root != tmp_path and seed == 2:  # a parent run that printed no result
            return None, {"returncode": 1, "stderr": "boom"}
        attempted = (10 if root == tmp_path else 4) + seed
        return {"cpu": "x"}, {"correct": True, "attempted": attempted, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(bench_pair, "run_side", run_side)
    assert bench_pair.main(["--parent", "HEAD", "--pairs", "long_eval=3"]) == 0
    doc = json.loads((tmp_path / "BENCH_abc1234.json").read_text())
    # seeds 0..2: the change's runs attempt 10, 11 and 12; the parent's 4 and 5, its third run failed
    assert doc["workloads"]["long_eval"]["attempted"] == {"parent": 4.5, "change": 11}
    assert "long_eval     attempted    parent 4.5  change 11  (median per run, in proportion to the units run)" \
        in capsys.readouterr().out
    assert bench_pair.median_attempted([{"side": "parent", "returncode": 1}], "parent") is None
