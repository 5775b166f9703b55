import importlib.util
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


def test_pairs_argument(bench_pair):
    assert bench_pair._pairs_arg("ctc_pipeline=10") == ("ctc_pipeline", 10)
    with pytest.raises(Exception):
        bench_pair._pairs_arg("ctc_pipeline=0")
