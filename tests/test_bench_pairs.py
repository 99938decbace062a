"""The pair summary and the artifact comparison of ``tools/bench_pairs.py``
on synthetic runs and trees; no benchmark is launched."""

import importlib.util
import os

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools", "bench_pairs.py")
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

BETTER = {"peak_rss_mb": "lower", "accept_ratio": "higher"}


def _runs(workload, parent, change, batch=1):
    """Runs of alternating pairs with these values of both metrics."""
    runs = []
    for pair, values in enumerate(zip(parent, change), start=1):
        for side, value in zip(("parent", "change"), values):
            runs.append({"pair": pair, "seed": pair, "workload": workload, "side": side,
                         "first": "parent", "batch": batch, "correct": True,
                         "metrics": {"peak_rss_mb": value, "accept_ratio": value}})
    return runs


def test_summary_counts_wins_by_direction_and_takes_inclusive_quartiles():
    parent = [53.0, 53.2, 53.1, 53.3, 53.05, 53.15, 53.25, 53.1, 53.2, 53.0]
    change = [50.8, 50.7, 53.2, 50.9, 50.6, 50.8, 50.7, 50.9, 50.8, 50.7]
    entry = bench_pairs.summarize(_runs("ref", parent, change), BETTER)["ref"]
    rss, ratio = entry["peak_rss_mb"], entry["accept_ratio"]
    assert rss["parent"] == parent and rss["change"] == change
    assert rss["parent_median"] == 53.125 and rss["change_median"] == 50.8
    assert (rss["parent_q1"], rss["parent_q3"]) == pytest.approx((53.0625, 53.2), abs=1e-12)
    assert rss["change_better_pairs"] == 9
    assert rss["median_change"] == 50.8 / 53.125 - 1.0
    # a higher-is-better metric counts the pairs the other way round
    assert ratio["change_better_pairs"] == 1
    assert bench_pairs.claimable(rss, "lower")
    assert not bench_pairs.claimable(ratio, "higher")


def test_claim_needs_nine_tenths_of_the_pairs_and_more_than_the_quartile_spread():
    parent = [10.0] * 10
    # eight wins of ten
    entry = bench_pairs.summarize(_runs("w", parent, [9.0] * 8 + [10.0] * 2), BETTER)["w"]
    assert entry["peak_rss_mb"]["change_better_pairs"] == 8
    assert not bench_pairs.claimable(entry["peak_rss_mb"], "lower")
    # every pair won, by less than the parent's spread
    parent = [10.0, 12.0, 10.0, 12.0, 10.0, 12.0, 10.0, 12.0, 10.0, 12.0]
    entry = bench_pairs.summarize(_runs("w", parent, [p - 0.5 for p in parent]), BETTER)["w"]
    assert entry["peak_rss_mb"]["change_better_pairs"] == 10
    assert not bench_pairs.claimable(entry["peak_rss_mb"], "lower")


def test_summary_pairs_runs_by_batch_and_drops_a_pair_missing_a_side():
    runs = _runs("w", [3.0, 4.0], [1.0, 2.0]) + _runs("w", [5.0], [6.0], batch=2)
    runs += _runs("v", [7.0], [8.0])
    runs.append({**runs[0], "batch": 3})  # a parent run whose change never ran
    summary = bench_pairs.summarize(runs, BETTER)
    assert list(summary) == ["w", "v"]
    assert summary["w"]["peak_rss_mb"]["parent"] == [3.0, 4.0, 5.0]
    assert summary["w"]["peak_rss_mb"]["change"] == [1.0, 2.0, 6.0]
    assert summary["w"]["peak_rss_mb"]["change_better_pairs"] == 2


def _work_tree(checkout, workload, files):
    """Files under ``checkout``/perfbench/_work/``workload``, by relative path."""
    for rel, text in files.items():
        path = checkout / "perfbench" / "_work" / workload / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def test_pair_artifacts_are_compared_between_the_two_checkouts(tmp_path):
    checkouts = {side: tmp_path / side for side in bench_pairs.SIDES}
    files = {"a/embedding.json": "{}\n", "a/series.csv": "1,2\n", "b/model.json": "[]\n",
             "result-seed0-trace0.json": "{}\n"}
    for checkout in checkouts.values():
        _work_tree(checkout, "w", files)
    assert bench_pairs.compare_pair(checkouts, "w") == {"compared": 3, "differing": []}
    # a changed artifact, one found only in the change, and a run record
    # that is no artifact
    _work_tree(checkouts["change"], "w", {"b/model.json": "[1]\n", "c/fit.json": "{}\n",
                                          "result-seed0-trace0.json": "[]\n"})
    assert bench_pairs.compare_pair(checkouts, "w") == {
        "compared": 3, "differing": ["b/model.json", "c/fit.json"]}
