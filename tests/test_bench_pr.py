"""Every committed ``BENCH_*.json`` parses against the paired runner's schema.

``tools/bench_pr.py`` writes the files; :func:`check` is their schema and
recomputes each summary from its runs.  Nothing here runs the benchmark.
"""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def load_runner():
    spec = importlib.util.spec_from_file_location("bench_pr", ROOT / "tools" / "bench_pr.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pr = load_runner()


def test_a_bench_file_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_matches_the_runner_schema(path):
    document = json.loads(path.read_text())
    bench_pr.check(document)
    assert path.name == f"BENCH_{document['pr']}.json"


def test_check_refuses_a_document_its_runs_do_not_give():
    document = json.loads(BENCH_FILES[-1].read_text())
    workload = next(iter(document["workloads"]))
    for mutate in (
        # every change run, so the median moves whichever run was largest or a loss already
        lambda d, r: [run["metrics"].update(setup_s=1e9) for run in r["runs"]["change"]],
        lambda d, r: r["runs"]["parent"].pop(),
        lambda d, r: r["runs"]["parent"][0].update(first=not r["runs"]["parent"][0]["first"]),
        lambda d, r: d["machine"].pop("blas_threads"),
        lambda d, r: d.update(parent="HEAD"),
    ):
        doctored = copy.deepcopy(document)
        mutate(doctored, doctored["workloads"][workload])
        with pytest.raises(ValueError, match="BENCH document"):
            bench_pr.check(doctored)


def test_wins_follow_each_metric_direction():
    def run(setup_s, rate, rss):
        return {"first": False, "correct": True, "failed": 0, "attempted": 3,
                "metrics": {"setup_s": setup_s, "site_steps_per_s": rate, "peak_rss_mb": rss}}

    runs = {"parent": [run(0.10, 100.0, 40.0), run(0.10, 100.0, 40.0), run(0.10, 100.0, 40.0)],
            "change": [run(0.09, 110.0, 40.0), run(0.11, 90.0, 40.0), run(0.09, 120.0, 41.0)]}
    summary = bench_pr.summarize(runs)
    assert [summary["setup_s"][k] for k in ("wins", "losses", "ties")] == [2, 1, 0]
    assert [summary["site_steps_per_s"][k] for k in ("wins", "losses", "ties")] == [2, 1, 0]
    assert [summary["peak_rss_mb"][k] for k in ("wins", "losses", "ties")] == [0, 1, 2]
    assert summary["site_steps_per_s"]["change"] == {"q1": 100.0, "median": 110.0, "q3": 115.0}
    assert summary["site_steps_per_s"]["median_ratio"] == 1.1
