"""The pair runner's summary and exit status, on synthetic rows."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def _row(seed, side, unit_s, correct=True, failed=0, attempted=10):
    return {"workload": "w", "seed": seed, "side": side, "unit_s": unit_s,
            "setup_s": 0.1, "peak_rss_mb": 20.0, "correct": correct,
            "failed": failed, "attempted": attempted}


ROWS = [
    _row(1, "parent", 0.50), _row(1, "change", 0.30),
    _row(2, "change", 0.31, correct=False, failed=2, attempted=12),
    _row(2, "parent", 0.52),
    _row(3, "parent", 0.51, attempted=9), _row(3, "change", 0.60),
]


class TestSummarize:
    def test_outcomes_per_side(self):
        entry = bench_pairs.summarize(ROWS, ["w"])["w"]
        assert entry["pairs"] == 3
        assert entry["outcomes"] == {
            "parent": {"incorrect": 0, "failed": 0, "attempted": 29},
            "change": {"incorrect": 1, "failed": 2, "attempted": 32},
        }

    def test_medians_and_wins(self):
        unit = bench_pairs.summarize(ROWS, ["w"])["w"]["unit_s"]
        assert unit["parent"]["median"] == 0.51
        assert unit["change"]["median"] == 0.31
        assert unit["change_wins"] == 2

    def test_workload_without_runs(self):
        entry = bench_pairs.summarize(ROWS, ["other"])["other"]
        assert entry["pairs"] == 0
        assert entry["outcomes"]["change"] == {"incorrect": 0, "failed": 0,
                                               "attempted": 0}


class TestMain:
    def _main(self, monkeypatch, tmp_path, rows):
        runs = iter(rows)
        monkeypatch.setattr(bench_pairs, "run_once",
                            lambda root, w, seed, seconds: next(runs))
        for side in ("parent", "change"):
            (tmp_path / side).mkdir()
        (tmp_path / "change" / "BENCHMARK.json").write_text('{"run_seconds": 1}')
        out = tmp_path / "bench.json"
        code = bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                                 "--workloads", "w", "--pairs", "2", "--out", str(out)])
        return code, json.loads(out.read_text())

    def test_exit_one_when_a_run_is_incorrect(self, monkeypatch, tmp_path, capsys):
        metrics = [{k: r[k] for k in ("unit_s", "correct", "failed", "attempted")}
                   for r in ROWS[:4]]
        code, report = self._main(monkeypatch, tmp_path, metrics)
        assert code == 1
        assert report["summary"]["w"]["outcomes"]["change"]["incorrect"] == 1
        assert "was incorrect" in capsys.readouterr().err

    def test_exit_zero_when_every_run_is_correct(self, monkeypatch, tmp_path):
        metrics = [{"unit_s": 0.5, "correct": True, "failed": 0, "attempted": 5}] * 4
        code, report = self._main(monkeypatch, tmp_path, metrics)
        assert code == 0
        assert report["summary"]["w"]["outcomes"]["parent"]["attempted"] == 10
