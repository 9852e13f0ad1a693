"""CLI coverage for ``--corners``: parsing, exit codes, and propagation
of the corner flag into batch/sweep worker jobs.

The propagation tests monkeypatch the batch engine's ``run_jobs`` so no
compilation happens — they assert on the *jobs* the CLI constructs,
which is exactly the boundary a worker process sees.
"""

from __future__ import annotations

import json

import pytest

from repro.batch.engine import BatchCompiler, BatchResult, BatchStats
from repro.cli import build_parser, main


def _capture_jobs(monkeypatch):
    """Stub BatchCompiler.run_jobs: record (engine, jobs), return an
    empty successful result."""
    captured = {}

    def fake_run_jobs(self, jobs):
        captured["engine"] = self
        captured["jobs"] = list(jobs)
        return BatchResult(records=[], stats=BatchStats(total=len(jobs)))

    monkeypatch.setattr(BatchCompiler, "run_jobs", fake_run_jobs)
    return captured


class TestParsing:
    def test_compile_accepts_corners(self):
        args = build_parser().parse_args(
            ["compile", "--corners", "SS,TT,FF"]
        )
        assert args.corners == "SS,TT,FF"

    def test_sweep_and_batch_accept_corners(self):
        args = build_parser().parse_args(["sweep", "--corners", "signoff3"])
        assert args.corners == "signoff3"
        args = build_parser().parse_args(
            ["batch", "--specs", "x.json", "--corners", "SS"]
        )
        assert args.corners == "SS"

    def test_search_has_no_corners_flag(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["search", "--corners", "SS"])


class TestExitCodes:
    def test_unknown_corner_name_exits_1(self, capsys):
        assert main(["compile", "--corners", "SS,BOGUS"]) == 1
        err = capsys.readouterr().err
        assert "unknown signoff corner" in err
        assert "BOGUS" in err

    def test_empty_corner_set_exits_1(self, capsys):
        assert main(["compile", "--corners", ""]) == 1
        assert "at least one corner" in capsys.readouterr().err

    def test_whitespace_only_corner_list_exits_1(self, capsys):
        assert main(["sweep", "--corners", " , ,"]) == 1
        assert "at least one corner" in capsys.readouterr().err

    def test_bad_corners_fail_before_any_compilation(
        self, monkeypatch, capsys
    ):
        """Corner validation happens before the grid compiles (a typo
        must not cost an hours-long sweep)."""
        captured = _capture_jobs(monkeypatch)
        assert main(["sweep", "--corners", "XX"]) == 1
        assert "jobs" not in captured


class TestPropagation:
    def test_sweep_forwards_corners_into_jobs(self, monkeypatch, tmp_path):
        captured = _capture_jobs(monkeypatch)
        out = tmp_path / "results.jsonl"
        rc = main(
            [
                "sweep",
                "--height",
                "8",
                "--width",
                "8",
                "--formats",
                "INT4",
                "--corners",
                "SS,TT,FF",
                "--output",
                str(out),
            ]
        )
        assert rc == 0
        assert captured["engine"].options.corners == ("SS", "TT", "FF")
        jobs = captured["jobs"]
        assert jobs
        for job in jobs:
            assert job.options.corners == ("SS", "TT", "FF")
            assert job.payload()["options"]["corners"] == ["SS", "TT", "FF"]

    def test_sweep_preset_resolves_to_names(self, monkeypatch, tmp_path):
        captured = _capture_jobs(monkeypatch)
        main(
            [
                "sweep",
                "--height",
                "8",
                "--corners",
                "signoff3",
                "--output",
                str(tmp_path / "r.jsonl"),
            ]
        )
        assert captured["engine"].options.corners == ("SS", "TT", "FF")

    def test_batch_forwards_corners_into_jobs(self, monkeypatch, tmp_path):
        captured = _capture_jobs(monkeypatch)
        specs = tmp_path / "specs.json"
        specs.write_text(
            json.dumps(
                [
                    {
                        "height": 8,
                        "width": 8,
                        "mcr": 2,
                        "input_formats": [
                            {"name": "INT4", "kind": "int", "bits": 4}
                        ],
                        "weight_formats": [
                            {"name": "INT4", "kind": "int", "bits": 4}
                        ],
                        "mac_frequency_mhz": 400.0,
                    }
                ]
            )
        )
        rc = main(
            [
                "batch",
                "--specs",
                str(specs),
                "--corners",
                "SS,TT",
                "--output",
                str(tmp_path / "r.jsonl"),
            ]
        )
        assert rc == 0
        assert [job.options.corners for job in captured["jobs"]] == [
            ("SS", "TT")
        ]

    def test_no_corners_means_none(self, monkeypatch, tmp_path):
        captured = _capture_jobs(monkeypatch)
        main(
            [
                "sweep",
                "--height",
                "8",
                "--output",
                str(tmp_path / "r.jsonl"),
            ]
        )
        assert captured["engine"].options.corners is None
        assert all(job.options.corners is None for job in captured["jobs"])
