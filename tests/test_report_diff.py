import csv
import importlib.util
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from reccost import LOG_LINE, certify, make_family, parse_family_spec
from reccost.cli import run
from reccost.dalembert import defect_grid

_SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, _SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


report_diff = load_script("report_diff")
readme_reports = load_script("readme_reports")
defect_landscape = load_script("defect_landscape")
stability_sweep = load_script("stability_sweep")
soundness_census = load_script("soundness_census")


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


class TestUlpDistance:
    def test_neighbours(self):
        x = 0.1
        assert report_diff.ulp_distance(x, x) == 0
        assert report_diff.ulp_distance(x, float(np.nextafter(x, 1.0))) == 1
        assert report_diff.ulp_distance(-x, float(np.nextafter(-x, -1.0))) == 1

    def test_across_zero(self):
        tiny = 5e-324
        assert report_diff.ulp_distance(0.0, -0.0) == 0
        assert report_diff.ulp_distance(-tiny, tiny) == 2


class TestReportDiff:
    def test_identical_cli_reports(self, tmp_path, capsys):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        run(["sup-defect", "--family", "quadlog", "--T", "1", "--step", "0.1", "--json", a])
        run(["sup-defect", "--family", "quadlog", "--T", "1", "--step", "0.1", "--json", b])
        capsys.readouterr()
        assert report_diff.main([a, b]) == 0
        assert capsys.readouterr().out.strip() == "identical"

    def test_float_leaf_reports_path_and_ulps(self, tmp_path, capsys):
        y = float(np.nextafter(np.nextafter(0.25, 1.0), 1.0))
        a = write(tmp_path, "a.json", {"results": {"J": 0.25, "rows": [[1.0, 0.25]]}})
        b = write(tmp_path, "b.json", {"results": {"J": y, "rows": [[1.0, y]]}})
        assert report_diff.main([a, b]) == 1
        out = capsys.readouterr().out
        assert f"results.J: 0.25 -> {y!r} (2 ulps)" in out
        assert f"results.rows[0][1]: 0.25 -> {y!r} (2 ulps)" in out

    def test_structural_differences(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", {"k": 1, "only_a": 0, "seq": [1, 2], "x": 1.0, "y": 2.0})
        b = write(tmp_path, "b.json", {"k": 1.0, "seq": [1], "y": 2.0, "x": 1.0, "only_b": None})
        assert report_diff.main([a, b]) == 1
        out = capsys.readouterr().out
        for line in ("k: 1 -> 1.0", "only_a: only in A", "only_b: only in B",
                     "seq: length 2 -> 1", "<root>: keys in a different order"):
            assert line in out


class TestReadmeReports:
    def test_writes_every_example_report(self, tmp_path, capsys):
        out = tmp_path / "reports"
        assert readme_reports.main([str(out)]) == 0
        assert (out / "samples.csv").read_text(encoding="utf-8").startswith("t,H\n")
        for name, example in readme_reports.EXAMPLES.items():
            payload = json.loads((out / f"{name}.json").read_text(encoding="utf-8"))
            assert payload["command"] == example[0] and payload["status"] == "ok"
        # the relative input name keeps reports from two directories comparable
        again = tmp_path / "again"
        readme_reports.main([str(again)])
        capsys.readouterr()
        assert report_diff.main([str(out / "classify.json"), str(again / "classify.json")]) == 0
        capsys.readouterr()
        assert report_diff.main([str(out), str(again)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"{name}: identical" for name in sorted(f"{n}.json" for n in readme_reports.EXAMPLES)]
        # one edited leaf, then one missing report, makes the directories differ
        payload = json.loads((again / "eval.json").read_text(encoding="utf-8"))
        payload["results"]["J"] = 0.5
        (again / "eval.json").write_text(json.dumps(payload), encoding="utf-8")
        assert report_diff.main([str(out), str(again)]) == 1
        out_lines = capsys.readouterr().out.splitlines()
        assert "eval.json: results.J: 0.25 -> 0.5 (4503599627370496 ulps)" in out_lines
        assert "eval.json: 1 difference(s)" in out_lines
        assert "golden.json: identical" in out_lines
        (again / "eval.json").unlink()
        assert report_diff.main([str(out), str(again)]) == 1
        assert "eval.json: only in A" in capsys.readouterr().out.splitlines()


class TestDefectLandscape:
    def test_streamed_csv_is_the_defect_grid(self, tmp_path, monkeypatch, capsys):
        # n = 301 takes two row blocks, the second one partial
        family, out = "noisy-cosh,amplitude=1e-3,mode=sine,freq=5", tmp_path / "defect.csv"
        argv = ["defect_landscape.py", "--family", family, "--T", "1.5", "--step", "0.01",
                "--out", str(out)]
        monkeypatch.setattr(sys, "argv", argv)
        defect_landscape.main()
        assert f"wrote   : {out}" in capsys.readouterr().out
        handle = make_family(parse_family_spec(family), domain=LOG_LINE)
        _, axis, delta = defect_grid(handle, 1.5, 0.01)
        rows = out.read_text(encoding="utf-8").splitlines()
        assert rows[0] == "t,u,delta" and len(rows) == 1 + axis.size**2
        want = (f"{t:.17g},{u:.17g},{delta[i, j]:.17g}" for i, t in enumerate(axis)
                for j, u in enumerate(axis))
        assert all(got == w for got, w in zip(rows[1:], want))


class TestStabilitySweep:
    def test_poly4_defect_scales_linearly_in_eta(self, tmp_path, monkeypatch, capsys):
        # the defect of cosh + eta t^4 on [-1, 1] is about 9.8 eta for every default eta
        out = tmp_path / "sweep.csv"
        monkeypatch.setattr(sys, "argv", ["stability_sweep.py", "--csv", str(out)])
        stability_sweep.main()
        assert f"wrote {out}" in capsys.readouterr().out
        with out.open(encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["eta"]) for r in rows] == [1e-6, 1e-5, 1e-4, 1e-3, 1e-2]
        assert all(9.0 <= float(r["epsilon"]) / float(r["eta"]) <= 11.0 for r in rows)


class TestSoundnessCensus:
    def test_a_few_draws_give_a_count_per_set_and_step(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["soundness_census.py", "--draws", "3"])
        soundness_census.main()
        counts = json.loads(capsys.readouterr().out)
        assert list(counts) == [f"{kind} step={step}" for kind in ("noisy-cosh", "aliasing",
                                                                  "cosh-lambda")
                                for step in ("0.05", "0.01")]
        for c in counts.values():
            assert c["draws"] == 3 and c["verified"] <= 3
            assert max(c["vacuous"], c["unsound"]) <= c["verified"]

    def test_the_fine_grid_sees_an_envelope_the_certificate_does_not_hold(self):
        # the certificate's own envelope (delta/a = 1.8) holds on the fine grid; a thousandth of
        # its delta does not
        h = make_family(parse_family_spec("noisy-cosh,amplitude=1e-3,mode=sine,freq=5"), LOG_LINE)
        cert = certify(h, 2.0, 0.05)
        assert cert.verified and not soundness_census.breaks_on_fine_grid(h, cert, 0.05)
        assert soundness_census.breaks_on_fine_grid(h, replace(cert, delta=cert.delta / 1000), 0.05)
