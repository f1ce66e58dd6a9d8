import csv
import json
import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from helpers import SCRIPTS, load_script
from reccost import LOG_LINE, certify, make_family, parse_family_spec
from reccost.cli import run
from reccost.dalembert import defect_grid

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

    def test_every_certificate_carries_the_papers_envelope(self, tmp_path, monkeypatch):
        # (delta/a)(cosh(sqrt(a) t) - 1), read from the record of each README certify example
        readme_reports.write_samples(tmp_path / "samples.csv")
        monkeypatch.chdir(tmp_path)
        certifies = {name: argv for name, argv in readme_reports.EXAMPLES.items()
                     if argv[0] in ("certify", "certify-ratio")}
        assert len(certifies) == 4
        for name, argv in certifies.items():
            run([*argv, "--json", f"{name}.json"])
            results = json.loads((tmp_path / f"{name}.json").read_text(encoding="utf-8"))["results"]
            a = results["inputs"]["a"]
            assert results["envelope"]["scale"] == results["delta"] / a, name
            assert results["envelope"]["rate"] == math.sqrt(a), name


class TestDefectLandscape:
    def test_streamed_csv_is_the_defect_grid(self, tmp_path, monkeypatch, capsys):
        # every pair of the n = 301 table, in row-major order, with defect_grid's bits
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
        assert list(counts) == [f"{kind} step={step}" for kind in (
            "noisy-cosh", "aliasing", "cosh-lambda", "noisy-table rows=811",
            "noisy-table rows=8001") for step in ("0.05", "0.01")]
        for key, c in counts.items():
            assert list(c) == ["draws", "verified", "refused", "vacuous", "unsound",
                               "exact_not_verified", "envelope_gap_p50"]
            assert c["draws"] == 3 and c["verified"] + c["refused"] <= 3
            assert max(c["vacuous"], c["unsound"]) <= c["verified"]
            # only the exact set is counted for exact_not_verified
            exact = c["draws"] - c["verified"] if key.startswith("cosh-lambda") else None
            assert c["exact_not_verified"] == exact
            gap = c["envelope_gap_p50"]
            assert gap is None or (c["verified"] and gap > 0.0)

    @pytest.mark.parametrize("rows", soundness_census.TABLE_ROWS)
    def test_a_noisy_table_is_cosh_on_bitwise_symmetric_nodes(self, rows):
        nodes = soundness_census.symmetric_nodes(rows)
        assert nodes.size == rows and np.array_equal(nodes, -nodes[::-1]) and nodes[-1] == 4.05
        h = next(soundness_census.noisy_tables(np.random.default_rng(0), rows, 1))
        noise = h(nodes) / np.cosh(nodes) - 1.0  # sigma N(0, 1), with sigma <= 1e-6
        assert 0.0 < np.max(np.abs(noise)) <= 6e-6 and np.any(noise != noise[::-1])

    def test_the_fine_grid_sees_an_envelope_the_certificate_does_not_hold(self):
        # the certificate's own envelope (delta/a = 1.8) holds on the fine grid; a thousandth of
        # its delta does not
        h = make_family(parse_family_spec("noisy-cosh,amplitude=1e-3,mode=sine,freq=5"), LOG_LINE)
        cert = certify(h, 2.0, 0.05)
        err, env = soundness_census.fine_sweep(h, cert, 0.05)
        assert cert.verified and not np.any(err > env)
        err, env = soundness_census.fine_sweep(h, replace(cert, delta=cert.delta / 1000), 0.05)
        assert np.any(err > env)


class TestHelperSplit:
    def test_a_tiny_round_times_both_modes(self):
        proc = subprocess.run([sys.executable, str(SCRIPTS / "helper_split.py"), "--tiny",
                               "--rounds", "1"], capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        out = json.loads(proc.stdout)
        assert out["tasks"] == 15 and (out["refork_s"] is None) == (out["cpus"] < 2)
        for mode in ("on", "off"):
            assert len(out[mode]["wall_s"]) == len(out[mode]["cpu_s"]) == 1
            assert out[mode]["wall_s_p50"] > 0.0 and out[mode]["cpu_s_p50"] >= 0.0


class TestColdSplit:
    def test_one_round_splits_both_sides_and_writes_nothing_under_src(self):
        src = SCRIPTS.parent / "src"
        before = sorted(src.rglob("*"))
        proc = subprocess.run([sys.executable, str(SCRIPTS / "cold_split.py"), "--rounds", "1"],
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert sorted(src.rglob("*")) == before
        out = json.loads(proc.stdout)  # one JSON line
        assert (out["argv"][0], out["exit_code"], out["rounds"]) == ("certify", 0, 1)
        for side in ("uncached", "cached"):
            parts = [out[side][part][0] for part in ("numpy_s", "reccost_s", "rest_s")]
            assert min(parts) > 0.0 and len(out[side]["wall_s"]) == 1
            assert sum(parts) == pytest.approx(out[side]["wall_s_p50"], rel=1e-9)
