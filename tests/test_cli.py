"""Command-line interface: flags, exit codes, file outputs, determinism."""

import hashlib
import json
import re
import shlex
import warnings
from dataclasses import asdict
from pathlib import Path

import pytest

from noma_fbl import (
    ChannelPair,
    ExperimentConfig,
    PowerBudget,
    UserSpec,
    solve_noma,
    solve_tdma,
)
from noma_fbl.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


BASE = [
    "solve", "--g1", "1", "--g2", "4", "--d1", "200", "--d2", "300",
    "--pmax-dbm", "34", "--scheme", "all",
]


class TestSolve:
    def test_json_output_matches_library(self, capsys):
        code, out, _ = run_cli(capsys, *BASE)
        assert code == 0
        doc = json.loads(out)
        ch = ChannelPair(1.0, 4.0)
        s1, s2 = UserSpec(160, 1e-7, 200), UserSpec(160, 1e-7, 300)
        budget = PowerBudget(10 ** 0.4)
        noma = solve_noma(ch, s1, s2, budget)
        tdma = solve_tdma(ch, s1, s2, budget)
        assert doc["results"]["noma"]["feasible"] is True
        assert doc["results"]["noma"]["allocation"]["energy"] == noma.energy
        assert doc["results"]["tdma"]["allocation"]["energy"] == tdma.energy
        assert doc["relabeled"] is False

    def test_exit_two_when_infeasible(self, capsys):
        argv = [a if a != "34" else "30" for a in BASE]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 2
        doc = json.loads(out)
        assert doc["results"]["noma"]["feasible"] is False
        assert "verdict" in doc["results"]["noma"]

    def test_missing_d2_exits_one_and_names_flag(self, capsys):
        code, _, err = run_cli(
            capsys, "solve", "--g1", "1", "--g2", "4", "--d1", "200"
        )
        assert code == 1
        assert "--d2" in err

    def test_missing_channel_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--d1", "200", "--d2", "300")
        assert code == 1
        assert "--g1" in err

    def test_conflicting_channel_flags_exit_one(self, capsys):
        code, _, err = run_cli(
            capsys, "solve", "--g1", "1", "--g2", "4", "--h1", "1", "--h2", "2",
            "--d1", "200", "--d2", "300",
        )
        assert code == 1

    def test_magnitude_flags_square_to_gains(self, capsys):
        argv = ["solve", "--h1", "1", "--h2", "2", "--d1", "200", "--d2", "300",
                "--pmax-dbm", "34", "--scheme", "noma"]
        code, out, _ = run_cli(capsys, *argv)
        doc = json.loads(out)
        code2, out2, _ = run_cli(
            capsys, "solve", "--g1", "1", "--g2", "4", "--d1", "200", "--d2", "300",
            "--pmax-dbm", "34", "--scheme", "noma",
        )
        assert doc == json.loads(out2)

    def test_deadline_tie_reports_relabel(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--g1", "4", "--g2", "1", "--d1", "300", "--d2", "300",
            "--pmax-dbm", "34", "--scheme", "noma",
        )
        doc = json.loads(out)
        assert doc["relabeled"] is True
        assert doc["results"]["noma"]["allocation"]["scheme"] == "sic-rx2"

    def test_huge_gain_ends_in_exit_code_not_traceback(self, capsys):
        code, _, err = run_cli(
            capsys, "solve", "--g1", "1e12", "--g2", "1e12", "--d1", "100",
            "--d2", "300", "--n1-bits", "3000",
        )
        assert code in (0, 2)
        assert "Traceback" not in err

    def test_tiny_gains_end_in_exit_code_not_traceback(self, capsys):
        # g1*g2 underflows to 0 in the denominator of tin's power inversion
        code, out, _ = run_cli(
            capsys, "solve", "--g1", "3e-307", "--g2", "2e-307", "--pmax-dbm", "3100",
            "--d1", "200", "--d2", "500",
        )
        assert code == 2
        noma = json.loads(out)["results"]["noma"]
        assert noma["sub_verdicts"]["tin"] == "power-budget-exceeded"

    @pytest.mark.parametrize("g1,g2", [("1e-306", "2e-306"), ("3e-307", "2e-307")])
    def test_overflowing_energy_is_over_budget(self, capsys, g1, g2):
        # Every allocation within the budget has an energy past the float
        # range, so neither scheme is feasible.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(
                capsys, "solve", "--g1", g1, "--g2", g2, "--pmax-dbm", "3100",
                "--d1", "200", "--d2", "500",
            )
        assert (code, err, caught) == (2, "", [])
        results = json.loads(out)["results"]
        assert {name: r["verdict"] for name, r in results.items()} == {
            "noma": "power-budget-exceeded",
            "tdma": "power-budget-exceeded",
        }

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, *BASE, "--format", "text")
        assert code == 0
        assert "noma:" in out and "tdma:" in out


class TestSweep:
    def test_row_count_and_determinism(self, tmp_path, capsys):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        argv = [
            "sweep", "--g1", "1", "--g2", "4", "--d2", "300", "--pmax-dbm", "34",
            "--d1-grid", "100:290:10", "--scheme", "all",
        ]
        assert run_cli(capsys, *argv, "--out", str(out_a))[0] == 0
        assert run_cli(capsys, *argv, "--out", str(out_b))[0] == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        lines = out_a.read_text().splitlines()
        assert lines[0].startswith("# schema=")
        assert lines[1].split(",")[:3] == ["d1", "scheme", "feasible"]
        rows = lines[2:]
        assert len(rows) == 2 * 20  # two schemes x twenty deadlines

    def test_noma_energy_decreases_down_the_file(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        # 38 dBm keeps even the tightest deadline (d1=100, 5.14 W) feasible
        argv = [
            "sweep", "--g1", "1", "--g2", "4", "--d2", "300", "--pmax-dbm", "38",
            "--d1-grid", "100:290:10", "--scheme", "noma", "--out", str(out),
        ]
        assert run_cli(capsys, *argv)[0] == 0
        lines = out.read_text().splitlines()[2:]
        header = out.read_text().splitlines()[1].split(",")
        energy_col = header.index("energy")
        feasible_col = header.index("feasible")
        energies = []
        for line in lines:
            parts = line.split(",")
            assert parts[feasible_col] == "1"
            energies.append(float(parts[energy_col]))
        assert all(a > b for a, b in zip(energies, energies[1:]))

    def test_unwritable_path_exits_one(self, capsys):
        argv = [
            "sweep", "--g1", "1", "--g2", "4", "--d2", "300",
            "--d1-grid", "100:120:10", "--out", "/nonexistent-dir/x.csv",
        ]
        assert run_cli(capsys, *argv)[0] == 1

    def test_bad_grid_exits_one(self, capsys):
        argv = [
            "sweep", "--g1", "1", "--g2", "4", "--d2", "300",
            "--d1-grid", "100-290-10", "--out", "x.csv",
        ]
        assert run_cli(capsys, *argv)[0] == 1


class TestReadmeExamples:
    """The README's solve and sweep commands, run as written there, give
    the results its text states."""

    README = (Path(__file__).parents[1] / "README.md").read_text()

    def command(self, name):
        blocks = re.findall(r"^```\n(noma-fbl .*?)^```", self.README, re.M | re.S)
        (block,) = [b for b in blocks if b.startswith(f"noma-fbl {name} ")]
        return shlex.split(block.replace("\\\n", " "))[1:]

    def test_solve(self, capsys):
        code, out, _ = run_cli(capsys, *self.command("solve"))
        assert code == 0
        results = json.loads(out)["results"]
        tdma, noma = results["tdma"]["allocation"], results["noma"]["allocation"]
        assert (tdma["m1"], tdma["m2"]) == (188, 112)
        assert f"{tdma['energy']:.6f}" == "0.038633"
        assert noma["scheme"] == "sic-rx2"
        assert f"{noma['energy']:.6f}" == "0.041374"
        assert "TDMA (energy 0.038633 at\nm = (188, 112))" in self.README
        assert "(0.041374)" in self.README

    def test_sweep(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli(capsys, *self.command("sweep"))[0] == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        feasible = lines[1].split(",").index("feasible")
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 40
        assert all(row[feasible] == "1" for row in rows)
        assert "which writes 40 rows, one per scheme and d1, all feasible." in self.README


class TestMonteCarlo:
    def test_files_manifest_and_reproducibility(self, tmp_path, capsys):
        argv = [
            "montecarlo", "--trials", "40", "--seed", "7",
            "--d1-grid", "150:250:50", "--d2", "300",
            "--pmax-dbm-grid", "25,30",
        ]
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        assert run_cli(capsys, *argv, "--out-dir", str(dir_a))[0] == 0
        assert run_cli(capsys, *argv, "--out-dir", str(dir_b))[0] == 0

        names = sorted(p.name for p in dir_a.iterdir())
        assert names == [
            "energy_vs_d1.csv", "feasibility_vs_d1_pmax.csv", "manifest.json"
        ]
        manifest = json.loads((dir_a / "manifest.json").read_text())
        assert manifest["seed"] == 7
        assert manifest["config"]["n_trials"] == 40
        for entry in manifest["outputs"]:
            digest = hashlib.sha256((dir_a / entry["path"]).read_bytes()).hexdigest()
            assert digest == entry["sha256"]
        for name in names:
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_csv_schema_lines(self, tmp_path, capsys):
        argv = [
            "montecarlo", "--trials", "10", "--seed", "1",
            "--d1-grid", "200:300:100", "--d2", "300", "--pmax-dbm-grid", "30",
            "--out-dir", str(tmp_path),
        ]
        assert run_cli(capsys, *argv)[0] == 0
        energy = (tmp_path / "energy_vs_d1.csv").read_text().splitlines()
        feas = (tmp_path / "feasibility_vs_d1_pmax.csv").read_text().splitlines()
        assert energy[0] == "# schema=noma-fbl/mc-energy-v1"
        assert feas[0] == "# schema=noma-fbl/mc-feasibility-v1"
        assert len(energy) == 2 + 2  # schema + header + one row per (pmax, d1)
        assert len(feas) == 2 + 2

    def test_bad_trials_exits_one(self, capsys):
        code, _, err = run_cli(
            capsys, "montecarlo", "--trials", "0", "--out-dir", "/tmp/x-mc",
        )
        assert code == 1

    def test_outputs_reproducible_from_manifest_alone(self, tmp_path, capsys):
        first = tmp_path / "first"
        argv = [
            "montecarlo", "--trials", "25", "--seed", "99",
            "--d1-grid", "150:250:100", "--d2", "280", "--pmax-dbm-grid", "28,30",
            "--out-dir", str(first),
        ]
        assert run_cli(capsys, *argv)[0] == 0
        manifest = json.loads((first / "manifest.json").read_text())
        cfg = manifest["config"]
        d1 = cfg["d1_grid"]
        rebuilt = [
            "montecarlo",
            "--trials", str(cfg["n_trials"]),
            "--seed", str(cfg["seed"]),
            "--d1-grid", f"{d1[0]}:{d1[-1]}:{d1[1] - d1[0]}",
            "--d2", str(cfg["d2"]),
            "--pmax-dbm-grid", ",".join(str(p) for p in cfg["p_max_dbm_grid"]),
            "--out-dir", str(tmp_path / "second"),
        ]
        assert run_cli(capsys, *rebuilt)[0] == 0
        for entry in manifest["outputs"]:
            fresh = (tmp_path / "second" / entry["path"]).read_bytes()
            assert hashlib.sha256(fresh).hexdigest() == entry["sha256"]

    def test_defaults_are_the_config_defaults(self, tmp_path, capsys):
        assert run_cli(capsys, "montecarlo", "--out-dir", str(tmp_path))[0] == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"] == json.loads(json.dumps(asdict(ExperimentConfig())))


INSTANCE = ["--d1", "200", "--d2", "300"]


class TestBadNumbersExitOne:
    """Out-of-range numbers are usage errors (exit 1), not tracebacks."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["montecarlo", "--pmax-dbm-grid", "nan"],
            ["montecarlo", "--pmax-dbm-grid=-1e10"],
            ["montecarlo", "--pmax-dbm-grid", "1e10"],
            ["montecarlo", "--pmax-dbm-grid", "30,30"],  # each cell twice
            ["montecarlo", "--seed", "-1"],
            ["solve", "--pmax-dbm", "1e10", "--g1", "1", "--g2", "4", *INSTANCE],
            ["solve", "--g1", "nan", "--g2", "1", *INSTANCE],
            ["solve", "--g1", "inf", "--g2", "1", *INSTANCE],
            ["solve", "--h1", "1e200", "--h2", "1", *INSTANCE],
            ["sweep", "--g1", "nan", "--g2", "1", "--d2", "300", "--d1-grid", "100:200:50"],
            # Whole numbers past 2**53.
            ["solve", "--n1-bits", str(10**20), "--g1", "1", "--g2", "4", *INSTANCE],
            ["solve", "--d1", "200", "--d2", str(10**400), "--g1", "1", "--g2", "4"],
            ["montecarlo", "--trials", "2", "--d2", str(10**400)],
        ],
        ids=lambda argv: " ".join(argv[:3]),
    )
    def test_exits_one(self, argv, tmp_path, capsys):
        out = ["--out-dir", str(tmp_path)] if argv[0] == "montecarlo" else []
        if argv[0] == "sweep":
            out = ["--out", str(tmp_path / "sweep.csv")]
        code, _, err = run_cli(capsys, *argv, *out)
        assert code == 1
        assert "error:" in err
        assert not list(tmp_path.iterdir())


class TestPastTheCaps:
    """Inputs whose arrays would not fit in memory are usage errors (exit 1),
    caught before anything is allocated."""

    @pytest.mark.parametrize(
        "argv",
        [
            # A split window of 2**53 - 199 splits.
            ["solve", "--g1", "1e4", "--g2", "4e4", "--d1", str(2**53), "--d2", str(2**53)],
            # 6e17 trial cells on the default grid.
            ["montecarlo", "--trials", str(10**16)],
            # d1 grids of 1e11 and 1e22 values: refused before they are built.
            *(
                [command, "--d1-grid", grid, *extra]
                for command, extra in (
                    ("sweep", ["--g1", "1e4", "--g2", "4e4", "--d2", "300"]),
                    ("montecarlo", []),
                )
                for grid in ("100:100000000000:1", "99:10000000000000000000000:1")
            ),
        ],
        ids=[
            "solve window",
            "montecarlo trials",
            "sweep grid 1e11",
            "sweep grid 1e22",
            "montecarlo grid 1e11",
            "montecarlo grid 1e22",
        ],
    )
    def test_exits_one(self, argv, tmp_path, capsys):
        out = ["--out-dir", str(tmp_path / "mc")] if argv[0] == "montecarlo" else []
        if argv[0] == "sweep":
            out = ["--out", str(tmp_path / "sweep.csv")]
        code, stdout, err = run_cli(capsys, *argv, *out)
        assert code == 1
        assert "error:" in err and "Traceback" not in err
        assert not stdout and not list(tmp_path.iterdir())


class TestTopLevel:
    def test_no_command_exits_one(self, capsys):
        assert run_cli(capsys)[0] == 1

    def test_version_flag(self, capsys):
        code, out, _ = run_cli(capsys, "--version")
        assert code == 0
        assert out.strip()
