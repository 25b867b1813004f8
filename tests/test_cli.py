from __future__ import annotations

import csv

import pytest

from exposure_bandits.cli import load_instance, main, save_instance
from conftest import make_instance


@pytest.fixture
def tiny_path(tmp_path):
    inst = make_instance(tau=10, phases=2, delta=(2, 3))
    path = tmp_path / "tiny.txt"
    save_instance(inst, path, seed=7)
    return path, inst


def test_instance_files_round_trip(tiny_path):
    path, inst = tiny_path
    loaded, seed = load_instance(path)
    assert loaded == inst
    assert seed == 7


def test_loader_accepts_comments_and_commas(tmp_path):
    path = tmp_path / "inst.txt"
    path.write_text(
        "# a tiny instance\n"
        "n = 2\nk = 2\ntau = 10\nT = 20\n"
        "P = 0.5, 0.5\n"
        "delta = 2 3  # thresholds\n"
        "mu = 1 0 0 1\n"
    )
    inst, seed = load_instance(path)
    assert inst.delta == (2, 3)
    assert seed == 0
    assert inst.reward_kind == "bernoulli"


def test_loader_rejects_malformed_files(tmp_path):
    cases = {
        "missing": "n = 2\nk = 2\ntau = 10\nT = 20\nP = 0.5 0.5\ndelta = 0 0\n",
        "unknown": "n = 2\nk = 2\ntau = 10\nT = 20\nP = 0.5 0.5\n"
                   "delta = 0 0\nmu = 1 0 0 1\nfoo = 1\n",
        "mu_len": "n = 2\nk = 2\ntau = 10\nT = 20\nP = 0.5 0.5\n"
                  "delta = 0 0\nmu = 1 0 0\n",
        "no_eq": "n 2\n",
    }
    for name, text in cases.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        with pytest.raises(ValueError):
            load_instance(path)


def test_gamma_subcommand(tiny_path, capsys):
    path, _ = tiny_path
    assert main(["gamma", "--instance", str(path)]) == 0
    out = capsys.readouterr().out
    assert "feasible: True" in out
    assert "quota:" in out


def test_solve_subcommand_reports_the_commitment(tiny_path, capsys):
    path, _ = tiny_path
    code = main(["solve", "--instance", str(path), "--algo", "dp-star",
                 "--seeds", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "commitment:" in out
    assert "expected reward:" in out


def test_match_and_oracle_subcommands(tiny_path, capsys):
    path, _ = tiny_path
    assert main(["match", "--instance", str(path)]) == 0
    assert main(["oracle", "--instance", str(path)]) == 0
    out = capsys.readouterr().out
    assert "confidence floors:" in out
    assert "exact optimum:" in out


def test_unknown_algorithm_is_a_config_error(tiny_path):
    path, _ = tiny_path
    assert main(["solve", "--instance", str(path), "--algo", "magic"]) == 2


def test_missing_file_is_a_config_error():
    assert main(["gamma", "--instance", "/nonexistent/file.txt"]) == 2


def test_nonpositive_counts_are_config_errors(tiny_path, capsys):
    path, _ = tiny_path
    base = ["--instance", str(path), "--algo", "lcb-star"]
    assert main(["solve", *base, "--seeds", "0"]) == 2
    assert main(["experiment", *base, "--seeds", "2", "--workers", "0"]) == 2
    err = capsys.readouterr().err
    assert "--seeds" in err and "--workers" in err


def test_infeasible_instances_exit_three(tmp_path):
    path = tmp_path / "impossible.txt"
    # both arms together outgrow the phase, so exploring cannot keep them
    # alive; a single arm still fits, so the planners commit to one
    path.write_text(
        "n = 1\nk = 2\ntau = 4\nT = 4\nP = 1\ndelta = 3 3\nmu = 0 0\n"
    )
    assert main(["learn", "--instance", str(path), "--algo", "ees-a-lcb-star"]) == 3
    assert main(["solve", "--instance", str(path), "--algo", "a-lcb-star"]) == 0


def test_oversized_oracle_requests_exit_four(tmp_path):
    inst = make_instance(n=2, k=3, tau=100, phases=10, delta=(30, 30, 30),
                         mu=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)))
    path = tmp_path / "big.txt"
    save_instance(inst, path)
    assert main(["oracle", "--instance", str(path)]) == 4


def test_experiment_writes_a_deterministic_csv(tiny_path, tmp_path, capsys):
    path, inst = tiny_path
    outs = []
    for name, workers in (("a.csv", "1"), ("b.csv", "2")):
        out = tmp_path / name
        code = main([
            "experiment", "--instance", str(path),
            "--algo", "dp-star,myopic", "--seeds", "3",
            "--sweep", "20,40", "--benchmark", "pico",
            "--out", str(out), "--workers", workers,
        ])
        assert code == 0
        outs.append(out.read_text())
    strip = lambda text: [row[:-1] for row in csv.reader(text.splitlines())]
    # serial and parallel runs agree bar the timing column
    assert strip(outs[0]) == strip(outs[1])

    rows = list(csv.reader(outs[0].splitlines()))
    header, body = rows[0], rows[1:]
    assert header[:3] == ["algorithm", "T", "seed"]
    # 2 algorithms x 2 horizons x (3 seeds + mean + stderr)
    assert len(body) == 2 * 2 * 5
    algs = sorted({r[0] for r in body})
    assert algs == ["dp-star", "myopic"]
    for r in body:
        if r[2] not in ("mean", "stderr"):
            reward, bench, regret = map(float, r[3:6])
            assert regret == pytest.approx(bench - reward, abs=1e-9)


def test_experiment_rejects_misaligned_sweeps(tiny_path):
    path, _ = tiny_path
    assert main(["experiment", "--instance", str(path), "--sweep", "25",
                 "--seeds", "1"]) == 2
