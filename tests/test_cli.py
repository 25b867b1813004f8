from __future__ import annotations

import csv
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import exposure_bandits
from exposure_bandits import Instance, LlcbPolicy, exact_opt, presets, run_episode
from exposure_bandits.cli import (
    ALGORITHMS,
    BASELINE_KINDS,
    PLANNERS,
    _policy_diag,
    load_instance,
    main,
    make_policy,
    save_instance,
)
from conftest import make_instance

INSTANCES = Path(__file__).parents[1] / "instances"
PRESET_FILES = sorted(INSTANCES.glob("*.txt"))


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


@st.composite
def instances(draw):
    """Instances whose floats need all 17 significant digits, and some
    whose entries are thirds."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, 3))
    tau = draw(st.integers(1, 50))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
    P = [w / sum(weights) for w in weights]
    P[-1] = 1.0 - sum(P[:-1])  # on the simplex to well within its tolerance
    unit = st.floats(0.0, 1.0) | st.sampled_from((1 / 3, 2 / 3, 0.1))
    return Instance(
        n=n, k=k, tau=tau, T=tau * draw(st.integers(1, 5)),
        P=draw(st.sampled_from((tuple(P), (1 / n,) * n))),
        delta=tuple(draw(st.lists(st.integers(0, tau), min_size=k, max_size=k))),
        mu=tuple(tuple(draw(st.lists(unit, min_size=k, max_size=k))) for _ in range(n)),
        reward_kind=draw(st.sampled_from(("bernoulli", "deterministic"))),
    )


@settings(max_examples=100, deadline=None)
@given(instances(), st.integers(0, 2**31))
def test_a_saved_instance_loads_back_equal(inst, seed):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "inst.txt"
        save_instance(inst, path, seed=seed)
        assert load_instance(path) == (inst, seed)


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
        # thresholds are integers: neither truncated nor overflowing
        "delta_frac": "n = 2\nk = 2\ntau = 100\nT = 1000\nP = 0.5 0.5\n"
                      "delta = 10.7 10.2\nmu = 1 0 0 1\n",
        "delta_huge": "n = 2\nk = 2\ntau = 100\nT = 1000\nP = 0.5 0.5\n"
                      "delta = 1e400 10\nmu = 1 0 0 1\n",
    }
    for name, text in cases.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        with pytest.raises(ValueError):
            load_instance(path)
        assert main(["gamma", "--instance", str(path)]) == 2


def test_loader_rejects_a_repeated_key(tmp_path, capsys):
    # a later value would otherwise override the earlier one in silence
    path = tmp_path / "inst.txt"
    path.write_text(
        "n = 2\nk = 2\ntau = 10\nT = 1000\nP = 0.5 0.5\n"
        "delta = 2 3\nmu = 1 0 0 1\n# a second horizon\nT = 2000\n"
    )
    with pytest.raises(ValueError, match=r"inst.txt:9: key 'T' repeats line 4"):
        load_instance(path)
    assert main(["solve", "--instance", str(path), "--seeds", "1"]) == 2
    assert "'T' repeats line 4" in capsys.readouterr().err


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


def test_unknown_algorithm_is_a_config_error(tiny_path, capsys):
    path, _ = tiny_path
    assert main(["solve", "--instance", str(path), "--algo", "magic"]) == 2
    assert main(["experiment", "--instance", str(path), "--algo", "lcb-star,magic"]) == 2
    want = f"error: unknown algorithm 'magic'; choose from {ALGORITHMS}\n"
    assert capsys.readouterr().err == 2 * want


@pytest.mark.parametrize("phases", ["0", "-2"])
def test_a_non_positive_explore_override_is_a_config_error(phases, capsys):
    path = INSTANCES / "subsidy_worthwhile.txt"
    argv = ["learn", "--instance", str(path), "--seeds", "1", "--explore-override", phases]
    assert main(argv) == 2
    assert "at least one phase" in capsys.readouterr().err


@pytest.mark.parametrize("command, algo", [
    ("solve", "lcb-star"), ("solve", "ees-lcb-star"), ("learn", "myopic"),
    ("learn", "ees-lcb-star"), ("experiment", "lcb-star"), ("experiment", "myopic,ees-dp-star"),
])
def test_a_negative_explore_override_exits_two_whatever_the_id(command, algo, capsys):
    path = INSTANCES / "subsidy_worthwhile.txt"
    argv = [command, "--instance", str(path), "--algo", algo, "--seeds", "1",
            "--explore-override", "-5"]
    assert main(argv) == 2
    assert "--explore-override" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "learn"])
@pytest.mark.parametrize("algo", ["dp-star", "l-lcb", "never-subsidize", "greedy-bandit"])
def test_an_explore_override_for_a_non_learner_is_a_config_error(command, algo, capsys):
    path = INSTANCES / "subsidy_worthwhile.txt"
    argv = [command, "--instance", str(path), "--algo", algo, "--seeds", "1",
            "--explore-override", "3"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --explore-override applies only to the ees-* ids, not {algo!r}\n"


def test_experiment_hands_the_explore_override_to_its_ees_ids_alone(capsys, monkeypatch):
    path = INSTANCES / "subsidy_worthwhile.txt"
    argv = ["experiment", "--instance", str(path), "--algo", "lcb-star,ees-lcb-star",
            "--seeds", "1", "--explore-override", "3"]
    assert main(argv) == 0
    monkeypatch.setenv("COLUMNS", "1000")  # one line per option
    with pytest.raises(SystemExit):
        main(["experiment", "--help"])
    assert "exploration phases of the ees-* ids in the list" in capsys.readouterr().out


def test_solve_lists_every_id_it_accepts(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "1000")  # one line per option
    with pytest.raises(SystemExit):
        main(["solve", "--help"])
    assert f"one of {ALGORITHMS}" in capsys.readouterr().out


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


@pytest.mark.parametrize("inst, algo, code, word", [
    # 17 arms are past the subset cap of lcb_star (T0 = 68,400)
    pytest.param(make_instance(n=1, k=17, tau=100, phases=2000, P=(1.0,)), "ees-lcb-star",
                 4, "subset", id="wide-ees-lcb-star"),
    # one-round phases have no confidence floors (T0 = 159)
    *(pytest.param(make_instance(n=1, k=1, tau=1, phases=2000, delta=(1,)), algo,
                   2, "tau", id=f"one-round-{algo}")
      for algo in ("ees-lcb-star", "ees-a-lcb-star", "ees-l-lcb")),
])
def test_a_learner_its_planner_refuses_exits_before_exploring(inst, algo, code, word,
                                                              tmp_path, capsys):
    # the learner is refused when it is built, not after exploring T0
    # rounds, so it prints no exploration schedule
    path = tmp_path / "refused.txt"
    save_instance(inst, path)
    assert main(["learn", "--instance", str(path), "--algo", algo]) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert word in err


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


def test_experiment_starts_no_more_workers_than_groups(tiny_path, tmp_path,
                                                      monkeypatch):
    # a stand-in pool records the worker count and runs the groups in
    # this process, so no process is started
    import concurrent.futures

    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    path, _ = tiny_path
    outs = []
    for algos, workers in (("dp-star,myopic", "1"), ("dp-star,myopic", "64"),
                           ("myopic", "8")):
        out = tmp_path / "out.csv"
        assert main(["experiment", "--instance", str(path), "--algo", algos,
                     "--seeds", "2", "--sweep", "20", "--out", str(out),
                     "--workers", workers]) == 0
        outs.append([row[:-1] for row in csv.reader(out.read_text().splitlines())])
    # two (algorithm, horizon) groups take two workers; one group runs
    # serially; the CSV is the serial one bar the timing column
    assert started == [2]
    assert outs[1] == outs[0]


def assert_sweep_equals_single_horizons(path, algos, horizons, workers, tmp_path):
    """An experiment over ``horizons`` (strings, ascending) writes the
    rows of one experiment per horizon, bar the timing column: a
    horizon-free algorithm serves the shorter horizons from the prefix of
    its longest episode, every other runs each horizon on its own."""

    def experiment(sweep):
        out = tmp_path / "out.csv"
        assert main(["experiment", "--instance", str(path), "--algo", ",".join(algos),
                     "--seeds", "3", "--sweep", sweep, "--out", str(out),
                     "--workers", workers]) == 0
        return [row[:-1] for row in csv.reader(out.read_text().splitlines())]

    single = [experiment(T) for T in horizons]
    joined = single[0] + [row for rows in single[1:] for row in rows[1:]]
    # the sweep writes each algorithm's horizons together, shortest first
    joined[1:] = sorted(joined[1:], key=lambda row: (row[0], horizons.index(row[1])))
    assert experiment(",".join(reversed(horizons))) == joined


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_sweep_equals_its_horizons_run_one_at_a_time(tiny_path, tmp_path, workers):
    path, _ = tiny_path
    assert_sweep_equals_single_horizons(path, ALGORITHMS, ["40", "60", "100"], workers,
                                        tmp_path)


def shortfall_instance(phases):
    """At tau=4 the LCB fallback fires in a few phases of each thousand."""
    return make_instance(tau=4, phases=phases, P=(0.84, 0.16), delta=(1, 1),
                         mu=((0.9, 0.2), (0.1, 0.8)))


def test_a_sweep_counts_only_the_fallbacks_within_each_horizon(tmp_path):
    # the longest episode's count of fallbacks overstates the shorter
    # horizons'
    path = tmp_path / "shortfall.txt"
    save_instance(shortfall_instance(10_000), path)
    assert_sweep_equals_single_horizons(path, ["a-lcb-star", "lcb-star"],
                                        ["4000", "12000", "40000"], "1", tmp_path)


def test_solve_prints_a_plan_of_segments_run_length_encoded(tmp_path, capsys):
    # early_harvest over 2,000 phases is a plan of 3 segments; its chain
    # of 2,001 surviving sets prints as 3 runs
    path = tmp_path / "harvest.txt"
    save_instance(presets.early_harvest(phases=2000), path)
    assert main(["solve", "--instance", str(path), "--algo", "l-lcb",
                 "--seeds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "commitment: {0,1}->{0}x1999->{}" in lines


def test_solve_prints_a_plans_exact_value_per_phase_rounded_once(tmp_path, capsys):
    inst = presets.early_harvest(phases=2000)
    path = tmp_path / "harvest.txt"
    save_instance(inst, path)
    segments = LlcbPolicy(inst).plan.segments
    exact = Fraction(sum(s.phases * s.matching.exact for s in segments),
                     segments[0].matching.scale * inst.phases)
    assert _policy_diag(LlcbPolicy(inst))[1] == float(exact)
    assert main(["solve", "--instance", str(path), "--algo", "l-lcb",
                 "--seeds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert f"per-phase value: {float(exact):.12g}" in lines


def test_a_plan_over_a_huge_horizon_exits_four(tmp_path, capsys):
    # 10^12 phases: the plan holds its segments, not a value per phase,
    # and the episode is refused at the rounds guard
    path = tmp_path / "huge.txt"
    save_instance(presets.subsidy_worthwhile(T=10**14), path)
    assert main(["solve", "--instance", str(path), "--algo", "l-lcb",
                 "--seeds", "1"]) == 4
    out, err = capsys.readouterr()
    assert "commitment: {0,1}x1000000000000->{}" in out.splitlines()
    assert "cap" in err


def test_a_repeated_sweep_horizon_runs_once(tiny_path, tmp_path):
    path, _ = tiny_path
    texts = []
    for sweep in ("20,40,20", "20,40"):
        out = tmp_path / "out.csv"
        assert main(["experiment", "--instance", str(path), "--algo", "myopic",
                     "--seeds", "2", "--sweep", sweep, "--out", str(out)]) == 0
        texts.append([row[:-1] for row in csv.reader(out.read_text().splitlines())])
    # one block of 2 seeds + mean + stderr per distinct horizon
    assert texts[0] == texts[1]
    assert [row[1] for row in texts[0][1:]] == ["20"] * 4 + ["40"] * 4


def test_a_repeated_algorithm_is_written_once(tiny_path, tmp_path):
    path, _ = tiny_path
    texts = []
    for algos in ("myopic,dp-star,myopic", "dp-star,myopic"):
        out = tmp_path / "out.csv"
        assert main(["experiment", "--instance", str(path), "--algo", algos,
                     "--seeds", "2", "--sweep", "20,40", "--out", str(out)]) == 0
        texts.append([row[:-1] for row in csv.reader(out.read_text().splitlines())])
    # one block of 2 seeds + mean + stderr per (algorithm, horizon)
    assert texts[0] == texts[1]
    assert [row[0] for row in texts[0][1:]] == ["dp-star"] * 8 + ["myopic"] * 8


@pytest.mark.parametrize("out", ["missing/out.csv", "."])
def test_an_out_path_that_cannot_be_written_exits_two_before_any_group_runs(
        out, tiny_path, tmp_path, monkeypatch, capsys):
    # the CSV is written once every group has run, so a missing
    # directory, or a directory in place of the file, is refused first
    path, _ = tiny_path
    ran = []
    run_group = exposure_bandits.cli._run_group
    monkeypatch.setattr("exposure_bandits.cli._run_group",
                        lambda group: ran.append(group) or run_group(group))
    assert main(["experiment", "--instance", str(path), "--algo", "dp-star,myopic",
                 "--seeds", "2", "--sweep", "20,40", "--out", str(tmp_path / out)]) == 2
    assert ran == []
    assert "--out" in capsys.readouterr().err
    assert not (tmp_path / "missing").exists()


def test_experiment_benchmarks_against_the_exact_optimum(tmp_path):
    # one arm worth twice the other: the optimum lets the cheap arm
    # depart and earns 0.5 a round, 1 and 2 at the two horizons
    inst = make_instance(n=1, k=2, tau=2, phases=1, P=(1.0,), delta=(1, 1),
                         mu=((0.5, 0.25),))
    path, out = tmp_path / "tiny.txt", tmp_path / "out.csv"
    save_instance(inst, path)
    assert main(["experiment", "--instance", str(path), "--algo", "lcb-star", "--seeds", "1",
                 "--sweep", "2,4", "--benchmark", "oracle-opt", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    bench = {int(r["T"]): float(r["benchmark"]) for r in rows if r["seed"] == "0"}
    assert bench == {T: exact_opt(replace(inst, T=T)) for T in (2, 4)}
    assert bench == {2: 1.0, 4: 2.0}


def test_a_committed_planner_scores_sampled_rewards_in_expectation(tmp_path, capsys):
    # a committed planner's pulls read no reward, so sampling the rewards
    # moves neither its episodes nor their expected reward
    path = tmp_path / "shortfall.txt"
    save_instance(shortfall_instance(10_000), path)
    lines = {}
    for mode in ("sampled", "expected"):
        assert main(["solve", "--instance", str(path), "--algo", "lcb-star",
                     "--seeds", "3", "--reward-mode", mode]) == 0
        lines[mode] = capsys.readouterr().out.splitlines()
    assert "episodes: 3 (seeds 0..2, reward_mode=sampled)" in lines["sampled"]
    [sampled], [expected] = ([line for line in lines[mode] if line.startswith("expected reward:")]
                             for mode in ("sampled", "expected"))
    assert sampled == expected


def test_learn_reports_the_mean_of_its_fallback_phases(tmp_path, capsys):
    inst = shortfall_instance(10_000)
    path = tmp_path / "shortfall.txt"
    save_instance(inst, path)
    assert main(["learn", "--instance", str(path), "--algo", "ees-lcb-star",
                 "--seeds", "2"]) == 0
    policy = make_policy("ees-lcb-star", inst)
    fired = []
    for seed in range(2):
        run_episode(inst, policy, seed, reward_mode="sampled")
        fired.append(len(policy.bad_event_phases))
    assert sum(fired) > 0
    assert f"mean bad-event phases: {sum(fired) / 2:.12g}" in capsys.readouterr().out.splitlines()


def test_experiment_rejects_misaligned_sweeps(tiny_path):
    path, _ = tiny_path
    assert main(["experiment", "--instance", str(path), "--sweep", "25",
                 "--seeds", "1"]) == 2


def test_ees_learners_report_their_planners_fallback_phases(tmp_path):
    # at tau=4 the LCB planner's fallback fires in a few phases after
    # exploration; the experiment rows must count them
    inst = shortfall_instance(20_000)
    path = tmp_path / "shortfall.txt"
    save_instance(inst, path)
    out = tmp_path / "out.csv"
    assert main(["experiment", "--instance", str(path), "--algo", "ees-lcb-star",
                 "--seeds", "2", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    policy = make_policy("ees-lcb-star", inst)
    for row in rows[:2]:
        run_episode(inst, policy, int(row["seed"]), reward_mode="sampled")
        planned = policy.planner.bad_event_phases
        assert int(row["bad_events"]) == len(planned)
        # counted from the episode's first phase, not the planner's
        assert policy.bad_event_phases == [p + policy.exploration_phases for p in planned]
    assert int(rows[1]["bad_events"]) > 0
    policy.start(np.random.default_rng(0))
    assert policy.bad_event_phases == []


def test_a_rare_type_is_warned_about_once_per_run(tmp_path):
    # the loader builds the instance, which validates itself, and the
    # solve builds more; the warning names the type once, not once per
    # instance
    path = tmp_path / "rare.txt"
    path.write_text("n = 2\nk = 2\ntau = 10\nT = 100\nP = 0.95 0.05\n"
                    "delta = 2 2\nmu = 1 0 0 1\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(Path(exposure_bandits.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "exposure_bandits.cli", "solve", "--instance", str(path),
         "--algo", "lcb-star", "--seeds", "1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    warned = [line for line in proc.stderr.splitlines()
              if "type 1 arrives less than once per phase" in line]
    assert len(warned) == 1, proc.stderr


# blocks SciPy before the package is imported: ``import scipy`` then raises
WITHOUT_SCIPY = """\
import sys
sys.modules["scipy"] = None
from exposure_bandits.cli import main
code = main(sys.argv[1:])
assert sys.modules["scipy"] is None and "scipy.optimize" not in sys.modules
sys.exit(code)
"""


def test_every_command_runs_without_scipy(tiny_path, tmp_path):
    # the runtime needs NumPy only; SciPy is a test dependency
    tiny, _ = tiny_path
    worthwhile = str(INSTANCES / "subsidy_worthwhile.txt")
    env = dict(os.environ, PYTHONPATH=str(Path(exposure_bandits.__file__).parents[1]))
    for argv in (
        ["solve", "--instance", worthwhile, "--seeds", "1"],
        ["learn", "--instance", worthwhile, "--seeds", "1"],
        ["experiment", "--instance", worthwhile, "--seeds", "1",
         "--out", str(tmp_path / "cells.csv")],
        ["match", "--instance", worthwhile],
        ["oracle", "--instance", str(tiny)],
        ["gamma", "--instance", str(tiny)],
    ):
        proc = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY, *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, (argv, proc.stderr)


# -- bad input ---------------------------------------------------------------

SIZE_KEYS = ("n", "k", "tau", "T", "seed")
BAD_SIZES = ("0", "-1", "1", "2", "100", "2000", "1e3", "nan", "100000000000000",
             str(10**30), str(10**200))
BAD_ENTRIES = ("nan", "inf", "-inf", "0", "-0.5", "1", "0.5", "40.5", "100", "1e-300",
               "1e400", "100000000000000")
# every command a user can run on an instance file, each with one seed
COMMANDS = (
    [["solve", "--algo", algo] for algo in (*PLANNERS, *BASELINE_KINDS)]
    + [[cmd, "--algo", algo] for cmd in ("learn", "experiment") for algo in ALGORITHMS]
    + [["match"], ["gamma"]]
)


@st.composite
def mutated_presets(draw):
    """A preset file with one or two lines set to bad or extreme values,
    dropped, or repeated with another value."""
    lines = draw(st.sampled_from(PRESET_FILES)).read_text().splitlines()
    for _ in range(draw(st.integers(1, 2))):
        i = draw(st.integers(0, len(lines) - 1))
        key, _, value = (part.strip() for part in lines[i].partition("="))
        if key in SIZE_KEYS:
            new = draw(st.sampled_from(BAD_SIZES))
        elif key == "reward_kind":
            new = draw(st.sampled_from(("deterministic", "poisson", "")))
        else:
            entries = value.split()
            j = draw(st.integers(0, len(entries)))  # past the end: one more
            entries[j:j + 1] = [draw(st.sampled_from(BAD_ENTRIES))]
            new = " ".join(entries)
        action = draw(st.sampled_from(("set", "drop", "repeat")))
        if action == "drop":
            del lines[i]
        elif action == "repeat":
            lines.append(f"{key} = {new}")
        else:
            lines[i] = f"{key} = {new}"
    return "\n".join(lines) + "\n"


@settings(max_examples=400, deadline=None, derandomize=True)
@given(mutated_presets(), st.sampled_from(COMMANDS))
@example(
    (INSTANCES / "subsidy_worthwhile.txt").read_text()
    .replace("T = 1000\n", "T = 100000000000000\n"),
    ["solve", "--algo", "l-lcb"],
)
@example(
    (INSTANCES / "subsidy_worthwhile.txt").read_text()
    .replace("T = 1000\n", f"T = {10**200}\n"),
    ["learn", "--algo", "ees-lcb-star"],
)
def test_a_bad_instance_file_exits_with_a_code(text, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "inst.txt"
        path.write_text(text)
        args = [command[0], "--instance", str(path), *command[1:]]
        if command[0] not in ("match", "gamma"):
            args += ["--seeds", "1"]
        assert main(args) in (0, 2, 3, 4)
