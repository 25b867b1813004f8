"""Episodes streamed in blocks of phases: the block size never moves a
record, the record and one block bound the memory, and what cannot be
run is refused before the first round."""

from __future__ import annotations

import hashlib
import tracemalloc
from dataclasses import replace

import pytest

from exposure_bandits import (
    EesPolicy,
    Instance,
    LcbPolicy,
    Observables,
    ResourceGuardError,
    RunRecord,
    env,
    run_episode,
)
from exposure_bandits.cli import ALGORITHMS, main, make_policy, save_instance
from exposure_bandits.learn import GreedyBanditPolicy
from exposure_bandits.presets import subsidy_worthwhile, symmetric_tight
from test_env import assert_same_record, outcome, reported, scalar_run

NOISY_MU = ((0.9, 0.2), (0.1, 0.8))


def digest(record: RunRecord) -> str:
    h = hashlib.sha256()
    for a in (record.arrivals, record.pulls, record.realized_rewards, record.dead_pulls):
        h.update(a.dtype.str.encode())
        h.update(a.tobytes())
    h.update(record.expected_reward.hex().encode())
    h.update(repr(record.departure_events).encode())
    return h.hexdigest()


# seed 7 on subsidy_worthwhile at T=200,000, two blocks of 131,000 and
# 69,000 rounds: the record's digest with its 0/1 utilities, in either
# reward mode, and with the utilities NOISY_MU in the sampled mode
PINNED = {
    "dp-star": ("8c8cb1a91a2850316d60926f07cff6351840a624a25893b1e9bb6d7656850047",
                "2e4cab1f5425c3ac16127916a046a1239f4549c0e4d3c2735018c8e10fc16fdb"),
    "lcb-star": ("cb60f40929fa437e5158ff4194aa00a71863a5e4e554a1dff2e2ead5b98901c5",
                 "dd0d087a533a6f157eb30752f3dc73830a48d381406c68b69dca87ef20dd9d18"),
    "a-lcb-star": ("cb60f40929fa437e5158ff4194aa00a71863a5e4e554a1dff2e2ead5b98901c5",
                   "dd0d087a533a6f157eb30752f3dc73830a48d381406c68b69dca87ef20dd9d18"),
    "l-lcb": ("8ead75452e6f67da5aa9d4a2ea36078440119aa80f1c253d5082d4fda2293bc8",
              "0342e954cf5617d0a460115e6a20e9033864fd72b1ec492268c7f913986a14c1"),
    "myopic": ("3cbd23399c6055ee1674be2fc109d01da1a4f7a0b039cb99d1df18197a259038",
               "fdb45b25a5b046f7d52c760ed844eed48688203b6c2375a79ce7fd7964e2f77f"),
    "never-subsidize": ("129513d900f8bf93389401285845c2d3f87324673808f33652c44554e1678b48",
                        "7a0822d581648e016dedfb6a6ecf77c8f5e4182f390258258d7ee3bb47575921"),
    "blind": ("872b952dadf216372782c28c611c4dce34f7e863dccfe2780d3346f2df8411db",
              "c2d2518930dfe951f3f4b604059700c7fe1db040a4bcb36d91624056ddfff4bb"),
    "greedy-bandit": ("0c4fbbc6fb30867f3b97a43f742527bed68d555fc4739c2ef7355f0189f30437",
                      "130bbbb6803111f69977d7f15c1bf937a2ddb57b8bfd545cbb98ddf2677a25a3"),
    "ees-dp-star": ("de8f1dc40fe554fe8355b17d488c5af0fcbcc5090cbc6c79ff2c009d596949b9",
                    "631798bcc06232026d59031de322e732f9656c3a2686056f0d2f47ced36fb5c4"),
    "ees-lcb-star": ("0796867199ac3fe1fd1d8eea7c87c7c30679f8d169758ed9c59f83c78851bf96",
                     "f41aa74498a14f19f1f6f26d7526617033bc83d92c3285f4e65537082c0b0483"),
    "ees-a-lcb-star": ("0796867199ac3fe1fd1d8eea7c87c7c30679f8d169758ed9c59f83c78851bf96",
                       "f41aa74498a14f19f1f6f26d7526617033bc83d92c3285f4e65537082c0b0483"),
    "ees-l-lcb": ("e429bb798b22975ffe36389ec09800f8d483a8808084ae0f22d4480eb74ca591",
                  "1aa230ede1a730f8be067bba74411889de35dc853aa2aa25db5d09e8e0925596"),
}


def test_every_algorithm_has_a_pinned_record():
    assert set(PINNED) == set(ALGORITHMS)


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_seeded_records_keep_their_digests(algo):
    inst = subsidy_worthwhile(T=200_000)
    plain, noisy = PINNED[algo]
    for mode in ("expected", "sampled"):
        assert digest(run_episode(inst, make_policy(algo, inst), 7, mode)) == plain, mode
    inst = replace(inst, mu=NOISY_MU)
    assert digest(run_episode(inst, make_policy(algo, inst), 7, "sampled")) == noisy


# -- the block size ------------------------------------------------------------

def shortfall(phases):
    """At tau=4, type 0 misses its confidence floor in a few phases, so
    the LCB fallback fires (at phases 393 and 1291 with seed 1)."""
    return Instance(n=2, k=2, tau=4, T=4 * phases, P=(0.84, 0.16), delta=(1, 1),
                    mu=NOISY_MU)


def block_cases(algo):
    """(instance, seed, reward modes) over horizons of 41 and 1,300
    phases, neither a multiple of 3.  Departures fall inside blocks of 3
    phases: the baselines that never subsidize lose arm 1 in phase 1 of
    subsidy_worthwhile and arm 0 in phase 36 of the noisy symmetric_tight,
    the L-LCB plan lets arm 1 go in phase 41, and on the shortfall
    instance the LCB planners let arm 1 go in phase 1."""
    both = ("expected", "sampled")
    cases = [(subsidy_worthwhile(T=4100), 3, both),
             (replace(symmetric_tight(T=4100), mu=NOISY_MU), 3, both)]
    if "lcb" in algo:
        mode = "sampled" if algo.startswith("ees-") else "expected"
        cases.append((shortfall(1300), 1, (mode,)))
    return cases


def play(run, inst, policy, seed, mode):
    """The record of ``policy`` played by ``run`` (:func:`outcome`, or
    :func:`scalar_run` on the scalar paths), or what was raised, and
    what the policy reports."""
    return run(inst, policy, seed, mode), reported(policy)


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_the_block_size_never_moves_a_record(algo, monkeypatch):
    for inst, seed, modes in block_cases(algo):
        policy = make_policy(algo, inst)
        for mode in modes:
            want, seen = play(outcome, inst, policy, seed, mode)
            assert isinstance(want, RunRecord)
            if inst.tau == 4 and "lcb" in algo:
                assert seen[0] == [393, 1291]
            for phases in (1, 3, None):
                with monkeypatch.context() as m:
                    if phases is not None:
                        m.setattr(env, "BLOCK_ROUNDS", phases * inst.tau)
                    for run in (outcome, scalar_run):
                        got, got_seen = play(run, inst, policy, seed, mode)
                        assert_same_record(got, want)
                        assert got_seen == seen


def test_a_block_is_whole_phases_and_at_least_one(monkeypatch):
    # a block shorter than a phase plays a whole phase; a longer one
    # rounds down to whole phases
    inst = subsidy_worthwhile(T=100 * 7)
    want = run_episode(inst, make_policy("lcb-star", inst), 0)
    for rounds in (1, 99, 250):
        monkeypatch.setattr(env, "BLOCK_ROUNDS", rounds)
        assert_same_record(run_episode(inst, make_policy("lcb-star", inst), 0), want)


# -- memory --------------------------------------------------------------------

@pytest.mark.parametrize("algo", ["lcb-star", "ees-dp-star"])
def test_an_episode_holds_its_record_and_a_block(algo):
    T = 2_000_000
    inst = subsidy_worthwhile(T=T)
    policy = make_policy(algo, inst)
    tracemalloc.start()
    try:
        run_episode(inst, policy, 1, "sampled" if policy.observables is not None else "expected")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert env.RECORD_BYTES * T <= peak < env.RECORD_BYTES * T + 2 * env.BLOCK_BYTES


# -- refused before the first round --------------------------------------------

def too_long():
    """Each round's record would need more than the byte cap allows."""
    T = 100 * (env.EPISODE_BYTE_CAP // (100 * env.RECORD_BYTES) + 1)
    return subsidy_worthwhile(T=T)


def test_an_episode_too_long_for_the_cap_is_refused_before_allocating():
    inst = too_long()
    policy = make_policy("lcb-star", inst)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceGuardError, match="cap"):
            run_episode(inst, policy, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_the_cli_exits_four_on_an_episode_too_long(tmp_path, capsys):
    path = tmp_path / "long.txt"
    save_instance(too_long(), path)
    assert main(["solve", "--instance", str(path), "--algo", "myopic"]) == 4
    assert "cap" in capsys.readouterr().err


@pytest.mark.parametrize("wrong", [dict(T=10_000), dict(T=40_000), dict(delta=(10, 50))])
@pytest.mark.parametrize("learner", ["ees-lcb-star", "greedy-bandit"])
def test_a_learner_is_refused_an_instance_its_observables_do_not_describe(
        learner, wrong, monkeypatch):
    inst = subsidy_worthwhile(T=20_000)
    observables = replace(Observables.from_instance(inst), **wrong)
    if learner == "greedy-bandit":
        policy = GreedyBanditPolicy(observables)
    else:
        policy = EesPolicy(observables, LcbPolicy)
    started = []
    monkeypatch.setattr(policy, "start", started.append)
    with pytest.raises(ValueError, match="does not describe"):
        run_episode(inst, policy, 0, "sampled")
    assert started == []
    assert policy.observables == observables
