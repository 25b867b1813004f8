"""A pinned parity corpus: seeded records of every algorithm id, the
planners' plans and one experiment CSV, each reduced to a SHA-256
digest, so that "same behaviour" is this module passing unedited.

A change that moves a trajectory on purpose re-pins the digests it
moves and says why.  The corpus is chosen to tell the planners apart:
it holds exact ties between subsets of one size (the tie order), two
arms whose utilities differ in the last bit (exact comparison), and an
instance where the greedy A-LCB commits to another set than LCB.
"""

from __future__ import annotations

import csv
import hashlib
import math
import warnings
from pathlib import Path

import pytest

from exposure_bandits import AlcbPolicy, DpPolicy, Instance, LcbPolicy, LlcbPolicy, run_episode
from exposure_bandits.cli import ALGORITHMS, main, make_policy
from exposure_bandits.presets import (
    early_harvest,
    one_type_two_arms,
    subsidy_wasteful,
    subsidy_worthwhile,
    symmetric_tight,
)
from test_stream import digest

INSTANCES = Path(__file__).resolve().parent.parent / "instances"

# exact ties between sets of one size: {0, 3} and {1, 2} are worth the
# same, and the lowest mask, {1, 2}, wins (dp_star at tau=4, lcb_star
# at tau=100)
TIE4_MU = ((1, 0, 1, 0), (0, 1, 0, 1), (1, 1, 0, 0), (0, 0, 1, 1))


def tie4(tau: int, phases: int) -> Instance:
    return Instance(n=4, k=4, tau=tau, T=tau * phases, P=(0.25,) * 4, delta=(0,) * 4,
                    mu=TIE4_MU)


# (name, instance) of the records and plans; every ees-* id explores
# and re-plans on each
CASES = [
    ("subsidy_worthwhile", subsidy_worthwhile(T=20_000)),
    ("subsidy_wasteful", subsidy_wasteful(T=20_000)),
    ("symmetric_tight", symmetric_tight(T=20_000)),
    ("one_type_two_arms", one_type_two_arms(T=20_000)),
    ("early_harvest", early_harvest(tau=200, phases=20)),
    # type 0 misses its confidence floor in some phases, so the LCB
    # fallback fires
    ("shortfall", Instance(n=2, k=2, tau=4, T=5200, P=(0.84, 0.16), delta=(1, 1),
                           mu=((0.9, 0.2), (0.1, 0.8)))),
    ("tie4", tie4(tau=4, phases=2000)),
    # dp_star ties {0, 3} and {1, 2} at root 3.5
    ("tie5", Instance(n=3, k=5, tau=5, T=10_000, P=(0.2, 0.4, 0.4), delta=(0,) * 5,
                      mu=((0.25, 0, 0.5, 0.5, 0.25), (1, 1, 0, 0, 0.25),
                          (0, 0.5, 0, 0.5, 0.5)))),
    # arms 0 and 3, and arms 1 and 4, are copies; grid utilities
    ("twins6", Instance(n=2, k=6, tau=8, T=8000, P=(0.625, 0.375), delta=(1, 1, 2, 1, 0, 1),
                        mu=((0.5, 1, 0.25, 0.5, 1, 0), (1, 0.25, 1, 1, 0.25, 0.5)))),
    # 3 mu_0 and 3 mu_1 round to one float, but arm 1 is worth more
    ("float_tie", Instance(n=1, k=2, tau=7, T=7000, P=(1.0,), delta=(0, 0),
                           mu=((0.666866, math.nextafter(0.666866, 1)),))),
    # the greedy keeps {0, 1, 2}, worth 9 on the scale, LCB {1, 2}, worth 10
    ("greedy_loses", Instance(n=2, k=3, tau=20, T=10_000, P=(0.5, 0.5), delta=(9, 10, 0),
                              mu=((0.5, 0, 0.75), (0.25, 0.5, 0)))),
]
# the matching planners also plan the tie at tau=100, too large a table
# for the DP
PLAN_CASES = CASES + [("tie4_tau100", tie4(tau=100, phases=10))]
SEEDS = (1, 2, 3)
MODES = ("expected", "sampled")


def record_digest(algo: str) -> str:
    """One digest over ``algo``'s records on every case, seed and reward
    mode, each with the fallback phases its policy reports."""
    h = hashlib.sha256()
    for _, inst in CASES:
        policy = make_policy(algo, inst)
        for seed in SEEDS:
            for mode in MODES:
                h.update(digest(run_episode(inst, policy, seed, mode)).encode())
                h.update(repr(policy.bad_event_phases).encode())
    return h.hexdigest()


# record_digest(algo): the 11 CASES, seeds 1-3, expected and sampled
# rewards, the policy built once per case by cli.make_policy
RECORDS = {
    "dp-star": "83481d5144cb7ec2239da80499c11f5dafdd6e025afb2c29888f85d7f6af81ef",
    "lcb-star": "7444d7dd88404c318de1a884df59b6851e7470303003cbc9df988e6f6ce4b117",
    "a-lcb-star": "13be3aca200d8392df30fc563699bb1268e8d8ff4dec855b68e173d146f757de",
    "l-lcb": "c01448ddf4c4b753476bb4d63fa5deca0a94d71c54792d12e60d93aa2ce59cfd",
    "myopic": "115a4468cd15fbe2c10fbe7150b1d614b08af3bcf719625216fb8060a46147cc",
    "never-subsidize": "df0267dd21407cf9527cf2525c40f4da10f370ad0edc97a744b5d84f9c62a9b7",
    "blind": "0425cec4ec3a8222e01b3e6d45b8138c6ee6dad0db60d706860c97ad9c0c8e41",
    "greedy-bandit": "53cfba78f4c96e08da85f2eda944d94d928e64138c31558ff2babddcce67623e",
    "ees-dp-star": "28a12932e67cc4e750d7a08668afc33c207e0c292fd618e546d8132e462e24ff",
    "ees-lcb-star": "ba2052115d8dbe3f249a10a1ca94e84bc1d8294e06151da8cae33b6afd98296d",
    "ees-a-lcb-star": "b1fbd7444eb57bb3ef3ca2404630d604ce56e47b0730f0ab54a38b10084aa081",
    "ees-l-lcb": "82f5bd7ff5ad8dc5e79aefa8118d3cf264b01deb3f4cc39aa1049cd8a99c6f7f",
}


def test_every_algorithm_has_pinned_records():
    assert set(RECORDS) == set(ALGORITHMS)


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_seeded_records_keep_their_digest(algo):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert record_digest(algo) == RECORDS[algo]


def plan_bytes(policy) -> bytes:
    """A planner's plan: the DP's commitment, value table and action
    table, or a matching plan's segments (phases, available and kept
    arms, matching, exact value and scale), and A-LCB's trace."""
    if isinstance(policy, DpPolicy):
        return b"".join((repr(sorted(policy.Z)).encode(), policy.table.values.tobytes(),
                         policy._acts.tobytes()))
    parts = [(seg.phases, sorted(seg.available), sorted(seg.kept), seg.matching.M,
              seg.matching.exact, seg.matching.scale) for seg in policy.plan.segments]
    if isinstance(policy, AlcbPolicy):
        parts.append((policy.trace.chosen, policy.trace.oracle_call_count))
    return repr(parts).encode()


# plan_digest(planner): every case of PLAN_CASES but tie4_tau100 for
# DpPolicy, the planner built on the true instance
PLANS = {
    DpPolicy: "23847717c1dcd866a076dfdf340d0e7efd93bbeffc3e79471cb2251eb1637219",
    LcbPolicy: "46850c000b038af355b0c71e3d28f1213190537429010c1e890391f5fdb5c9af",
    AlcbPolicy: "994685b20b43260fe92418e3c516f61007a7e32de021211c73720368b85b0748",
    LlcbPolicy: "e658f7fbc9a9689dab993d309fb233154931721bb99c30bf01b99385bc460158",
}


def plan_digest(planner) -> str:
    h = hashlib.sha256()
    for _, inst in CASES if planner is DpPolicy else PLAN_CASES:
        h.update(plan_bytes(planner(inst)))
    return h.hexdigest()


@pytest.mark.parametrize("planner", list(PLANS), ids=lambda cls: cls.__name__)
def test_plans_keep_their_digest(planner):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert plan_digest(planner) == PLANS[planner]


def test_the_corpus_tells_the_planners_apart():
    # the corpus would not see a move of one planner onto another's choice
    # unless some case separates them
    cases = dict(PLAN_CASES)
    assert LcbPolicy(cases["greedy_loses"]).Z == {1, 2}
    assert AlcbPolicy(cases["greedy_loses"]).Z == {0, 1, 2}
    assert LcbPolicy(cases["tie4_tau100"]).Z == {1, 2}
    assert DpPolicy(cases["tie4"]).Z == DpPolicy(cases["tie5"]).Z == {1, 2}
    assert AlcbPolicy(cases["float_tie"]).Z == {1}
    shortfall = LcbPolicy(cases["shortfall"])
    run_episode(cases["shortfall"], shortfall, 1, "expected")
    assert shortfall.bad_event_phases == [393, 1291]


# experiment on instances/subsidy_worthwhile.txt, every id, seeds 0-1,
# horizons 1000 and 2000, against pico, in one process; wall_time_s, the
# last column, is left out
EXPERIMENT = "cdbfe99d290e83ee8be8d8e153976acf7049a62976b8f26de855f66bdcfda1fe"


def test_an_experiment_csv_keeps_its_digest(tmp_path):
    out = tmp_path / "parity.csv"
    assert main([
        "experiment", "--instance", str(INSTANCES / "subsidy_worthwhile.txt"),
        "--algo", ",".join(ALGORITHMS), "--seeds", "2", "--sweep", "1000,2000",
        "--out", str(out), "--workers", "1",
    ]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0][-1] == "wall_time_s"
    masked = "\n".join(",".join(row[:-1]) for row in rows)
    assert hashlib.sha256(masked.encode()).hexdigest() == EXPERIMENT
