from __future__ import annotations

import numpy as np
import pytest

from exposure_bandits import (
    NEG_INF,
    ResourceGuardError,
    dp_star,
    enumerate_phase_policies,
    exact_opt,
    mer_table,
    planned_total_value,
)
from conftest import make_instance, random_instance


def test_single_arm_instances_have_obvious_optima():
    inst = make_instance(n=1, k=1, tau=2, phases=1, P=(1.0,), delta=(1,),
                         mu=((1.0,),))
    assert exact_opt(inst) == pytest.approx(2.0, abs=1e-12)
    # worthless arm: the optimum is to do nothing
    inst0 = make_instance(n=1, k=1, tau=2, phases=1, P=(1.0,), delta=(1,),
                          mu=((0.0,),))
    assert exact_opt(inst0) == pytest.approx(0.0, abs=1e-12)


def test_keeping_an_arm_alive_for_later_phases_pays():
    # phase 1 must invest 1 pull on a 0.4 arm to keep earning 1.0 later
    inst = make_instance(n=1, k=2, tau=2, phases=2, P=(1.0,), delta=(0, 1),
                         mu=((0.4, 1.0),))
    opt = exact_opt(inst)
    assert opt == pytest.approx(4.0, abs=1e-12)


def test_harvesting_beats_pure_commitment_under_skewed_arrivals():
    # the rare type's arm costs half the phase to keep; committed play
    # either pays that every phase or abandons the arm, while the
    # clairvoyant adapts to the realized arrivals
    inst = make_instance(tau=4, phases=2, P=(0.8, 0.2), delta=(0, 2))
    opt = exact_opt(inst)
    Z, table = dp_star(inst)
    committed = planned_total_value(inst, table)
    assert Z == frozenset({0})
    assert opt > committed + 0.5


def test_exact_optimum_sandwiches_the_committed_planner():
    rng = np.random.default_rng(41)
    for _ in range(15):
        inst = random_instance(rng, n_max=2, k_max=3, tau_max=5, phases_max=3)
        opt = exact_opt(inst)
        try:
            _, table = dp_star(inst)
        except Exception:
            continue
        committed = planned_total_value(inst, table)
        assert committed <= opt + 1e-9
        assert opt - committed <= inst.k * inst.tau + 1e-9


def test_exact_opt_guards_against_state_blowup():
    inst = make_instance(tau=100, phases=100, delta=(40, 40))
    with pytest.raises(ResourceGuardError):
        exact_opt(inst)


def test_phase_policy_enumeration_matches_the_recursion():
    rng = np.random.default_rng(42)
    for _ in range(20):
        inst = random_instance(rng, n_max=2, k_max=2, tau_max=3)
        Z = tuple(range(inst.k))
        enum = enumerate_phase_policies(Z, inst)
        root = mer_table(Z, inst).root_value
        if enum is NEG_INF or root is NEG_INF:
            assert enum is root
        else:
            assert enum == pytest.approx(root, abs=1e-9)


def test_phase_policy_enumeration_guards_against_blowup():
    inst = make_instance(tau=30, phases=1, delta=(5, 5))
    with pytest.raises(ResourceGuardError):
        enumerate_phase_policies((0, 1), inst)


def test_infeasible_commitment_enumerates_to_the_sentinel():
    inst = make_instance(tau=2, phases=1, delta=(2, 2))
    assert enumerate_phase_policies((0, 1), inst) is NEG_INF
