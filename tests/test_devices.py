import math
import random

import pytest

from cpsim.devices import (AMORPHOUS, CRYSTALLINE, PARTIAL, DeviceParams, OpticalPath,
                           PcmcState, mr_tuning_power, path_insertion_loss,
                           pcmc_chain_for_equal_split, pcmc_for_split, pcmc_transfer,
                           required_laser_power, serialization_time, source_mw)

PARAMS = DeviceParams()


def random_pcmc_state(rng):
    phase = rng.choice((CRYSTALLINE, PARTIAL, AMORPHOUS))
    return PcmcState(phase, t=rng.random(), excess_loss_db=rng.uniform(0.0, 3.0))


# ------------------------------------------------------------------ PCMC


def test_pcmc_crystalline_is_bar():
    assert pcmc_transfer(PcmcState(CRYSTALLINE)) == (1.0, 0.0)


def test_pcmc_amorphous_is_cross():
    assert pcmc_transfer(PcmcState(AMORPHOUS)) == (0.0, 1.0)


def test_pcmc_partial_even_split():
    bar, cross = pcmc_transfer(PcmcState(PARTIAL, t=0.5))
    assert bar == pytest.approx(0.5) and cross == pytest.approx(0.5)


def test_pcmc_conserves_power_under_loss():
    rng = random.Random(42)
    for _ in range(2000):
        state = random_pcmc_state(rng)
        bar, cross = pcmc_transfer(state)
        assert bar >= 0.0 and cross >= 0.0
        assert bar + cross == pytest.approx(10 ** (-state.excess_loss_db / 10), rel=1e-12)
        assert bar + cross <= 1.0 + 1e-12


@pytest.mark.parametrize("target,phase", [(0.0, CRYSTALLINE), (1.0, AMORPHOUS), (0.25, PARTIAL)])
def test_pcmc_for_split_boundaries(target, phase):
    assert pcmc_for_split(target).phase == phase


def test_pcmc_split_round_trip():
    rng = random.Random(3)
    for _ in range(200):
        target = rng.random()
        _, cross = pcmc_transfer(pcmc_for_split(target))
        assert abs(cross - target) < 1e-12


def test_pcmc_for_split_rejects_out_of_range():
    with pytest.raises(ValueError):
        pcmc_for_split(1.5)
    with pytest.raises(ValueError):
        pcmc_for_split(-0.1)


def test_pcmc_chain_splits_equally():
    active = [True, False, True, True, False]
    chain = pcmc_chain_for_equal_split(active)
    remaining, delivered = 1.0, []
    for state in chain:
        bar, cross = pcmc_transfer(state)
        delivered.append(remaining * cross)
        remaining *= bar
    for is_active, share in zip(active, delivered):
        assert share == pytest.approx(1 / 3 if is_active else 0.0, abs=1e-12)


# -------------------------------------------------------------- link budget


def test_insertion_loss_empty_path():
    assert path_insertion_loss(OpticalPath(0.0), PARAMS) == 0.0


def test_insertion_loss_example():
    params = DeviceParams(coupler_loss_db=1.0, propagation_loss_db_per_mm=0.1,
                          mr_through_loss_db=0.01, mr_drop_loss_db=0.5)
    path = OpticalPath(length_mm=20, mrs_passed=64, drop_stages=1, split_fanout=1, couplers=1)
    assert path_insertion_loss(path, params) == pytest.approx(4.14, rel=1e-12)


def test_insertion_loss_fanout_example():
    params = DeviceParams(coupler_loss_db=1.0, propagation_loss_db_per_mm=0.1,
                          mr_through_loss_db=0.01, mr_drop_loss_db=0.5, splitter_excess_db=0.0)
    path = OpticalPath(length_mm=20, mrs_passed=64, drop_stages=1, split_fanout=8, couplers=1)
    assert path_insertion_loss(path, params) == pytest.approx(4.14 + 10 * math.log10(8), rel=1e-12)


def test_insertion_loss_additive_for_unit_fanout():
    rng = random.Random(11)
    for _ in range(100):
        a = OpticalPath(rng.uniform(0, 30), rng.randint(0, 128), rng.randint(0, 3),
                        1, rng.randint(0, 2))
        b = OpticalPath(rng.uniform(0, 30), rng.randint(0, 128), rng.randint(0, 3),
                        1, rng.randint(0, 2))
        joined = OpticalPath(a.length_mm + b.length_mm, a.mrs_passed + b.mrs_passed,
                             a.drop_stages + b.drop_stages, 1, a.couplers + b.couplers)
        assert path_insertion_loss(joined, PARAMS) == pytest.approx(
            path_insertion_loss(a, PARAMS) + path_insertion_loss(b, PARAMS), rel=1e-12)


# -------------------------------------------------------------- laser power


def il_path(il_db, params):
    # pure propagation path with the requested insertion loss
    return OpticalPath(length_mm=il_db / params.propagation_loss_db_per_mm)


def test_laser_power_example():
    params = DeviceParams(pd_sensitivity_dbm=-20.0, laser_efficiency=0.1)
    watts = required_laser_power([source_mw(il_path(10.0, params), params)], 64, params)
    assert watts == pytest.approx(0.064, rel=1e-12)


def test_laser_power_passthrough():
    params = DeviceParams(pd_sensitivity_dbm=-20.0, laser_efficiency=1.0)
    watts = required_laser_power([source_mw(OpticalPath(0.0), params)], 1, params)
    assert watts == pytest.approx(1e-5, rel=1e-12)


def test_laser_power_doubles_per_3db():
    params = DeviceParams()
    base = required_laser_power([source_mw(il_path(10.0, params), params)], 64, params)
    doubled = required_laser_power([source_mw(il_path(13.0103, params), params)], 64, params)
    assert doubled / base == pytest.approx(2.0, rel=1e-6)


def test_laser_power_monotone_in_losses_and_wavelengths():
    path = OpticalPath(length_mm=10, mrs_passed=32, drop_stages=1, split_fanout=4, couplers=1)
    base = required_laser_power([source_mw(path, PARAMS)], 16, PARAMS)
    assert required_laser_power([source_mw(path, PARAMS)], 32, PARAMS) > base
    for bump in ("coupler_loss_db", "propagation_loss_db_per_mm", "mr_through_loss_db",
                 "mr_drop_loss_db", "splitter_excess_db"):
        params = DeviceParams(**{bump: getattr(PARAMS, bump) + 0.5})
        assert required_laser_power([source_mw(path, params)], 16, params) > base


def test_laser_power_rejects_empty():
    with pytest.raises(ValueError):
        required_laser_power([], 64, PARAMS)


# ------------------------------------------------------------ timing/energy


def test_serialization_examples():
    assert serialization_time(768_000, 64, 12e9) == pytest.approx(1e-6, rel=1e-15)
    assert serialization_time(0, 64, 12e9) == 0.0
    assert serialization_time(64, 64, 12e9) == pytest.approx(1 / 12e9, rel=1e-15)


def test_serialization_exact_inverse():
    rng = random.Random(5)
    for _ in range(200):
        bits = rng.randrange(0, 1 << 40)
        lanes = rng.randint(1, 128)
        rate = rng.choice((1e9, 12e9, 25e9))
        t = serialization_time(bits, lanes, rate)
        assert t * (lanes * rate) == pytest.approx(bits, rel=1e-15, abs=0.0)


def test_mr_tuning_power_examples():
    assert mr_tuning_power(0, PARAMS) == 0.0
    assert mr_tuning_power(64, PARAMS) == pytest.approx(0.032, rel=1e-12)
    assert mr_tuning_power(4096, PARAMS) == pytest.approx(2.048, rel=1e-12)


def test_device_params_validation():
    with pytest.raises(ValueError):
        DeviceParams(laser_efficiency=0.0).validate()
    with pytest.raises(ValueError):
        DeviceParams(coupler_loss_db=-1.0).validate()
    # NaN fails no ordering check, so every field is checked for finiteness
    for name in ("pcm_transition_s", "coupler_loss_db", "group_velocity_mm_per_s"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=name):
                DeviceParams(**{name: bad}).validate()
    DeviceParams().validate()
