"""The fault-injection harness itself: plans fire once and helpers are
byte-deterministic."""

import os
from types import SimpleNamespace

import numpy as np
import pytest

from repro import faults


def _params(count=2):
    return [SimpleNamespace(grad=np.ones(3)) for _ in range(count)]


class TestFaultPlan:
    def test_grad_nan_fires_once_at_threshold(self):
        plan = faults.FaultPlan(grad_nan_at_step=3)
        assert [plan.take_grad_nan() for _ in range(6)] == [
            False, False, True, False, False, False,
        ]
        assert plan.fired == {"grad_nan": 1, "checkpoint_kill": 0, "swap_crash": 0}

    def test_grad_nan_times_bounds_refiring(self):
        plan = faults.FaultPlan(grad_nan_at_step=1, grad_nan_times=2)
        assert [plan.take_grad_nan() for _ in range(4)] == [True, True, False, False]
        assert plan.fired["grad_nan"] == 2

    def test_checkpoint_kill_counter(self):
        plan = faults.FaultPlan(kill_checkpoint_write_at=2)
        assert [plan.take_checkpoint_kill() for _ in range(4)] == [
            False, True, False, False,
        ]
        assert plan.fired["checkpoint_kill"] == 1

    def test_unconfigured_faults_never_fire(self):
        plan = faults.FaultPlan()
        assert not any(plan.take_grad_nan() for _ in range(5))
        assert not any(plan.take_checkpoint_kill() for _ in range(5))


class TestGlobalPlan:
    def test_active_installs_and_restores(self):
        outer = faults.FaultPlan(grad_nan_at_step=1)
        inner = faults.FaultPlan(grad_nan_at_step=2)
        assert faults.current() is None
        with faults.active(outer):
            assert faults.current() is outer
            with faults.active(inner):
                assert faults.current() is inner
            assert faults.current() is outer
        assert faults.current() is None

    def test_poison_gradients_nan_into_first_live_grad(self):
        params = _params()
        with faults.active(faults.FaultPlan(grad_nan_at_step=1)):
            assert faults.poison_gradients(iter(params))
        assert np.isnan(params[0].grad).all()
        assert np.isfinite(params[1].grad).all()

    def test_poison_gradients_noop_without_plan(self):
        params = _params()
        assert not faults.poison_gradients(iter(params))
        assert np.isfinite(params[0].grad).all()

    def test_kill_checkpoint_write_truncates_then_raises(self, tmp_path):
        target = tmp_path / "half.npz"
        target.write_bytes(b"x" * 100)
        with faults.active(faults.FaultPlan(kill_checkpoint_write_at=1)):
            with pytest.raises(faults.SimulatedCrash):
                faults.kill_checkpoint_write(str(target))
        assert target.stat().st_size == 50


class TestByteCorruption:
    def test_corrupt_file_is_deterministic(self, tmp_path):
        a = tmp_path / "a.bin"
        b = tmp_path / "b.bin"
        payload = bytes(range(256)) * 8
        a.write_bytes(payload)
        b.write_bytes(payload)
        assert faults.corrupt_file(str(a), seed=7) == faults.corrupt_file(str(b), seed=7)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != payload
        assert a.stat().st_size == len(payload)

    def test_corrupt_file_twice_round_trips(self, tmp_path):
        # XOR 0xFF at identical offsets is an involution.
        path = tmp_path / "c.bin"
        payload = os.urandom(512)
        path.write_bytes(payload)
        faults.corrupt_file(str(path), seed=3)
        faults.corrupt_file(str(path), seed=3)
        assert path.read_bytes() == payload

    def test_truncate_file(self, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(b"y" * 200)
        assert faults.truncate_file(str(path), keep_fraction=0.25) == 50
        assert path.stat().st_size == 50
        with pytest.raises(ValueError):
            faults.truncate_file(str(path), keep_fraction=1.0)
