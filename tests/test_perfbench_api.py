"""The program API the performance benchmark (``perfbench/``) reads.

The benchmark runs outside this suite; these calls pin what it uses of the
program, so an API change fails here instead of in a benchmark run.
"""

from perfbench import common

from repro.nn import config


def test_engine_state_reads_dtype_mode_and_threads():
    state = common.engine_state()
    assert set(state) == {"dtype", "engine_mode", "num_threads"}
    assert state["engine_mode"] == config.engine_mode()
    assert state["num_threads"] in (1, 2)


def test_program_counters_read_plan_cache_and_degradations():
    counters = common.program_counters()
    assert set(counters) == {"plan_hits", "plan_misses", "degradations"}
    assert all(isinstance(value, float) for value in counters.values())


def test_grad_flag_is_readable():
    assert config.grad_enabled() is True
