"""Fixtures shared by the test modules."""

import pytest

from atomspa.sched import ScheduleError, Timing, build_schedules


@pytest.fixture(scope="session")
def timing_grid():
    """(timing, result) for every config of mul_plan x overlap x
    mult_wb_lag 0..19, in that nesting order: result is the (d, a)
    schedules, or the ScheduleError of an unschedulable config."""
    grid = []
    for plan in ("karatsuba4", "classical"):
        for overlap in (True, False):
            for lag in range(20):
                t = Timing(mul_plan=plan, overlap=overlap, mult_wb_lag=lag)
                try:
                    grid.append((t, build_schedules(t)))
                except ScheduleError as e:
                    grid.append((t, e))
    return tuple(grid)


@pytest.fixture(scope="session")
def schedulable_grid(timing_grid):
    """(timing, d, a) of the 56 schedulable configs of timing_grid."""
    grid = tuple((t, *scheds) for t, scheds in timing_grid
                 if not isinstance(scheds, ScheduleError))
    assert len(grid) == 56
    return grid
