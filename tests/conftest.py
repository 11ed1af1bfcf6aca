"""Shared fixtures.

One modest simulation is built per test session and shared read-only by
every analysis test; unit tests construct their own small objects.
"""

from __future__ import annotations

import pytest

from repro import SimulationConfig, faults, run_simulation
from repro.analysis.label import LabeledDataset, RuleLabeler
from repro.util.rng import RandomSource


SIM_SCALE = 0.12
SIM_SEED = 7


@pytest.fixture(scope="session")
def sim():
    """A small but fully-featured simulation run."""
    return run_simulation(SimulationConfig(scale=SIM_SCALE, seed=SIM_SEED))


@pytest.fixture(scope="session")
def world(sim):
    return sim.world


@pytest.fixture(scope="session")
def dataset(sim):
    return sim.dataset


@pytest.fixture(scope="session")
def labeled(sim):
    """Rule-labeled dataset (fast; the EBRC path has its own tests)."""
    return LabeledDataset(sim.dataset, RuleLabeler())


@pytest.fixture(scope="session")
def clock(world):
    return world.clock


@pytest.fixture()
def rng():
    return RandomSource(1234, name="test")


@pytest.fixture()
def fail_hook():
    """``fail_hook("needle:kind")`` installs a fault of ``kind`` at the
    start of every slice whose key holds ``needle``; forked workers
    inherit the plan.  Cleared after the test."""

    def arm(value):
        needle, mode = value.rsplit(":", 1)
        faults.install_plan(faults.FaultPlan(
            [faults.FaultSpec(kind=mode, site="slice-start", match=needle)]
        ))

    yield arm
    faults.clear_plan()
