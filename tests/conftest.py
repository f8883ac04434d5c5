"""Shared fixtures; expensive studies are computed once per session."""

from __future__ import annotations

import dataclasses
import sys

import pytest
from hypothesis import HealthCheck, settings

from oversmooth import ExperimentConfig, ScaleOperator, run_rate_study

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(scope="session", autouse=True)
def no_process_left_running():
    """Fail the session if a pool worker outlives its pool (``multiprocessing`` is not imported for this)."""
    yield
    if "multiprocessing" in sys.modules:
        assert sys.modules["multiprocessing"].active_children() == []


@pytest.fixture(scope="session")
def op256() -> ScaleOperator:
    return ScaleOperator(256)


@pytest.fixture(scope="session")
def op64() -> ScaleOperator:
    return ScaleOperator(64)


@pytest.fixture(scope="session")
def study_hoelder_p1():
    return run_rate_study(ExperimentConfig(), timestamp="fixed")


@pytest.fixture(scope="session")
def study_hoelder_p05():
    return run_rate_study(ExperimentConfig(p=0.5), timestamp="fixed")


@pytest.fixture(scope="session")
def study_low_order():
    return run_rate_study(ExperimentConfig(regime="low_order"), timestamp="fixed")


@pytest.fixture(scope="session")
def study_none():
    return run_rate_study(ExperimentConfig(regime="none"), timestamp="fixed")


@pytest.fixture(scope="session")
def study_hoelder_p1_n128():
    return run_rate_study(dataclasses.replace(ExperimentConfig(), grid_n=128), timestamp="fixed")


@pytest.fixture(scope="session")
def study_hoelder_p05_n128():
    return run_rate_study(dataclasses.replace(ExperimentConfig(p=0.5), grid_n=128), timestamp="fixed")
