import json

import numpy as np
import pytest

from classrank import data, load_scenarios, run_scenario


@pytest.fixture(scope="session")
def scenario_bundle():
    return load_scenarios(data.scenario_fixture_path())


@pytest.fixture(scope="session")
def scenario_matrices():
    """Raw 0/1 competence matrix of each fixture scenario, by id, as stored."""
    document = json.loads(data.scenario_fixture_path().read_text(encoding="utf-8"))
    return {
        entry["id"]: np.array(entry["competence"]) for entry in document["scenarios"]
    }


@pytest.fixture(scope="session")
def scenario_results(scenario_bundle):
    return [run_scenario(scenario) for scenario in scenario_bundle]


@pytest.fixture(scope="session")
def scenario_by_id(scenario_bundle):
    return {scenario.id: scenario for scenario in scenario_bundle}


@pytest.fixture(scope="session")
def result_by_id(scenario_results):
    return {result.id: result for result in scenario_results}
