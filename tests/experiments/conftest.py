"""The fidelity contract's shared results: each experiment runs once."""

import functools

import pytest

from repro.experiments import table4


@pytest.fixture(scope="session")
def smoke():
    """``smoke(module)`` is ``module.run("smoke", seed=0)``, computed once
    per session and shared by the claim rows and the digit pins."""

    @functools.cache
    def run(module):
        # Table IV without its SC-CRF / SDSDL comparators: the contract
        # reads the stacked-LSTM rows only.
        options = {"include_baselines": False} if module is table4 else {}
        return module.run("smoke", seed=0, **options)

    return run
