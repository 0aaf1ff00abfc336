"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.surrogate import PretrainedDTT
from repro.tokenizer import ByteTokenizer
from repro.types import ExamplePair

# Property tests that opt in with ``settings(settings.get_profile(
# "derandomized"))`` draw the same examples on every run and machine:
# a CI failure reproduces locally, and no run passes by luck of the
# seed.  No example database, so nothing replays a past failure first.
settings.register_profile(
    "derandomized", derandomize=True, database=None, deadline=None
)


@pytest.fixture(scope="session")
def tokenizer() -> ByteTokenizer:
    return ByteTokenizer()


@pytest.fixture(scope="session")
def pretrained_model() -> PretrainedDTT:
    """One shared induction-engine model (stateless across prompts)."""
    return PretrainedDTT(seed=0)


@pytest.fixture()
def pm_examples() -> list[ExamplePair]:
    """The paper's §2 running example: prime ministers to user ids."""
    return [
        ExamplePair("Justin Trudeau", "jtrudeau"),
        ExamplePair("Stephen Harper", "sharper"),
        ExamplePair("Paul Martin", "pmartin"),
    ]
