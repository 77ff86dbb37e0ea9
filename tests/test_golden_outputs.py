"""Every golden run's CSV and manifest are byte-identical to the recorded ones."""

import json

import pytest

from golden_outputs import GOLDEN, RUNS, machine_mismatch, run_all

RECORDED = json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def digests():
    mismatch = machine_mismatch(RECORDED)
    if mismatch:
        pytest.skip(mismatch)
    return run_all()


def test_every_run_is_recorded():
    assert sorted(RECORDED["runs"]) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_match_the_golden_digests(digests, name):
    assert digests[name] == RECORDED["runs"][name], f"{name}: rerun golden_outputs.py --update"
