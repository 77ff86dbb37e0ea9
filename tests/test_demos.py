"""Each demo runs to completion with numpy's runtime warnings and deprecations as
errors, and prints exactly its golden output."""

import json

import pytest

from golden_outputs import DEMOS, GOLDEN, machine_mismatch, run_demo, stdout_digest

RECORDED = json.loads(GOLDEN.read_text())


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


def test_every_demo_is_recorded():
    assert sorted(RECORDED["demos"]) == [demo.stem for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_cleanly(demo):
    done = run_demo(demo)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    # checked here, so that no demo runs twice
    mismatch = machine_mismatch(RECORDED)
    if mismatch:
        pytest.skip(f"ran cleanly; {mismatch}")
    assert stdout_digest(done) == RECORDED["demos"][demo.stem], \
        f"{demo.stem}: rerun golden_outputs.py --update"
