"""Every golden run's CSV and manifest are byte-identical to the recorded ones."""

import json

import pytest

from golden_outputs import GOLDEN, RUNS, changes, machine_mismatch, run_all

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


def test_a_changed_output_is_named_with_both_digest_prefixes():
    golden = {"runs": {"a": {"csv": "1" * 64, "manifest": "2" * 64}}, "demos": {"d": "3" * 64}}
    fresh = {"a": {"csv": "1" * 64, "manifest": "4" * 64}, "new": {"csv": "5" * 64}}
    assert changes(golden, {"a": golden["runs"]["a"]}, golden["demos"]) == []
    assert changes(golden, fresh, {"d": "6" * 64}) == [
        f"changed: a manifest: recorded {'2' * 16}, fresh {'4' * 16}",
        f"changed: new csv: recorded none, fresh {'5' * 16}",
        f"changed: demo d: recorded {'3' * 16}, fresh {'6' * 16}",
    ]


def test_another_machine_exits_2_before_running_anything(monkeypatch, capsys):
    import golden_outputs

    monkeypatch.setattr(golden_outputs, "machine",
                        lambda: {"numpy": "0.0", "cpu_features": {}})
    monkeypatch.setattr(golden_outputs, "run_all", lambda: pytest.fail("a run started"))
    monkeypatch.setattr(golden_outputs, "run_demo", lambda demo: pytest.fail("a demo started"))
    assert golden_outputs.main([]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"golden digests were recorded under another numpy: "
                   f"{RECORDED['numpy']!r}, here '0.0'\n")
