"""Tests of the repo benchmark itself.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json

import pytest

import run
from shapes import SHAPES, Shape, Workload, digests, pass_seed, score


def _tiny(name: str) -> Shape:
    """The named shape with a few hundred records per cell."""
    return dataclasses.replace(SHAPES[name], warmup=50, measure=150)


def test_score_counts_a_perturbed_or_lost_cell_as_not_ok():
    observed = {7: {"a|x": "d1", "b|x": "d2"}}
    reference = {"7": {"a|x": "d1", "b|x": "d2"}}
    assert score(observed, reference, ["a|x", "b|x"]) == (2, 2, [])
    perturbed = {"7": {"a|x": "d1", "b|x": "0" * 24}}
    assert score(observed, perturbed, ["a|x", "b|x"]) == (2, 1, ["seed 7 b|x"])
    assert score({7: {"a|x": "d1"}}, reference, ["a|x", "b|x"])[1] == 1


def test_committed_digests_cover_the_default_seed_of_every_workload():
    committed = json.loads(run.DIGESTS.read_text())
    for name, shape in SHAPES.items():
        first = committed[name][str(pass_seed(run.DEFAULT_SEED, 0))]
        assert sorted(first) == sorted(shape.cells())


def test_a_perturbed_reference_digest_fails_the_command(tmp_path, monkeypatch, capsys):
    committed = json.loads(run.DIGESTS.read_text())
    seed = str(pass_seed(run.DEFAULT_SEED, 0))
    cell = SHAPES["multi-ppf"].cells()[0]
    committed["multi-ppf"][seed][cell] = "0" * 24
    perturbed = tmp_path / "digests.json"
    perturbed.write_text(json.dumps(committed))
    monkeypatch.setattr(run, "DIGESTS", perturbed)
    assert run.main(["--workload", "multi-ppf", "--seconds", "1"]) == 1
    out, err = capsys.readouterr()
    final = json.loads(out.strip().splitlines()[-1])
    assert final["correct"] is False
    assert final["failed"] == 1
    assert final["metrics"]["ok_frac"]["value"] < 1.0
    assert f"seed {seed} {cell}" in err


@pytest.mark.parametrize("name", list(SHAPES))
def test_tracing_partitions_the_pass_and_leaves_results_unchanged(name):
    from spans import LAYERS, Tracer
    from repro.workloads.synthetic import TraceStream

    workload = Workload(_tiny(name))
    plain = digests(workload.run_pass(5, jobs=1))
    originals = dict(vars(TraceStream))
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_pass("pass 0")
        traced = workload.run_pass(5, jobs=1)
        wall = tracer.end_pass()
    finally:
        tracer.uninstall()
    assert dict(vars(TraceStream)) == originals
    assert digests(traced) == plain
    totals = tracer.layer_totals()
    assert set(totals) == set(LAYERS)
    claimed = sum(layer["self_s"] for layer in totals.values())
    assert 0.0 < claimed <= wall
    assert totals["engine"]["calls"] > 0
    kinds = {span["kind"] for span in tracer.spans}
    assert {"pass", "cell", "phase", "advance"} <= kinds
    for span in tracer.spans:
        if span["kind"] in ("phase", "advance"):
            assert span["cell"] is not None and span["parent"] is not None
    bypassed = ("memory", "prefetchers", "zoo")
    if name == "sweep-zoo":
        assert all(totals[layer]["calls"] > 0 for layer in bypassed)
    else:
        assert totals["memory"]["calls"] and not totals["zoo"]["calls"]
        assert not totals["prefetchers"]["calls"]
        assert tracer.calls("MemoryHierarchy.access") == 0
