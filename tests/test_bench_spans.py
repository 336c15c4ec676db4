"""The benchmark's span boundaries stay on the paths its workloads take: for
each workload, a set-up and one round run in-process under
`perfbench/spans.Tracer`, every layer the workload names in `spans` records
calls, and every wrapped entry point is put back afterwards. A refactor that
stops calling a boundary (say `vcgen.eval_formula` or `prover.simplify`)
fails here, not only in `perfbench/run.py --trace 1`."""

import importlib
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads as W  # noqa: E402
from spans import BOUNDARIES, Tracer  # noqa: E402


def _boundaries():
    return [getattr(importlib.import_module(m), a) for m, a, _, _ in BOUNDARIES]


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_every_layer_of_a_workload_records_calls(name):
    originals = _boundaries()
    tracer = Tracer()
    w = W.WORKLOADS[name](ROOT, 5)
    with tracer:
        w.setup()
        failures = [w.check(item, w.run(item), Counter()) for item in w.round(0)]
    assert _boundaries() == originals
    assert failures == [None] * w.round_size
    assert w.spans
    assert [layer for layer in w.spans if tracer.spans[layer].calls == 0] == []
