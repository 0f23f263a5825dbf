"""Smoke test of the repository benchmark on small inputs.

Every workload runs in both modes through ``run.main``; the test checks
the result line against BENCHMARK.json (every metric present, with its
unit, and finite) and that the layer probes explain at least 95% of the
wall time on ``wsi_stream``. Opt-in, about a minute:

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins BLAS threads before NumPy loads)

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEED = 7

#: smaller inputs, same code paths
SMALL = {
    "wsi_stream": {"RES": 2048, "SETUP_REPEATS": 1},
    "tile_api": {"SLIDE": 1024, "SETUP_REPEATS": 1, "PRIME_BATCHES": (1,),
                 "PRIME_LONG": ()},
}


def _result(workload: str, trace: int, capsys, monkeypatch) -> dict:
    sys.path.insert(0, str(HERE.parent / "src"))
    module = __import__(workload)
    for name, value in SMALL[workload].items():
        monkeypatch.setattr(module, name, value)
    code = run.main(["--workload", workload, "--seed", str(SEED),
                     "--seconds", "2", "--trace", str(trace)])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _check_metrics(result: dict, declared: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_end_to_end_metrics(workload, capsys, monkeypatch):
    result = _result(workload, 0, capsys, monkeypatch)
    _check_metrics(result, BENCH["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_per_layer_metrics(workload, capsys, monkeypatch):
    result = _result(workload, 1, capsys, monkeypatch)
    _check_metrics(result, BENCH["per_layer"])
    layers = {k: v["value"] for k, v in result["metrics"].items()}
    assert layers["trace.overhead"] > 0
    assert layers["pipeline.tokens_per_image"] > 0
    if workload == "wsi_stream":
        assert layers["trace.coverage"] >= 0.95
    stem = f"{workload}-seed{SEED}"
    trace = json.loads((HERE / "out" / f"{stem}.trace.json").read_text())
    assert trace["traceEvents"]
    assert (HERE / "out" / f"{stem}.layers.txt").is_file()
