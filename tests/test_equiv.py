"""Smoke test of the bit-identity battery, tools/equiv.py."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "equiv.py"


def test_the_tiny_battery_gives_the_same_digests_in_two_processes(tmp_path):
    """Two fresh processes (so two string-hash seeds) digest the tiny
    `hybridkit halo` run and the inference outputs of its teacher and final
    hybrid identically, f32 and f64: each artifact it names is there, and
    none varies from run to run."""
    runs = []
    for i in range(2):
        out = tmp_path / f"run{i}.json"
        subprocess.run([sys.executable, str(TOOL), "--tiny", "--out", str(out)], check=True,
                       capture_output=True)
        runs.append(json.loads(out.read_text()))
    assert runs[0] == runs[1]
    for precision in ("f32", "f64"):
        names = {k.split("/")[-1] for k in runs[0] if k.startswith(f"halo/{precision}/")}
        assert names == {"teacher.ckpt", "stage1_layer0.ckpt", "stage1_layer1.ckpt",
                         "scores.tsv", "selection.json", "hybrid_init.ckpt",
                         "hybrid_stage2.ckpt", "final.ckpt"}
        inferred = {k.split("/", 2)[-1] for k in runs[0]
                    if k.startswith(f"tiny_infer/{precision}/")}
        assert inferred == {f"{model}/{output}" for model in ("teacher", "hybrid")
                            for output in ("prefill", "prefill_last", "greedy",
                                           "choice_logprobs")}
    assert all(len(v) == 64 for v in runs[0].values())
