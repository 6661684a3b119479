"""tools/identity.py: the parent-vs-change check, run with this checkout
on both sides, reports equal ops, forced ops, checkpoints and eval
reports and zero deltas."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_same_checkout_on_both_sides_reports_no_delta():
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "identity.py"),
         "--parent", ROOT, "--seeds", "1", "--beams", "10", "--pairs", "2"],
        capture_output=True, text=True, check=True, timeout=600)
    report = json.loads(result.stdout.strip().splitlines()[-1])
    assert report["ops_equal"] is True
    assert report["decodes"] == 2
    assert report["forced_ops_equal"] is True
    assert report["forced_decodes"] == 2
    assert report["score_delta"] == 0.0
    assert report["weight_delta"] == {"float32": 0.0, "float64": 0.0}
    assert report["loss_delta"] == {"float32": 0.0, "float64": 0.0}
    for dtype in ("float32", "float64"):
        grads = report["grad_delta"][dtype]
        assert "word_out_w" in grads and "hist_cell.w" in grads
        assert set(grads.values()) == {0.0}, dtype
    assert report["checkpoint_equal"] is True
    assert report["load_delta"] == 0.0
    assert report["train_weight_delta"] == 0.0
    assert report["eval_report_equal"] is True
