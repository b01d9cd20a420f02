"""tools/report_digest.py: the digest that backs byte-identity claims."""

import hashlib
import importlib.util
import json
from pathlib import Path

from activeadapt import LoopConfig, ShiftConfig, TrainConfig, generate_shifted_dataset
from activeadapt.harness import RoundReport, run_active_loop

_PATH = Path(__file__).resolve().parent.parent / "tools" / "report_digest.py"
_spec = importlib.util.spec_from_file_location("report_digest", _PATH)
report_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_digest)


def _report(r, accuracy):
    return RoundReport(r, accuracy, {"CC": 3}, None, [7, 9], [0.25, 0.5], 0.5)


def test_digest_is_sha256_of_sorted_json_lines():
    runs = [[_report(1, 0.75), _report(2, 0.8)], [_report(1, 0.7)]]
    lines = [
        json.dumps(rep.to_dict(), sort_keys=True) + "\n" for reports in runs for rep in reports
    ]
    want = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert report_digest.digest(runs) == want


def test_digest_sees_order_and_last_bit():
    a, b = _report(1, 0.75), _report(2, 0.8)
    base = report_digest.digest([[a, b]])
    assert report_digest.digest([[b, a]]) != base
    assert report_digest.digest([[a, _report(2, 0.8000000000000002)]]) != base


def test_repeated_run_has_the_same_digest():
    shift = ShiftConfig(C=3, d_in=4, n_source=40, n_target=60, seed=7)
    cfg = LoopConfig(budget=6, rounds=2, d_feat=16, pretrain_epochs=3,
                     train=TrainConfig(epochs_per_round=2, batch_size=16, seed=1), seed=1)
    digests = {
        report_digest.digest([run_active_loop(cfg, generate_shifted_dataset(shift))])
        for _ in range(2)
    }
    assert len(digests) == 1
