"""scipy is loaded only to draw a rotated synthetic pool.

The file path (import, load_pool, a run, the CLI on a file config) needs
numpy alone. Each check runs in a fresh interpreter, because this test
process has scipy loaded already.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from activeadapt.datapool import ShiftConfig, shift_transform

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "activeadapt"
PRELUDE = f"""
import sys
sys.path[:0] = [{str(ROOT / "src")!r}, {str(ROOT / "perfbench")!r}]
"""


def scipy_loaded_after(code: str) -> bool:
    """Run code in a fresh interpreter and say whether scipy got imported."""
    script = PRELUDE + code + "\nprint('scipy' in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return {"True": True, "False": False}[proc.stdout.split()[-1]]


def test_file_path_never_loads_scipy(tmp_path):
    cfg = {
        "data": {"file": str(tmp_path / "pool.csv")},
        "loop": {
            "budget": 6, "rounds": 2, "d_feat": 16, "pretrain_epochs": 5, "seed": 1,
            "train": {"epochs_per_round": 2, "batch_size": 16, "seed": 1},
        },
    }
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    code = f"""
from pathlib import Path
import workloads
import activeadapt
from activeadapt import cli

tmp = Path({str(tmp_path)!r})
workloads.write_dump(tmp / "pool.csv", workloads.draw_pool(3, 3, 4, 40, 60), 3)
pool = activeadapt.load_pool(tmp / "pool.csv")
train = activeadapt.TrainConfig(epochs_per_round=2, batch_size=16, seed=1)
loop = activeadapt.LoopConfig(budget=6, rounds=2, d_feat=16, pretrain_epochs=5,
                              train=train, seed=1)
reports = activeadapt.run_active_loop(loop, pool)
assert len(reports) == 2 and reports[0].gmm is not None
args = ["run", "--config", str(tmp / "config.json"), "--output", str(tmp / "out")]
assert cli.main(args) == 0
"""
    assert not scipy_loaded_after(code)
    assert (tmp_path / "out" / "round_002.json").exists()


@pytest.mark.parametrize("kind, magnitude, loads", [
    ("translation", 0.5, False),
    ("covariance_scale", 0.5, False),
    ("rotation", 0.0, False),
    ("mixed", 0.0, False),
    ("rotation", 0.5, True),
    ("mixed", 0.5, True),
])
def test_only_a_rotated_pool_loads_scipy(kind, magnitude, loads):
    code = f"""
from activeadapt import ShiftConfig, generate_shifted_dataset
generate_shifted_dataset(ShiftConfig(
    C=3, d_in=4, n_source=30, n_target=50, shift_kind={kind!r},
    shift_magnitude={magnitude!r}, seed=7))
"""
    assert scipy_loaded_after(code) is loads


@pytest.mark.parametrize("shape", [
    dict(C=5, d_in=8, n_source=500, n_target=2000, shift_kind="rotation"),  # desk
    dict(C=10, d_in=64, n_source=2000, n_target=20000, shift_kind="mixed"),  # wide
])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rotation_is_scipy_expm_of_the_scaled_skew_matrix(shape, seed):
    cfg = ShiftConfig(**shape, shift_magnitude=0.5, seed=seed)
    G = np.random.default_rng([seed, 0x5147]).standard_normal((cfg.d_in, cfg.d_in))
    skew = G - G.T
    expected = expm(0.5 * skew / np.linalg.norm(skew, 2))
    assert np.array_equal(shift_transform(cfg)[0], expected)


def module_level_imports(tree: ast.Module):
    """Import statements that run when the module is imported: everything
    outside function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_scipy_at_module_level(path):
    for node in module_level_imports(ast.parse(path.read_text(), filename=str(path))):
        names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
        assert not any(
            n and n.split(".")[0] == "scipy" for n in names
        ), f"{path.name}:{node.lineno} imports scipy at module level"
