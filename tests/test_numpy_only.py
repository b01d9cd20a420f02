"""The engine runs on numpy alone.

scipy was once imported lazily to build the synthetic rotation; the rotation
is now made of numpy matrix products, and scipy is a test dependency only.
No package module imports anything but numpy and the standard library, and
the file path and the five demos leave scipy unloaded, each checked in a
fresh interpreter, because this test process has scipy loaded already.
scipy's expm stays the rotation's reference.
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
from blas_threads import last_words_by_thread_count

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "activeadapt"
PRELUDE = f"""
import sys
sys.path[:0] = [{str(ROOT / "src")!r}, {str(ROOT / "perfbench")!r}]
"""


def scipy_loaded_after(code: str, cwd=None) -> bool:
    """Run code in a fresh interpreter and say whether scipy got imported."""
    script = PRELUDE + code + "\nprint('scipy' in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          cwd=cwd)
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
pool = activeadapt.datapool.load_pool(tmp / "pool.csv")
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


def test_the_five_demos_never_load_scipy(tmp_path):
    """The demos draw rotated and mixed pools, run every strategy and the
    source-free bootstrap. They run in one interpreter, in a temporary
    working directory, since demo 02 writes demo_scores.csv."""
    demos = sorted(str(p) for p in (ROOT / "demos").glob("*.py"))
    assert len(demos) == 5
    code = f"""
import contextlib, io, runpy
with contextlib.redirect_stdout(io.StringIO()):
    for path in {demos!r}:
        runpy.run_path(path, run_name="__main__")
"""
    assert not scipy_loaded_after(code, cwd=tmp_path)
    assert (tmp_path / "demo_scores.csv").exists()


@pytest.mark.parametrize("shape", [
    dict(C=5, d_in=8, n_source=500, n_target=2000, shift_kind="rotation"),  # desk
    dict(C=10, d_in=64, n_source=2000, n_target=20000, shift_kind="mixed"),  # wide
])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rotation_is_scipy_expm_of_the_scaled_skew_matrix(shape, seed):
    """Within 1e-13 of scipy's expm and orthogonal within 1e-13 at every
    magnitude up to 50 (7 halvings), and exactly the identity at 0."""
    G = np.random.default_rng([seed, 0x5147]).standard_normal((shape["d_in"],) * 2)
    skew = G - G.T
    eye = np.eye(shape["d_in"])
    assert np.array_equal(shift_transform(ShiftConfig(**shape, shift_magnitude=0.0,
                                                      seed=seed))[0], eye)
    for m in (0.5, 3.0, 50.0):
        rotation = shift_transform(ShiftConfig(**shape, shift_magnitude=m, seed=seed))[0]
        assert np.abs(rotation - expm(m * skew / np.linalg.norm(skew, 2))).max() < 1e-13, m
        assert np.abs(rotation @ rotation.T - eye).max() < 1e-13, m


# Rotations at d_in 8 to 256, built in a fresh interpreter whose BLAS runs on
# the given number of threads (set before numpy is first imported); prints a
# hash of their bytes.
_THREADED_ROTATIONS = """
import hashlib
from activeadapt.datapool import ShiftConfig, shift_transform

h = hashlib.sha256()
for d_in in (8, 64, 128, 256):
    for m in (0.5, 3.0, 50.0):
        cfg = ShiftConfig(C=2, d_in=d_in, n_source=2, n_target=2, shift_magnitude=m, seed=d_in)
        h.update(shift_transform(cfg)[0].tobytes())
print(h.hexdigest())
"""


def test_rotation_does_not_depend_on_the_blas_thread_count():
    """The two interpreters run side by side; a hash does not depend on
    timing, only on how BLAS splits the products."""
    hashes = last_words_by_thread_count(
        PRELUDE + _THREADED_ROTATIONS, "one CPU: BLAS cannot split a product across threads")
    assert hashes[1] == hashes[2], hashes


def imported_modules(tree: ast.Module):
    """(line, top-level name) of every absolute import, at any depth;
    relative imports are the package's own."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, a.name.split(".")[0]) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_beyond_numpy_and_the_standard_library(path):
    """At any depth, a package module imports numpy, the standard library
    and its own modules, nothing more."""
    allowed = {"numpy", *sys.stdlib_module_names}
    for line, name in imported_modules(ast.parse(path.read_text(), filename=str(path))):
        assert name in allowed, f"{path.name}:{line} imports {name}"
