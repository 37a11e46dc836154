"""numpy loads on the first array operation, not when entnorm is imported.

Each check runs the command line in a fresh isolated interpreter (-I), so
modules loaded by this test process cannot hide an eager import.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import entnorm
from entnorm.cli import main

SRC = str(Path(entnorm.__file__).resolve().parents[1])

_FRESH = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import entnorm.cli
import entnorm
imported = sorted(set(sys.modules) - before)
modules = [hasattr(entnorm, m) for m in ("cli", "curves", "bounds", "measures", "oracle", "simplex")]
runs = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = entnorm.cli.main(argv)
    runs.append([code, out.getvalue(), "numpy" in sys.modules])
print(json.dumps({"imported": imported, "modules": modules, "runs": runs}))
"""


def fresh(argvs):
    """Run cli.main on each argv in order in one new -I interpreter: what it imported, and each run."""
    proc = subprocess.run([sys.executable, "-I", "-c", _FRESH, SRC, json.dumps(argvs)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_loads_only_entnorm_and_the_standard_library():
    got = fresh([])
    foreign = [m for m in got["imported"] if m.partition(".")[0] not in sys.stdlib_module_names | {"entnorm"}]
    assert foreign == []
    assert "entnorm.cli" in got["imported"] and all(got["modules"])


SCALAR = [
    ["eval", "--n", "8", "--alpha", "2", "--h", "1"],
    ["eval", "--n", "8", "--alpha", "0.5", "--N", "4.0", "--bits"],
    ["eval", "--n", "9", "--alpha", "0.5", "--i", "1.0"],
    ["eval", "--n", "5", "--rho", "1", "--i", "1.2"],
    ["eval", "--n", "3", "--alpha", "1e-6", "--h", "0"],
    ["tangent", "--n", "8", "--alpha", "2"],
    ["tangent", "--n", "2", "--alpha", "0.3"],
    ["tangent", "--n", "3", "--alpha", "1e10"],  # exit 1
]


def test_scalar_commands_leave_numpy_unloaded(capsys):
    runs = fresh(SCALAR)["runs"]
    assert [loaded for _, _, loaded in runs] == [False] * len(SCALAR)
    for argv, (code, out, _) in zip(SCALAR, runs):
        assert (code, out) == (main(argv), capsys.readouterr().out), argv


@pytest.fixture
def array_argvs(tmp_path):
    joint = tmp_path / "joint.json"
    joint.write_text(json.dumps({"py": [0.5, 0.5], "rows": [[0.7, 0.2, 0.1], [0.3, 0.3, 0.4]]}))
    channel = tmp_path / "bsc.json"
    channel.write_text(json.dumps({"transitions": [[0.9, 0.1], [0.1, 0.9]]}))
    return [
        ["curve", "--n", "8", "--alpha", "2", "--grid", "16"],
        ["curve", "--n", "5", "--alpha", "0.3", "--grid", "9", "--format", "json"],
        ["verify", "--n", "8", "--alpha", "2", "--samples", "3000", "--seed", "7"],
        ["measures", "--alpha", "2", "--input", str(joint)],
        ["channel", "--rho", "1", "--input", str(channel)],
    ]


@pytest.mark.parametrize("which", range(5))
def test_array_commands_load_numpy_and_print_as_in_process(capsys, array_argvs, which):
    argv = array_argvs[which]
    [(code, out, loaded)] = fresh([argv])["runs"]
    assert loaded and (code, out) == (main(argv), capsys.readouterr().out)
