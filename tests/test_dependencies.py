"""The package's runtime dependencies: numpy only."""

import subprocess
import sys
from pathlib import Path

import pytest

import effortud

ROOT = Path(__file__).resolve().parents[1]


def test_import_loads_no_scipy():
    src = str(Path(effortud.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import effortud; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [d.split(">")[0].split("=")[0] for d in project["dependencies"]] == ["numpy"]
