"""The demo scripts run end to end against the current API."""

import os
import pathlib
import py_compile
import subprocess
import sys

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"
SRC = DEMOS.parent / "src"


@pytest.mark.parametrize(
    "name",
    [
        "01_tableau_anatomy",
        "02_single_step_tuning",
        "03_kepler_long_run",
        "05_defect_level_map",
        "06_henon_heiles",
    ],
)
def test_demo_runs(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # 03 and 05 write their CSVs (and PNGs) to the working directory
    proc = subprocess.run(
        [sys.executable, str(DEMOS / f"{name}.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_convergence_demo_compiles(tmp_path):
    # the full convergence study takes about 40 s; only check that it compiles
    py_compile.compile(
        str(DEMOS / "04_convergence_study.py"), cfile=str(tmp_path / "demo.pyc"), doraise=True
    )


def test_readme_quickstart_runs(tmp_path):
    readme = (DEMOS.parent / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", block],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 3
