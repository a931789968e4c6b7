import hashlib
import importlib.util
import pathlib

import numpy as np

from sympulse.experiments import RunSpec, integrate

_PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "trajectory_hashes.py"
_SPEC = importlib.util.spec_from_file_location("trajectory_hashes", _PATH)
trajectory_hashes = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(trajectory_hashes)


def test_digests_cover_every_array_of_a_short_run():
    record = integrate(RunSpec("kepler", "ep-gauss", 2, 2**-5, 0.25))
    digests = trajectory_hashes.digests(record)
    assert list(digests) == [
        "states", "alpha_trace", "energy_error", "L_err", "stage_iters", "g_evals"
    ]
    assert digests["states"] == hashlib.sha256(record.states.tobytes()).hexdigest()
    assert digests["g_evals"] == hashlib.sha256(record.g_evals.tobytes()).hexdigest()
    # a second run of the same spec is byte-identical
    assert trajectory_hashes.digests(integrate(record.spec)) == digests


def test_a_changed_last_bit_changes_the_digest():
    record = integrate(RunSpec("harmonic", "gauss", 2, 0.25, 1.0))
    before = trajectory_hashes.digests(record)["states"]
    record.states[-1, 0] = np.nextafter(record.states[-1, 0], np.inf)
    assert trajectory_hashes.digests(record)["states"] != before


def test_main_prints_one_line_per_array(capsys):
    trajectory_hashes.main(["kepler-gauss-partial"])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["kepler-gauss-partial", name]
        for name in ("states", "alpha_trace", "energy_error", "L_err", "stage_iters", "g_evals")
    ]
    assert all(len(line.split()[2]) == 64 for line in lines)


def test_main_takes_name_prefixes(capsys):
    trajectory_hashes.main(["harmonic", "pendulum"])
    runs = {line.split()[0] for line in capsys.readouterr().out.splitlines()}
    assert runs == {"harmonic-gauss-s2"}
