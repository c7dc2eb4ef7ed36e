"""Replay the recorded command line slice: every byte printed and every exit code.

The recording is a fixed slice of the invocations of
``tests/cli_outputs.py``, written by its ``--slice`` mode (see the README
"Tests" paragraph).  A change that alters what the command line prints
regenerates the recording and names the invocations whose output changed.
"""

import json
import sys
import warnings
from pathlib import Path

import pytest

import cli_outputs
from semifix import cli

RECORDING = Path(__file__).resolve().parent / "data" / "cli_recording.jsonl"


def _show_on_stderr(message, category, filename, lineno, file=None, line=None):
    """What Python prints for a warning by default, where pytest would collect it."""
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


def test_recorded_cli_output_is_unchanged(tmp_path, monkeypatch):
    header, *recorded = (json.loads(line) for line in RECORDING.read_text("utf-8").splitlines())
    if header["python"] != "%d.%d" % sys.version_info[:2]:
        pytest.skip(f"recorded under Python {header['python']}, whose argparse texts may differ")
    for name, text in header["files"].items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(text.encode("utf-8"))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("SEMIFIX_BUDGET", raising=False)
    src = Path(cli.__file__).resolve().parent.parent
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = _show_on_stderr
        for n, want in enumerate(recorded, 2):
            got = cli_outputs.record(cli, want["argv"], src)
            for key in ("exit", "stdout", "stderr"):
                assert got[key] == want[key], (
                    f"line {n}, semifix {' '.join(want['argv'])}: {key} differs"
                )
    assert len(recorded) > 300
