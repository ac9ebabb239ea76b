"""The README's examples run: each command of its CLI block exits 0, in
order, and its library example executes."""

import json
import re
import shlex
from pathlib import Path

import numpy as np

from gefdesign.cli import run
from gefdesign.digital import SignalBuffer, write_wav

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading, language):
    """The first fenced block in language under the README's ## heading."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_cli_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spec.json").write_text(json.dumps(
        {"row": "II.1", "beta_peak": 1, "n_cycles": 19.0986, "phi_accum": 3}))
    noise = np.random.default_rng(0).standard_normal(4800)  # 0.1 s
    write_wav(tmp_path / "in.wav", SignalBuffer(48000.0, noise))
    lines = _block("CLI", "sh").replace("\\\n", " ").splitlines()
    commands = [argv for argv in (shlex.split(line, comments=True) for line in lines) if argv]
    assert [argv[0] for argv in commands] == ["gefdesign"] * 9
    for argv in commands:
        assert run(argv[1:]) == 0, (argv, capsys.readouterr().err)
    # the sweep's cells that are not sharp warn, one JSON line each
    for line in capsys.readouterr().err.splitlines():
        assert list(json.loads(line)) == ["warning"]


def test_library_example_runs(capsys):
    namespace = {}
    exec(_block("Library example", "python"), namespace)
    assert namespace["theta"].b_u == 6.0
    assert len(namespace["filt"].sections) == 6
