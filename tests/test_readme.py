"""The README's CLI examples and scenario sample run as written."""

import re
import shlex
from pathlib import Path

import pytest

from doblab.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _fenced_blocks() -> list[str]:
    return re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(), re.M | re.S)


def _cli_examples() -> list[list[str]]:
    examples = []
    for block in _fenced_blocks():
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("doblab "):
                examples.append(shlex.split(line)[1:])
    return examples


def _scenario_sample() -> str:
    (block,) = [b for b in _fenced_blocks() if "\nreference = " in b]
    return block


def test_readme_shows_every_subcommand():
    assert {argv[0] for argv in _cli_examples()} == {
        "freq", "constraints", "tune", "bode-integral", "rootlocus", "simulate",
    }


@pytest.mark.parametrize("argv", _cli_examples(), ids=" ".join)
def test_readme_cli_example_runs(argv, tmp_path, monkeypatch, capsys):
    # the simulate example reads scenario.cfg, the README's scenario sample
    (tmp_path / "scenario.cfg").write_text(_scenario_sample())
    monkeypatch.chdir(tmp_path)
    rc = main(argv)
    out = capsys.readouterr()
    assert rc == 0, out.err
    assert out.err == ""
    assert out.out


def test_readme_names_the_freq_columns(capsys):
    (argv,) = [a for a in _cli_examples() if a[:4] == ["freq", "--domain", "z", "--loop"]]
    assert main(argv) == 0
    header = capsys.readouterr().out.splitlines()[0].split(",")
    assert f"`{', '.join(header)}`" in README.read_text()


def test_readme_scenario_sample_applies_its_load(tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(_scenario_sample())
    assert main(["simulate", "--scenario", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split(",")[5] == "tau_d"
    loads = [line.split(",")[5] for line in lines[1:]]
    # duration 1.5 s at ts 1e-4; the 0.5 N*m load engages at t = 0.5 s
    assert len(loads) == 15000
    assert set(loads[:5000]) == {"0"}
    assert set(loads[5000:]) == {"0.5"}
