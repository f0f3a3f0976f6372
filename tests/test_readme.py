"""Every ``fracgrow ...`` line in the README's ``sh`` blocks runs through
``cli.main`` and exits 0, in a fresh directory holding a 12-month
``data.csv``.  A leading ``VAR=value`` sets that environment variable and
``#`` starts a comment."""

import pathlib
import re
import shlex

import pytest

from fracgrow.cli import main

from synthetic import self_consistent_series

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
ASSIGNMENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*=")


def readme_commands():
    """(environment, argv) of each ``fracgrow`` line in a ``sh`` block."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    commands = []
    for line in "".join(blocks).splitlines():
        words = shlex.split(line, comments=True)
        env = {}
        while words and ASSIGNMENT.match(words[0]):
            name, _, value = words.pop(0).partition("=")
            env[name] = value
        if words and words[0] == "fracgrow":
            commands.append((env, words[1:]))
    return commands


def test_readme_has_examples():
    assert len(readme_commands()) >= 10


@pytest.mark.parametrize(
    "env,argv", [pytest.param(env, argv, id=" ".join(argv)) for env, argv in readme_commands()]
)
def test_readme_example_exits_0(tmp_path, monkeypatch, capsys, env, argv):
    lengths = self_consistent_series(0.5322, 0.04305, 0.7, 12)
    (tmp_path / "data.csv").write_text(
        "month,length\n" + "".join(f"{m},{h!r}\n" for m, h in enumerate(lengths, start=1))
    )
    monkeypatch.chdir(tmp_path)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert main(argv) == 0, capsys.readouterr().err
