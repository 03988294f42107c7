"""The README's CLI block runs as written: every command exits 0."""

import shlex
from pathlib import Path

from irslab.cli import _COMMANDS, main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[list[str]]:
    """The commands of the README's ```sh block of irslab commands, in order,
    with backslash continuations joined and comment lines dropped."""
    blocks = [b.split("```", 1)[0] for b in README.read_text().split("```sh\n")[1:]]
    (block,) = [b for b in blocks if "\nirslab " in f"\n{b}"]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.strip() and not line.lstrip().startswith("#")]


def test_the_readme_cli_block_runs(tmp_path, monkeypatch):
    commands = readme_commands()
    assert len(commands) == 16
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        with monkeypatch.context() as m:
            while "=" in argv[0]:
                name, value = argv.pop(0).split("=", 1)
                m.setenv(name, value)
            assert argv[0] == "irslab"
            assert main(argv[1:]) == 0, shlex.join(argv)


def test_the_readme_cli_block_shows_every_command():
    """A command added to the CLI's table is added to the README's block too."""
    table = {(group, name) if name else (group,) for group, name, _, _ in _COMMANDS}
    shown = set()
    for argv in readme_commands():
        path = argv[argv.index("irslab") + 1:][:2]
        shown.add(tuple(word for word in path if not word.startswith("-")))
    assert shown == table
