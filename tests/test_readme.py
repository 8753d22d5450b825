"""The README's library example and CLI commands run as written."""

import re
import shlex
from pathlib import Path

import numpy as np

from isotn import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_library_example_runs():
    blocks = readme_blocks("python")
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})


def test_cli_commands_run(tmp_path, monkeypatch, capsys):
    # the block that runs isotn, with its `\` continuations joined
    block, = [b for b in readme_blocks("sh") if "\nisotn " in b]
    commands = [shlex.split(line, comments=True)
                for line in block.replace("\\\n", " ").splitlines() if line.startswith("isotn ")]
    assert [c[1] for c in commands] == ["vocab", "train", "sample", "eval", "mi", "dim", "inspect"]
    gen = np.random.Generator(np.random.Philox(8))
    alphabet = np.array(list("ab c"))
    monkeypatch.chdir(tmp_path)
    Path("corpus.txt").write_text("".join(gen.choice(alphabet, 2000)), encoding="utf-8")
    Path("heldout.txt").write_text("".join(gen.choice(alphabet, 400)), encoding="utf-8")
    for command in commands:
        assert cli.main(command[1:]) == 0, (command, capsys.readouterr().err)
