"""The README's examples run: the library example, and every CLI command of its
sh blocks (plus the config-file example) exits 0.  Its options table lists
every config key with its flag."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from scatterchain import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def fenced_blocks(language):
    """Bodies of the README's fenced code blocks tagged with language ("" untagged)."""
    blocks, body, tag = [], None, None
    for line in README.splitlines(keepends=True):
        if not line.startswith("```"):
            if body is not None:
                body.append(line)
        elif body is None:
            body, tag = [], line[3:].strip()
        else:
            if tag == language:
                blocks.append("".join(body))
            body = None
    return blocks


def cli_commands():
    """Each `scatterchain ...` command of the sh blocks, continuation lines joined."""
    commands = []
    for block in fenced_blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line)
            if words and words[0] == "scatterchain":
                commands.append(words[1:])
    return commands


def with_out(argv, path):
    """argv writing to path, replacing any --out the README gives."""
    if "--out" in argv:
        i = argv.index("--out")
        argv = argv[:i] + argv[i + 2:]
    return [*argv, "--out", str(path)]


def test_library_example_runs():
    (example,) = fenced_blocks("python")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(example, "README.md", "exec"), {})
    lines = printed.getvalue().splitlines()
    assert len(lines) == 3
    assert lines[1] == "BandClass.GAP"


def test_readme_lists_every_subcommand():
    assert sorted({argv[0] for argv in cli_commands()}) == sorted(cli._RUNNERS)


@pytest.mark.parametrize("argv", cli_commands(), ids=lambda argv: " ".join(argv[:3]))
def test_cli_command_runs(argv, tmp_path):
    out = tmp_path / "out.txt"
    assert cli.main(with_out(argv, out)) == 0
    assert out.read_text(encoding="utf-8").count("\n") > 1


def test_config_file_example_runs(tmp_path):
    (config,) = fenced_blocks("")
    launch = re.search(r"`scatterchain (\w+) --config run\.cfg`", README)
    (tmp_path / "run.cfg").write_text(config, encoding="utf-8")
    out = tmp_path / "out.csv"
    argv = [launch.group(1), "--config", str(tmp_path / "run.cfg")]
    assert cli.main(with_out(argv, out)) == 0
    assert out.read_text(encoding="utf-8").startswith("N,tau_t,T_t")


def test_options_table_lists_every_key():
    section = README.split("## Options\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| `")]
    listed = {key.strip(" `"): flag.strip(" `") for key, flag in rows}
    assert listed == {key: cli._flag_name(key) for key in cli._FIELDS}
