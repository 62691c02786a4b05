"""The README's examples match the package as it is."""
import re
import shlex
from pathlib import Path

import pytest

from secrelay import parse_config_text
from secrelay.cli import _build_parser
from secrelay.config import _KEYS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})


def test_config_example_parses_and_names_every_key():
    block = re.search(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"),
                      re.S).group(1)
    parse_config_text(block)
    # commented-out keys count: they document the other eavesdropper mode
    named = set(re.findall(r"^#?\s*(\w+)\s*=", block, re.M))
    assert named == set(_KEYS)


def readme_cli_commands():
    """Every `secrelay ...` line of the README's sh blocks, as an argv list."""
    text = README.read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["secrelay"]:
                commands.append(argv[1:])
    return commands


def test_cli_examples_parse():
    # parsed only, never run: a subcommand or flag the CLI no longer has fails
    commands = readme_cli_commands()
    assert commands
    parser = _build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: secrelay {shlex.join(argv)}")
