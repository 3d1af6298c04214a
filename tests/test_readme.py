"""README's CLI examples stay valid.

Every ``hvsparse`` line of README's ``sh`` blocks (backslash continuations
joined) must parse with the CLI's parser, and a ``run`` or ``compare`` line
must also resolve to an experiment spec, which loads README's ``exp.json``
example through the config loader.
"""
import re
import shlex
from pathlib import Path

from hvsparse.expcli import _load_config_spec, _resolve_spec, build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def _sh_blocks() -> list[str]:
    text = README.read_text(encoding="utf-8")
    return [block.replace("\\\n", " ") for block in re.findall(r"```sh\n(.*?)```", text, re.S)]


def test_readme_cli_lines_parse(tmp_path, monkeypatch):
    blocks = _sh_blocks()
    config = re.search(r"cat > exp\.json <<'EOF'\n(.*?)\nEOF", "\n".join(blocks), re.S)
    assert config, "README lost its exp.json example"
    (tmp_path / "exp.json").write_text(config.group(1), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert _load_config_spec("exp.json").preset == "custom"

    commands = [shlex.split(line)[1:] for block in blocks for line in block.splitlines()
                if line.startswith("hvsparse ")]
    assert ["rate", "--c", "2", "--d", "3", "--out", "rate_power.csv"] in commands
    assert len(commands) >= 10
    parser = build_parser()
    for argv in commands:
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            raise AssertionError(f"README line does not parse: hvsparse {shlex.join(argv)}")
        if args.command in ("run", "compare"):
            _resolve_spec(args)  # raises ParameterError for an unknown preset
