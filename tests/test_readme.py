import re
import shlex
from pathlib import Path

from tncg.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    # the Library section's python block, as documented: it writes out/
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)
    scope: dict = {}
    exec(compile(blocks[0], str(README), "exec"), scope)
    assert capsys.readouterr().out == "12/7\n"
    assert scope["size"] == scope["spanner"].edge_count == 7
    assert (tmp_path / "out").is_dir()


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    # every tncg line of the CLI section, in order, from one directory
    block = next(b for b in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
                 if "tncg gen" in b)
    lines = [line for line in block.splitlines() if line.startswith("tncg ")]
    assert len(lines) == 14
    monkeypatch.chdir(tmp_path)
    # gen reduce-ne needs a candidate cover; set 3 alone covers
    (tmp_path / "inst.sc").write_text("2 3\n1\n2\n1 2\ncover: 1 2\n")
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, (line, capsys.readouterr().err)
