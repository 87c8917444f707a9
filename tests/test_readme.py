import re
from pathlib import Path

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
