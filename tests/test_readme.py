"""The README's library quickstart runs as written on the bundled network."""

import re
from importlib.resources import files
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quickstart_runs(tmp_path, monkeypatch, capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    (tmp_path / "net.edges").write_text(files("cascade_recon").joinpath("data/hub30.edges").read_text())
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {})
    converged, error = capsys.readouterr().out.splitlines()[-2:]
    assert converged.endswith("] True")
    assert 0.0 < float(error) < 0.2
