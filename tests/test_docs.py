"""The README's library example runs as documented."""

import dataclasses
import re
from pathlib import Path

from minproc.pipeline import EnhancementResult
from minproc.scene import SceneSignals

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_section():
    """README's "Library use" section, up to the next heading."""
    text = README.read_text(encoding="utf-8")
    return re.search(r"^## Library use\n(.*?)(?=^## |\Z)", text,
                     re.M | re.S).group(1)


def test_readme_library_example_runs(capsys):
    section = library_use_section()
    namespace = {}
    exec(re.search(r"```python\n(.*?)```", section, re.S).group(1),
         namespace)
    assert capsys.readouterr().out.strip()
    signals = namespace["signals"]
    assert isinstance(signals, SceneSignals)
    # the prose names every field the signals and a result have
    result = namespace["result"]
    assert isinstance(result, EnhancementResult)
    for cls in (SceneSignals, EnhancementResult):
        for f in dataclasses.fields(cls):
            assert f"`{f.name}`" in section, (cls.__name__, f.name)
