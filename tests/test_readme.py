"""README's Python examples run as written, so that a keyword the library
no longer takes cannot linger in them."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block(section):
    """The first ```python block under the README heading ``## section``."""
    text = README.read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", body, re.S).group(1)


def test_readme_quick_start_and_library_use_run_in_order(tmp_path, monkeypatch):
    # Quick start writes the series that Library use reads
    monkeypatch.chdir(tmp_path)
    scopes = {}
    for section in ("Quick start", "Library use"):
        scopes[section] = {}
        exec(compile(_python_block(section), f"README.md: {section}", "exec"), scopes[section])
    library = scopes["Library use"]
    assert (library["tau"], library["m"]) == (26, 3)
    assert library["states"].shape == library["emb"].states.shape
