"""Every public name of the package is used by the command line, the README or a test."""

import re
from pathlib import Path

import bandrec

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve()


def test_every_exported_name_is_used():
    texts = [(ROOT / "src" / "bandrec" / "cli.py").read_text(), (ROOT / "README.md").read_text()]
    texts += [p.read_text() for p in (ROOT / "tests").glob("*.py") if p.resolve() != HERE]
    unused = [
        name
        for name in bandrec.__all__
        if not any(re.search(rf"\b{re.escape(name)}\b", text) for text in texts)
    ]
    assert unused == []
