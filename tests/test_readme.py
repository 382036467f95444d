"""The README's Python quick start and example session run as written and
give what their comments state."""

import contextlib
import io
import re
from pathlib import Path

import pytest

from perigid.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(heading: str, fence: str) -> str:
    """The first ``fence`` code block after the line ``heading``."""
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n{heading}\n")
    start = text.index(f"```{fence}\n", start) + len(fence) + 4
    return text[start : text.index("```", start)]


def test_python_quick_start_prints_what_its_comments_state():
    """Each chunk of the quick start up to a ``# -> text`` line prints exactly
    that text; the last print's values match its comment to six places."""
    namespace = {}
    chunks = re.split(r"^# -> (.*)$", _block("## Python quick start", "python"), flags=re.M)
    for code, expected in zip(chunks[::2], chunks[1::2]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(code, namespace)
        assert out.getvalue() == expected + "\n"
    tail = chunks[-1]
    with contextlib.redirect_stdout(io.StringIO()):
        exec(tail, namespace)
    lam, volume = re.search(r"print\(report\.lam, report\.volume\)\s+# (.*)", tail)[1].split(", ")
    report = namespace["report"]
    assert report.lam == pytest.approx(float(lam.rstrip(".")), abs=1e-6)
    assert report.volume == pytest.approx(float(volume), abs=1e-6)


def session() -> list:
    """(argv, exit code, verdict or None) of each command of the README's
    example session, from its ``# exit N[, Verdict]`` comment."""
    calls = []
    for line in _block("Example session:", "sh").splitlines():
        if not line.startswith("perigid "):
            continue
        command, comment = line.split("#", 1)
        stated = re.fullmatch(r" exit (\d)(?:, (\w+)|: .*)?", comment)
        assert stated, f"no exit code stated on {line!r}"
        calls.append((command.split()[1:], int(stated[1]), stated[2]))
    return calls


def test_example_session_gives_the_stated_exit_codes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PERIGID_SEED", raising=False)
    calls = session()
    assert len(calls) == 6
    for argv, code, verdict in calls:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == code, argv
        if verdict is not None:
            assert f"verdict: {verdict}\n" in out.getvalue()
    assert (tmp_path / "hex.svg").read_text(encoding="utf-8").endswith("</svg>\n")
