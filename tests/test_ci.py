"""The CI workflow's grep gates fail when they should.

A ``run: |`` block runs under ``bash -e``, and bash's errexit ignores a
command negated with ``!``: only the block's last command decides the
step.  So every ``!`` line but the last must end in ``|| exit 1``, or a
gate that finds what it forbids passes anyway.
"""

from __future__ import annotations

import re
from pathlib import Path

CI = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "ci.yml"

_RUN_BLOCK = re.compile(r"^(\s*)(?:- )?run: \|\s*$")


def run_blocks(text: str) -> list[list[str]]:
    """The commands of every ``run: |`` block, one stripped line each."""
    blocks, lines = [], text.splitlines()
    for i, line in enumerate(lines):
        m = _RUN_BLOCK.match(line)
        if not m:
            continue
        indent, block = len(m.group(1)), []
        for body in lines[i + 1:]:
            if body.strip() and len(body) - len(body.lstrip()) <= indent:
                break
            if body.strip():
                block.append(body.strip())
        blocks.append(block)
    return blocks


def unguarded_negations(text: str) -> list[str]:
    """``!`` lines before a block's last command that lack ``|| exit 1``."""
    return [line for block in run_blocks(text) for line in block[:-1]
            if line.startswith("!") and not line.endswith("|| exit 1")]


def test_a_negated_gate_before_the_last_exits():
    probe = ("      - name: probe\n"
             "        run: |\n"
             "          ! grep -rn guarded src/ || exit 1\n"
             "          ! grep -rn unguarded src/\n"
             "          test -e src\n"
             "      - name: last line\n"
             "        run: |\n"
             "          ! grep -rn last src/\n"
             "      - run: echo one line\n")
    assert [b[0] for b in run_blocks(probe)] == [
        "! grep -rn guarded src/ || exit 1", "! grep -rn last src/"]
    assert unguarded_negations(probe) == ["! grep -rn unguarded src/"]


def test_every_negated_gate_before_the_last_exits():
    text = CI.read_text()
    assert run_blocks(text), "no run: | block found in ci.yml"
    bad = unguarded_negations(text)
    assert not bad, ("a ! line before a block's last command passes "
                     "whatever it finds; end it in || exit 1:\n  "
                     + "\n  ".join(bad))
