"""Byte-for-byte stdout of window commands.

``golden_windows.json`` holds argv lists and the exact stdout printed for
them: ``series-eval``, ``dirichlet`` and ``puiseux`` in text and JSON, over
the int, rational, mod 7 and mat2 rings and the nat, trunc, posnat-mul,
words, int and rational-grid carriers.  The evaluator behind these
commands must reproduce them exactly, including the ``support`` field of
``puiseux`` payloads.  The ``dirichlet`` text rows print each value with
the ring's own rendering, as ``series-eval`` does (``4`` rather than
``{'mod': 7, 'val': 4}``).
"""

import json
import pathlib

import pytest

from genseries.cli import main

GOLDEN = json.loads((pathlib.Path(__file__).parent / "golden_windows.json")
                    .read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["argv"][:1] + c["argv"][-4:])
                                              for c in GOLDEN])
def test_window_command_stdout_is_pinned(case, capsys):
    code = main(list(case["argv"]))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out == case["stdout"]
