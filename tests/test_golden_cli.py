"""Byte-for-byte output of ``classify``, ``poset`` and the expression parser.

``golden_cli.json`` holds argv lists with the exact stdout, stderr and exit
code printed for them: ``classify`` on nat, int and rational-grid with
``all``, finite and tail descriptors, the four ``poset`` operations, each
in text and JSON and also through ``--input`` (stored under ``input`` and
written to a file here), line-anchored JSON errors, and every error path
of the expression parser (unexpected character, expected a term, trailing
input, a missing ``)``, bad exponents, zero denominators, no default
generator, unknown names) next to whitespace and exponents that parse.
"""

import json
import pathlib

import pytest

from genseries.cli import main

GOLDEN = json.loads((pathlib.Path(__file__).parent / "golden_cli.json")
                    .read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", GOLDEN,
                         ids=[f"{i}-{c['argv'][0]}" for i, c in enumerate(GOLDEN)])
def test_cli_output_is_pinned(case, capsys, tmp_path):
    argv = list(case["argv"])
    if case["input"] is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(case["input"]), encoding="utf-8")
        argv += ["--input", str(path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (case["code"], case["stdout"],
                                                  case["stderr"])
