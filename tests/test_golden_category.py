"""Byte-for-byte output of ``category-check``.

``golden_category.json`` holds argv lists with the exact stdout, stderr and
exit code printed for them: the seeded sweep at ``--max-size 0..3`` x seeds
0, 7 and 123 x text and JSON (``--samples 25``), and user diagrams passed
through ``--input`` (stored under ``input`` and written to a file here),
including restricted families where ``is_morphism`` is false, numeric
labels, a six-point parallel pair, a seven-point single morphism and two
refused diagrams: a label off its carrier, and a 13-point codomain whose
cocones into one point are past the partial-function guard.  The checker's
search may change; what it reports may not.
"""

import json
import pathlib

import pytest

from genseries.cli import main

GOLDEN = json.loads((pathlib.Path(__file__).parent / "golden_category.json")
                    .read_text(encoding="utf-8"))


def case_id(index, case):
    argv = case["argv"]
    if case["input"] is None:
        return f"size{argv[2]}-seed{argv[4]}-{argv[-1]}"
    return f"input{index}-{argv[-1]}"


@pytest.mark.parametrize("case", GOLDEN, ids=[case_id(i, c) for i, c in enumerate(GOLDEN)])
def test_category_check_output_is_pinned(case, capsys, tmp_path):
    argv = list(case["argv"])
    if case["input"] is not None:
        path = tmp_path / "diagram.json"
        path.write_text(json.dumps(case["input"]), encoding="utf-8")
        argv += ["--input", str(path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (case["code"], case["stdout"],
                                                  case["stderr"])
