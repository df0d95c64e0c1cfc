"""Byte-for-byte checks of the CLI's output against stored copies.

The files under `tests/golden/` hold the exact stdout of the commands
below.  An engine change that is meant to leave every answer as it was
must leave these bytes as they are; a change that alters an answer on
purpose regenerates the files from the repository root with

    PYTHONPATH=src python3 -m reflextor paper-suite --json > tests/golden/paper_suite.json
    PYTHONPATH=src python3 -m reflextor run scripts/sessions/hypersurface_xy.json --json > tests/golden/hypersurface_xy.json
    PYTHONPATH=src python3 -m reflextor run scripts/sessions/hypersurface_xy_gf32003.json --json > tests/golden/hypersurface_xy_gf32003.json
    PYTHONPATH=src python3 -m reflextor paper-suite > tests/golden/paper_suite.txt
    PYTHONPATH=src python3 -m reflextor run scripts/sessions/hypersurface_xy.json > tests/golden/hypersurface_xy.txt
    PYTHONPATH=src python3 -m reflextor run scripts/sessions/hypersurface_xy_gf32003.json > tests/golden/hypersurface_xy_gf32003.txt
    PYTHONPATH=src python3 -m reflextor run scripts/sessions/every_task.json --json > tests/golden/every_task.json
    PYTHONPATH=src python3 -m reflextor run scripts/sessions/every_task.json > tests/golden/every_task.txt
    PYTHONPATH=src python3 -m reflextor ext --session scripts/sessions/hypersurface_xy.json M N --from 0 --to 3 --json > tests/golden/ext_M_N.json
    PYTHONPATH=src python3 -m reflextor ext --session scripts/sessions/hypersurface_xy.json N M --from 0 --to 3 --json > tests/golden/ext_N_M.json
    PYTHONPATH=src python3 scripts/open_question_search.py > tests/golden/open_question_search.txt
    PYTHONPATH=src python3 scripts/open_question_search.py --vars x y z w > tests/golden/open_question_search_xyzw.txt

and says why in the change's notes.  `hypersurface_xy_gf32003.json` is
the fixture session over GF(32003) instead of QQ, so both coefficient
fields are covered.  `every_task.json` runs each of the nine module
operations and each of the sixteen task kinds, all four pipelines among
them, over Q[x,y]/(xy).  The `.txt` copies are the same commands without
`--json`: the text renderings of the paper suite and of a session report.
"""

from pathlib import Path

import pytest

from cli_runner import run_cli, run_python

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize(
    "argv, name",
    [
        (("paper-suite", "--json"), "paper_suite.json"),
        (("run", "scripts/sessions/hypersurface_xy.json", "--json"),
         "hypersurface_xy.json"),
        (("ext", "--session", "scripts/sessions/hypersurface_xy.json", "M", "N",
          "--from", "0", "--to", "3", "--json"), "ext_M_N.json"),
        (("ext", "--session", "scripts/sessions/hypersurface_xy.json", "N", "M",
          "--from", "0", "--to", "3", "--json"), "ext_N_M.json"),
        (("run", "scripts/sessions/hypersurface_xy_gf32003.json", "--json"),
         "hypersurface_xy_gf32003.json"),
        (("run", "scripts/sessions/every_task.json", "--json"), "every_task.json"),
    ],
)
def test_cli_json_matches_golden(argv, name):
    proc = run_cli(*argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / name).read_text()


@pytest.mark.parametrize(
    "argv, name",
    [
        (("paper-suite",), "paper_suite.txt"),
        (("run", "scripts/sessions/hypersurface_xy.json"), "hypersurface_xy.txt"),
        (("run", "scripts/sessions/hypersurface_xy_gf32003.json"),
         "hypersurface_xy_gf32003.txt"),
        (("run", "scripts/sessions/every_task.json"), "every_task.txt"),
    ],
)
def test_cli_text_matches_golden(argv, name):
    proc = run_cli(*argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / name).read_text()


@pytest.mark.parametrize(
    "argv, name",
    [
        ((), "open_question_search.txt"),
        (("--vars", "x", "y", "z", "w"), "open_question_search_xyzw.txt"),
    ],
)
def test_open_question_search_matches_golden(argv, name):
    proc = run_python("scripts/open_question_search.py", *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / name).read_text()
