"""Replay of recorded CLI calls: argv, exit code, stdout and stderr.

The calls cover ``spectrum``, ``invariants``, ``bounds``, ``search`` and
``gen`` on small named and seeded instances, one 30-vertex graph past the
exact guards, one 2,100-vertex graph past the dense-matrix guard and the
kernel's sign table, a malformed file, a graph without vertices and a
missing path.  Seeded G(n, p) graphs on each side of every exact guard
(n = 20, 21, 25, 26, 40, 41) run ``bounds`` and ``invariants`` with
``SIGNED_SPECTRA_MAX_N`` unset and set to 22, and three calls that check no
guard run with it set to a value that is not an integer.  Each call runs in
process, in a directory that holds the input files recorded with the
transcript, with ``SIGNED_SPECTRA_MAX_N`` set as recorded and ``COLUMNS``
set to 80, so argparse wraps help and usage text the same way on any
terminal.  Help for the program and each command, usage errors (a
missing file or required option, an unknown option or command, a flag
given a value, a value that does not convert) and the forms argparse
accepts beyond the plain ``--opt value`` (an abbreviation, ``--opt=value``,
a value that starts with ``-``) pin every byte the parser writes.

A change that alters output on purpose re-records the transcript with

    python tests/test_cli_transcript.py --record [--src DIR]

and says which outputs changed and why.  New calls are recorded on a
checkout of the parent commit, so they pin the behaviour from before the
change that adds them: ``--src`` imports the package from DIR (the ``src/``
of that checkout) instead of this checkout's ``src/``, and runs this
file's calls on it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

if __name__ == "__main__":  # run as a script: import the package from --src DIR or this checkout
    _args = sys.argv[1:]
    if _args[:1] != ["--record"] or _args[1:] and (len(_args) != 3 or _args[1] != "--src"):
        sys.exit("usage: python tests/test_cli_transcript.py --record [--src DIR]")
    SRC = Path(_args[2] if _args[1:] else Path(__file__).resolve().parents[1] / "src").resolve()
    sys.path.insert(0, str(SRC))

import pytest  # noqa: E402

from signed_spectra import (  # noqa: E402
    SignedGraph,
    all_negative_complete,
    erdos_renyi_signed,
    paper_c5,
    signed_cycle,
)
from signed_spectra.cli import run_cli  # noqa: E402

TRANSCRIPT = Path(__file__).with_name("data") / "cli_transcript.json"

FILES = (
    "c5.sg", "c6_two_neg.sg", "k4_neg.sg", "k5_neg.sg", "er6.sg", "er7.sg",
    "er8.sg", "edgeless4.sg", "n30.sg", "edge2100.sg", "empty.sg", "malformed.sg",
    "absent.sg",
)

#: vertex counts on each side of the exact guards (25 for eps and eps_b, 20
#: for eps_r, 40 for the clique, and 22 under the override below)
GUARD_NS = (20, 21, 25, 26, 40, 41)


def _search(target: str, n: str, p: str, qneg: str, samples: int, seed: int, *extra: str) -> list[str]:
    return [
        "search", "--target", target, "--n", n, "--p", p, "--qneg", qneg,
        "--samples", str(samples), "--seed", str(seed), *extra,
    ]


#: (argv, SIGNED_SPECTRA_MAX_N or None for unset)
CALLS: list[tuple[list[str], str | None]] = [
    *((["spectrum", f], None) for f in FILES),
    *((["invariants", f], None) for f in FILES),
    *((["bounds", f, "--json"], None) for f in FILES),
    (["bounds", "c5.sg"], None),
    (["bounds", "er8.sg"], None),
    (["bounds", "er8.sg", "--r", "3", "--q", "2", "--json"], None),
    (["invariants", "c5.sg", "--force"], None),
    (["invariants", "er8.sg", "--force"], None),
    (["invariants", "empty.sg", "--force"], None),
    (["invariants", "edge2100.sg", "--force"], None),
    (["invariants", "c5.sg"], "4"),
    (["invariants", "c5.sg", "--force"], "4"),
    (["bounds", "c5.sg", "--json"], "4"),
    (_search("B8u", "3:7", "0.5", "0.5", 200, 1, "--json"), None),
    (_search("B8u", "4:5", "0.6", "0.5", 30, 2), None),
    (_search("B8", "3:8", "0.4", "0.5", 150, 2, "--triangle-free", "--json"), None),
    (_search("B8u", "3:8", "0.4", "0.5", 150, 2, "--triangle-free", "--json"), None),
    (_search("B9", "3:7", "0.5", "0.3", 100, 3, "--json"), None),
    (_search("B12", "2:7", "0.5", "0.5", 100, 4, "--json"), None),
    (_search("B14", "3:7", "0.5", "0.5", 100, 5, "--json"), None),
    (_search("B10", "3:6", "0.5", "0.5", 60, 6, "--r", "3", "--json"), None),
    (_search("B11", "3:6", "0.5", "0.5", 60, 7, "--r", "1", "--q", "3", "--json"), None),
    (_search("B8u", "a:b", "0.5", "0.5", 10, 0), None),
    (_search("B99", "3:5", "0.5", "0.5", 10, 0), None),
    (_search("B11", "3:5", "0.5", "0.5", 10, 0, "--r", "1"), None),
    (["gen", "paper_c5"], None),
    (["gen", "signed_cycle", "5", "0", "2"], None),
    (["gen", "all_negative_complete", "4"], None),
    (["gen", "erdos_renyi_signed", "6", "0.5", "0.5", "--seed", "3"], None),
    (["gen", "all_negative", "c5.sg"], None),
    (["gen", "signed_cycle", "2"], None),
    (["gen", "erdos_renyi_signed", "6"], None),
    (["gen", "no_such_kind"], None),
    *(
        (argv, max_n)
        for n in GUARD_NS
        for max_n in (None, "22")
        for argv in (["bounds", f"gnp{n}.sg", "--json"], ["invariants", f"gnp{n}.sg"])
    ),
    (["spectrum", "c5.sg"], "abc"),
    (["invariants", "c5.sg", "--force"], "abc"),
    (_search("B8u", "3:7", "0.5", "0.5", 100, 8, "--json"), "abc"),
    # help, usage errors and the forms argparse reads beyond ``--opt value``
    (["--help"], None),
    (["spectrum", "--help"], None),
    (["invariants", "--help"], None),
    (["bounds", "--help"], None),
    (["search", "--help"], None),
    (["gen", "--help"], None),
    ([], None),
    (["bogus"], None),
    (["bounds"], None),
    (["bounds", "c5.sg", "er6.sg"], None),
    (["bounds", "c5.sg", "--bogus"], None),
    (["bounds", "c5.sg", "--json=1"], None),
    (["bounds", "c5.sg", "--r"], None),
    (["bounds", "c5.sg", "--r", "x"], None),
    (["bounds", "c5.sg", "--js"], None),
    (["bounds", "c5.sg", "--r=3", "--json"], None),
    (["bounds", "--", "c5.sg"], None),
    (["bounds", "-h", "c5.sg"], None),
    (["invariants", "c5.sg", "--force", "--force"], None),
    (["search", "--target", "B8u"], None),
    (_search("B8u", "3:5", "0.5", "0.5", 10, 0, "--samples", "x"), None),
    (_search("B8u", "3:5", "0.5", "0.5", 10, 0, "--seed=3"), None),
    (_search("B8u", "3:5", "0.5", "0.5", 10, 0, "--seed", "-1"), None),
    (_search("B8u", "3:5", "0.5", "0.5", 10, 0, "--p", "-0.5"), None),
    (_search("B8u", "3:5", "0.5", "0.5", 10, 0, "--seed", "5", "--json", "--json"), None),
    (_search("B8u", "3:5", "0.5", "0.5", 10, 0, "extra"), None),
    (["gen", "paper_c5", "7", "junk"], None),
]


def _input_files() -> dict[str, str]:
    """The .sg texts the calls read, by file name (``absent.sg`` is left out)."""
    graphs = {
        "c5.sg": paper_c5(),
        "c6_two_neg.sg": signed_cycle(6, negative_edges=(0, 3)),
        "k4_neg.sg": all_negative_complete(4),
        "k5_neg.sg": all_negative_complete(5),
        "er6.sg": erdos_renyi_signed(6, 0.6, 0.5, seed=1),
        "er7.sg": erdos_renyi_signed(7, 0.5, 0.3, seed=2),
        "er8.sg": erdos_renyi_signed(8, 0.5, 0.5, seed=3),
        "edgeless4.sg": SignedGraph(4),
        "n30.sg": erdos_renyi_signed(30, 0.3, 0.5, seed=30),
        **{f"gnp{n}.sg": erdos_renyi_signed(n, 0.3, 0.5, seed=n) for n in GUARD_NS},
    }
    files = {name: g.to_sg() for name, g in graphs.items()}
    files["edge2100.sg"] = "2100\n0 1 +\n"
    files["empty.sg"] = "0\n"
    files["malformed.sg"] = "3\n0 1 +\n1 2 x\n"
    return files


def _run(argv: list[str], max_n: str | None, directory: Path) -> dict:
    """One in-process call in ``directory``; the environment and cwd are restored."""
    saved_cwd = os.getcwd()
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS="80"):
        os.environ.pop("SIGNED_SPECTRA_MAX_N", None)
        if max_n is not None:
            os.environ["SIGNED_SPECTRA_MAX_N"] = max_n
        try:
            os.chdir(directory)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run_cli(argv)
        finally:
            os.chdir(saved_cwd)
    return {"argv": argv, "max_n": max_n, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _write_files(files: dict[str, str], directory: Path) -> None:
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(TRANSCRIPT.read_text(encoding="utf-8"))


def test_transcript_holds_these_calls(recorded):
    assert [(c["argv"], c["max_n"]) for c in recorded["calls"]] == CALLS
    assert recorded["files"] == _input_files()


@pytest.mark.parametrize("index", range(len(CALLS)), ids=lambda i: " ".join(CALLS[i][0][:2]) + f"-{i}")
def test_call_matches_transcript(recorded, tmp_path, index):
    _write_files(recorded["files"], tmp_path)
    argv, max_n = CALLS[index]
    assert _run(argv, max_n, tmp_path) == recorded["calls"][index]


def record(directory: Path) -> None:
    files = _input_files()
    _write_files(files, directory)
    calls = [_run(argv, max_n, directory) for argv, max_n in CALLS]
    TRANSCRIPT.parent.mkdir(exist_ok=True)
    text = json.dumps({"files": files, "calls": calls}, indent=1, ensure_ascii=False)
    TRANSCRIPT.write_text(text + "\n", encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    import signed_spectra

    if not Path(signed_spectra.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"imported {signed_spectra.__file__}, not the package under {SRC}")
    with tempfile.TemporaryDirectory() as tmp:
        record(Path(tmp))
    print(f"wrote {TRANSCRIPT}")
