"""``cli_calls.py``, the opt-in per-call timing script, on two passes."""

from __future__ import annotations

import os
import re
import sys

import pytest

CALLS = [(command, n) for n in (18, 20, 22, 30, 40) for command in ("bounds", "invariants")]


@pytest.fixture
def cli_calls(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", os.environ.get("OPENBLAS_NUM_THREADS", "1"))
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/ and bench/
    from tests import cli_calls

    return cli_calls


def test_a_cli_exact_pass_times_its_ten_calls(cli_calls, capsys):
    # the bench's ten calls in its order, each with a median and quartiles
    # over the passes after the first, and the pass total after them
    assert cli_calls.main(["--seed", "0", "--passes", "2"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("seed 0, 10 calls a pass, 2 passes, OPENBLAS_NUM_THREADS=")
    lines = re.findall(r"^  (bounds|invariants) n=(\d+) +median +([\d.]+) us +pass q1 +([\d.]+) q3 +([\d.]+) us$",
                       out, re.MULTILINE)
    assert [(command, int(n)) for command, n, *_ in lines] == CALLS
    assert all(0 < float(q1) <= float(median) <= float(q3) for *_, median, q1, q3 in lines)
    total = re.search(r"^  pass total +median +([\d.]+) us", out, re.MULTILINE)
    # one timed pass: the total is the sum of the calls, up to rounding
    assert total and float(total[1]) == pytest.approx(sum(float(median) for *_, median, _, _ in lines), abs=1.0)


def test_each_pass_starts_with_cold_caches(cli_calls, monkeypatch):
    package = cli_calls.import_package(cli_calls.ROOT / "src")
    kept = []  # the memo's records after each pass
    run_pass = cli_calls.run_pass

    def recorded(package, calls):
        times = run_pass(package, calls)
        kept.append(list(package.bounds._store.records.values()))
        return times

    monkeypatch.setattr(cli_calls, "run_pass", recorded)
    assert cli_calls.main(["--passes", "3"]) == 0
    # the memo is emptied before each pass, so each pass makes a record for
    # each of its five files anew
    assert [len(records) for records in kept] == [5, 5, 5]
    assert len({id(record) for records in kept for record in records}) == 15


def test_a_failing_call_stops_the_script(cli_calls, monkeypatch):
    package = cli_calls.import_package(cli_calls.ROOT / "src")
    monkeypatch.setattr(package.cli, "run_cli", lambda argv: 3)
    with pytest.raises(SystemExit, match=r"^bounds .*g18\.sg --json exited 3"):
        cli_calls.main(["--passes", "1"])


def test_src_names_the_package_directory(cli_calls, capsys, tmp_path):
    # the repo's own src/ is the package this process imported; any other
    # directory is refused, as one process cannot hold two copies
    src = cli_calls.ROOT / "src"
    assert cli_calls.main(["--seed", "1", "--passes", "2", "--src", str(src)]) == 0
    assert capsys.readouterr().out.splitlines()[0].endswith(f", src {src}")
    with pytest.raises(SystemExit, match="already imported from"):
        cli_calls.main(["--passes", "1", "--src", str(tmp_path)])
