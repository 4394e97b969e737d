"""``sweep_paths.py``, the opt-in per-path timing script, on two passes."""

from __future__ import annotations

import os
import re
import sys

import pytest


def test_a_sweep_pass_splits_into_the_three_paths(monkeypatch, capsys):
    # the script reads each call's path from the memo itself, so a change to
    # the memo that breaks the script or moves the split fails here; the 13
    # graphs a pass that come back after other graphs find their records kept
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", os.environ.get("OPENBLAS_NUM_THREADS", "1"))
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/ and bench/
    from tests import sweep_paths

    assert sweep_paths.main(["--seed", "0", "--passes", "2"]) == 0
    lines = re.findall(r"^  (known class|new class|new underlying) +(\d+) a pass +median +([\d.]+) us"
                       r" +pass medians q1 +([\d.]+) q3 +([\d.]+) us$",
                       capsys.readouterr().out, re.MULTILINE)
    assert {path: int(count) for path, count, *_ in lines} == {"known class": 233, "new class": 16, "new underlying": 58}
    assert all(float(median) > 0 and 0 < float(q1) <= float(q3) for _, _, median, q1, q3 in lines)


def test_src_names_the_package_directory(monkeypatch, capsys, tmp_path):
    # the repo's own src/ is the package this process imported; any other
    # directory is refused, as one process cannot hold two copies
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", os.environ.get("OPENBLAS_NUM_THREADS", "1"))
    monkeypatch.setattr(sys, "path", list(sys.path))
    from tests import sweep_paths

    src = sweep_paths.ROOT / "src"
    assert sweep_paths.main(["--seed", "1", "--passes", "1", "--src", str(src)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].endswith(f", src {src}")
    assert re.search(r"^  known class +\d+ a pass", out, re.MULTILINE)
    with pytest.raises(SystemExit, match="already imported from"):
        sweep_paths.main(["--passes", "1", "--src", str(tmp_path)])
