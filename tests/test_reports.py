"""The CLI reports, pinned byte for byte.

Each file under ``tests/data/reports/`` is the stdout of one command at
the default configuration, as written by

    PYTHONPATH=src python -m subfactor.cli <argv> > tests/data/reports/<name>.json

The reports do not depend on ``PYTHONHASHSEED``.  A change that alters one
of them on purpose says why and rewrites its file.
"""

from pathlib import Path

import pytest

from subfactor import complex_cn, projection
from subfactor.cli import main
from subfactor.stallings import clear_reduction_cache

DATA = Path(__file__).parent / "data" / "reports"

REPORTS = {
    # the README examples
    "classify": ["classify", "--rank", "3", "--a", "a,b", "--b", "b,c"],
    "project": ["project", "--rank", "3", "--a", "a,b", "--b", "ab,c"],
    "distance": ["distance", "--rank", "3", "--a", "a,b", "--x", "ab,c",
                 "--y", "ba,cb"],
    "farey": ["farey", "--u", "a", "--v", "abb"],
    # a splitting whose complement lies in another conjugacy frame
    "classify-split-frame": ["classify", "--rank", "3", "--a", "c",
                             "--b", "BBcBac"],
    # an overlap that only peak reduction of the pair decides
    "classify-joint-minimal": ["classify", "--rank", "3", "--a", "ba",
                               "--b", "BaB"],
    # a rank-3 A, whose diameter interval comes from the pool search
    "project-rank4": ["project", "--rank", "4", "--a", "a,b,c",
                      "--b", "ab,d"],
}
for suite in ("trichotomy", "xset", "joint-embedding", "near-embedded",
              "equivariance", "diameter", "behrstock", "progress", "bgit"):
    REPORTS[f"verify-{suite}"] = ["verify", "--suite", suite]


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_is_unchanged(name, capsys):
    # a fresh process: no reduction cache file, no warm in-process caches
    clear_reduction_cache()
    complex_cn._edge_cache.clear()
    projection._dist_to_infinity.cache_clear()
    assert main(REPORTS[name]) == 0
    assert capsys.readouterr().out == (DATA / f"{name}.json").read_text()
