"""The pingpong CLI report, pinned byte for byte.

``tests/data/reports/pingpong.json`` is the stdout of

    PYTHONPATH=src python -m subfactor.cli pingpong --rank 3 --f b,ab,c \
        --g a,c,bc --m-emp 1 --d-emp 1 > tests/data/reports/pingpong.json

The command exits 3: the pair <a, b>, <b, c> does not fill (both factors
have corank 1, so the fill check decides it exactly, lists its one witness
and has no bound), and the invariant-factor search is then no evidence of
irreducibility.  All 72 candidate orbits stop at the size cap, which makes
the report sensitive to any change in where the cap fires.
"""

from pathlib import Path

from subfactor import complex_cn, projection
from subfactor.cli import main
from subfactor.stallings import clear_reduction_cache

REPORT = Path(__file__).parent / "data" / "reports" / "pingpong.json"
ARGV = ["pingpong", "--rank", "3", "--f", "b,ab,c", "--g", "a,c,bc",
        "--m-emp", "1", "--d-emp", "1"]


def test_pingpong_report_is_unchanged(capsys):
    clear_reduction_cache()
    complex_cn._edge_cache.clear()
    projection._dist_to_infinity.cache_clear()
    assert main(ARGV) == 3
    assert capsys.readouterr().out == REPORT.read_text()
