import json
import re
import shlex
from pathlib import Path

import pytest

from subfactor import cli, projection
from subfactor.cli import load_cache, main, parse_args
from subfactor.projection import Classification, classify_pair
from subfactor.stallings import (
    _reduction_cache,
    clear_reduction_cache,
    factor_class,
    factor_from_strs,
    is_free_factor,
)
from subfactor.words import Automorphism, Word, word_to_str

PINGPONG_3 = ["pingpong", "--rank", "3", "--f", "b,ab,c", "--g", "a,c,bc"]


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_reduction_cache()
    yield
    clear_reduction_cache()


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_classify_disjoint(capsys):
    code, rep = run(capsys, "classify", "--rank", "3", "--a", "a,b",
                    "--b", "c")
    assert code == 0
    assert rep["verdict"] == "disjoint"


def test_classify_overlap(capsys):
    code, rep = run(capsys, "classify", "--rank", "3", "--a", "a,b",
                    "--b", "ab,c")
    assert code == 0
    assert rep["verdict"] == "overlap"


def test_project_and_distance(capsys):
    code, rep = run(capsys, "project", "--rank", "3", "--a", "a,b",
                    "--b", "ab,c")
    assert code == 0
    assert rep["members"]
    assert rep["diameter"]["upper"] >= rep["diameter"]["lower"]

    code, rep = run(capsys, "distance", "--rank", "3", "--a", "a,b",
                    "--x", "ab,c", "--y", "b,c")
    assert code == 0
    assert rep["lower"] <= rep["upper"]


def test_project_empty_is_inconclusive_exit(capsys):
    code, rep = run(capsys, "project", "--rank", "3", "--a", "a",
                    "--b", "a,b")
    assert code == 3
    assert rep["members"] == []


def test_farey(capsys):
    code, rep = run(capsys, "farey", "--u", "a", "--v", "abb")
    assert code == 0
    assert rep["distance"] == 2
    # 1/0 and 1/-1 are adjacent
    code, rep = run(capsys, "farey", "--u", "a", "--v", "aB")
    assert rep["distance"] == 1


def test_usage_errors(capsys):
    assert main(["classify", "--rank", "3", "--a", "", "--b", "c"]) == 2
    capsys.readouterr()
    # budgets are positive
    for argv in (["verify", "--suite", "xset", "--samples", "0"],
                 ["project", "--rank", "3", "--a", "a,b", "--b", "ab,c",
                  "--samples", "-1"],
                 PINGPONG_3 + ["--powers", "0"]):
        assert main(argv) == 2
        assert "must be positive" in capsys.readouterr().err
    assert main(["nonsense"]) == 2
    capsys.readouterr()
    # neither free-factor nor disjointness verdicts need a search budget,
    # so there are no such flags
    for flag, value in (("--plateau-depth", "2"),
                        ("--conjugator-length", "4")):
        assert main([flag, value, "farey", "--u", "a", "--v", "b"]) == 2
        capsys.readouterr()
    # domain errors: the mathematics rejects the input (1 means a failed
    # suite, so these exit 2 with one line on stderr, not a traceback)
    for argv, message in (
            (["farey", "--u", "aa", "--v", "b"],
             "<aa> is not a free factor of F_2"),
            (["farey", "--u", "a,b", "--v", "b"], "need a rank-1 factor"),
            (["pingpong", "--rank", "3", "--f", "b,ab,c", "--g", "a,c,bc",
              "--syllables", "1"], "need an alternating word"),
            (["project", "--rank", "3", "--a", "aa", "--b", "b"],
             "<aa> is not a free factor of F_3"),
            (["project", "--rank", "3", "--a", "a", "--b", "bab"],
             "need rank(A) >= 2")):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1


@pytest.mark.parametrize("argv, factor", [
    (["classify", "--rank", "3", "--a", "aa,b", "--b", "ab,c"], "<aa,b>"),
    (["project", "--rank", "3", "--a", "a,b", "--b", "abAB,c"],
     "<abAB,c>"),
    (["distance", "--rank", "3", "--a", "a,b", "--x", "ab,c", "--y", "bb,c"],
     "<bb,c>"),
    (["pingpong", "--rank", "3", "--f", "b,ab,c", "--g", "a,c,bc", "--b",
      "b,cc"], "<b,cc>"),
])
def test_commands_refuse_non_factors(capsys, argv, factor):
    # the trichotomy and pi_A(B) are defined for free factors only; <aa, b>
    # has the rank of a factor but is no factor, and once read "overlap"
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {factor} is not a free factor of "
                            f"F_3\n")


def test_farey_refuses_non_primitive_words(capsys):
    # a^2 b^3 has the coprime slope (2, 3), yet no basis of F_2 contains it
    assert main(["farey", "--u", "aabbb", "--v", "a"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: <aabbb> is not a free factor of F_2\n"


@pytest.mark.parametrize("argv", [
    ["classify", "--rank", "3", "--a", "a,b", "--b", "b,c", "--powers", "2"],
    ["classify", "--rank", "3", "--a", "a,b", "--b", "b,c", "--samples", "2"],
    ["farey", "--u", "a", "--v", "abb", "--seed", "1"],
    ["project", "--rank", "3", "--a", "a,b", "--b", "ab,c", "--powers", "2"],
    ["verify", "--suite", "xset", "--factor-size", "2"],
    # the ping-pong search draws nothing at random
    PINGPONG_3 + ["--seed", "1"],
    # budgets follow the command they belong to
    ["--samples", "5", "verify", "--suite", "xset"],
    ["--powers", "0", "classify", "--rank", "3", "--a", "a,b", "--b", "b,c"],
])
def test_commands_refuse_budgets_they_do_not_read(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err or (
        "invalid choice" in captured.err)


def test_help_lists_every_command(capsys):
    # only the named command's parser is built, so the top-level help
    # names the commands itself
    assert main(["-h"]) == 0
    out = capsys.readouterr().out
    assert all(f"\n  {name} " in out for name in cli.COMMANDS)
    assert main(["farey", "-h"]) == 0
    assert "--u U" in capsys.readouterr().out


def readme_commands():
    """The argument lists of the subfactor command lines in README.md's
    sh blocks."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```sh\n(.*?)```", text, re.S)
    return [shlex.split(line)[1:] for block in blocks
            for line in block.splitlines() if line.startswith("subfactor ")]


def test_readme_commands_parse():
    argvs = readme_commands()
    assert len(argvs) >= 7
    for argv in argvs:
        assert parse_args(argv).func is not None


@pytest.mark.parametrize("argv", [
    ["pingpong", "--rank", "2", "--f", "b,ab", "--g", "a,b", "--a", "a,b",
     "--b", "a,b"],
    PINGPONG_3 + ["--a", "a,b", "--b", "a,b,c"],
])
def test_pingpong_refuses_the_whole_group(capsys, argv):
    # F_n is invariant under every automorphism, so it is no factor to
    # play ping-pong with
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: need factors of rank < n (a free factor "
                            "of rank n is all of F_n)\n")


@pytest.mark.parametrize("constants", [
    ["--m-emp", "-5", "--d-emp", "-5"], ["--m-emp", "-1"], ["--d-emp", "-1"],
])
def test_pingpong_refuses_negative_constants(capsys, constants):
    # a negative M_emp or D_emp would lower the threshold the power N
    # must pass
    assert main(PINGPONG_3 + constants) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --m-emp and --d-emp must not be "
                            "negative\n")


def test_internal_failure_is_not_a_usage_error(capsys, monkeypatch):
    # a failed consistency check is a bug, not bad input: it leaves main
    # with its traceback instead of exiting 2
    monkeypatch.setattr(Automorphism, "is_identity", lambda self: False)
    with pytest.raises(RuntimeError, match="compose to the identity"):
        main(["project", "--rank", "3", "--a", "a,b", "--b", "ab,c"])
    assert capsys.readouterr().err == ""


def test_split_in_another_frame(capsys, monkeypatch):
    # the reduction witness of <c, B> spans a conjugate of it, not <c, B>
    # itself; a complement read off its images without moving it into the
    # frame of <c, B> fails the certificate check, and that failure is a
    # bug that leaves main
    argv = ["classify", "--rank", "3", "--a", "c", "--b", "BBcBac"]
    A, B = factor_from_strs(3, ["c"]), factor_from_strs(3, ["BBcBac"])
    res = classify_pair(A, B)
    assert (res.kind, res.detail) == ("disjoint", "splitting found")
    assert res.witness.verify(A, B)
    clear_reduction_cache()
    monkeypatch.setattr(projection, "class_frame",
                        lambda gens: (factor_class(gens), Word.identity(3)))
    with pytest.raises(RuntimeError, match="splitting witness fails"):
        main(argv)


def test_near_embedded_suite_lets_internal_failures_out(monkeypatch):
    # the suite's generators are nonempty reduced words, so a failure while
    # classifying them is a bug and fails the suite, not one skipped sample
    def broken(gens):
        raise RuntimeError("internal failure")

    monkeypatch.setattr(cli, "factor_class", broken)
    with pytest.raises(RuntimeError, match="internal failure"):
        main(["verify", "--suite", "near-embedded"])


def test_reports_deterministic(capsys):
    args = ["project", "--rank", "3", "--a", "a,b", "--b", "ab,c",
            "--seed", "5"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert json.loads(first)["members"]
    clear_reduction_cache()
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second


def test_cache_roundtrip(tmp_path, capsys):
    cache = str(tmp_path / "red.ndjson")
    args = ["--cache", cache, "project", "--rank", "3", "--a", "a,b",
            "--b", "ab,c"]
    code = main(args)
    cold = capsys.readouterr().out
    assert code == 0
    size = len(open(cache).read().splitlines())
    assert size > 0
    clear_reduction_cache()
    code = main(args)
    warm = capsys.readouterr().out
    assert code == 0
    assert warm == cold
    # no duplicate records appended on the warm run
    assert len(open(cache).read().splitlines()) == size


def test_cache_tolerates_truncation(tmp_path, capsys):
    cache = tmp_path / "red.ndjson"
    cache.write_text('{"broken": \n')
    code = main(["--cache", str(cache), "farey", "--u", "a", "--v", "b"])
    capsys.readouterr()
    assert code == 0


def test_cache_skips_malformed_records(tmp_path, capsys):
    records = [
        {"rank": 3},
        [3],
        {"rank": "3", "code": "x", "is_factor": False},
        {"rank": 3, "code": 7, "is_factor": False},
        {"rank": 3, "code": "x", "is_factor": "no"},
        {"rank": 3, "code": "x", "is_factor": False, "reason": 1},
        # positive records with the right reason and a missing, short or
        # unparsable witness
        {"rank": 3, "code": "x", "is_factor": True,
         "reason": "reduced to sub-rose"},
        {"rank": 3, "code": "x", "is_factor": True,
         "reason": "reduced to sub-rose", "witness": ["a", "b"]},
        {"rank": 3, "code": "x", "is_factor": True,
         "reason": "reduced to sub-rose", "witness": ["a", "b", "c?"]},
        # written under the old search budget
        {"rank": 3, "code": "x", "is_factor": False, "certified": False},
        # a reason the program never writes, or one that goes with the
        # other verdict
        {"rank": 3, "code": factor_from_strs(3, ["ab", "c"]).code,
         "is_factor": False, "reason": "poison"},
        {"rank": 3, "code": "x", "is_factor": False,
         "reason": "reduced to sub-rose"},
    ]
    cache = tmp_path / "red.ndjson"
    cache.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert load_cache(str(cache)) == set()
    code, rep = run(capsys, "--cache", str(cache), "classify", "--rank",
                    "3", "--a", "a,b", "--b", "c")
    assert code == 0
    assert rep["verdict"] == "disjoint"
    code, rep = run(capsys, "--cache", str(cache), "project", "--rank", "3",
                    "--a", "a,b", "--b", "ab,c")
    assert code == 0
    assert rep["members"]


def test_cache_reads_records_with_depth(tmp_path):
    F = factor_from_strs(3, ["ab", "c"])
    res = is_free_factor(F)
    old = {"rank": 3, "code": F.code, "depth": 2, "certified": True,
           "is_factor": True, "reason": res.reason,
           "witness": [word_to_str(x) for x in res.witness.images]}
    cache = tmp_path / "red.ndjson"
    cache.write_text(json.dumps(old, sort_keys=True) + "\n")
    clear_reduction_cache()
    assert load_cache(str(cache)) == {(3, F.code)}
    got = _reduction_cache[(3, F.code)]
    assert got.is_factor and got.certified
    assert got.witness.images == res.witness.images
    # records written now carry neither the depth nor the certified flag
    cli.append_cache(str(cache), set())
    new = json.loads(cache.read_text().splitlines()[-1])
    assert "depth" not in new and "certified" not in new
    assert new["code"] == F.code


def test_trichotomy_gate_can_fail(capsys, monkeypatch):
    monkeypatch.setattr(cli, "classify_pair", lambda A, B: Classification(
        "contained_in", "wrong on purpose"))
    code, rep = run(capsys, "verify", "--suite", "trichotomy", "--samples",
                    "5")
    assert code == 1
    assert rep["pass"] is False


def test_bgit_gate_needs_every_path(capsys, monkeypatch):
    monkeypatch.setattr(cli, "cn_distance_bounds",
                        lambda u, v, pool: (1, None, None))
    code, rep = run(capsys, "verify", "--suite", "bgit", "--samples", "2")
    assert code == 1
    assert rep["pass"] is False
    assert rep["metrics"]["paths"] == 0


def test_verify_suite_smoke(capsys):
    code, rep = run(capsys, "verify", "--suite", "farey-oracle",
                    "--samples", "5")
    assert code == 0
    assert rep["pass"] is True
    assert rep["samples"] == 5

    code, rep = run(capsys, "verify", "--suite", "trichotomy", "--samples",
                    "5")
    assert code == 0
    assert rep["samples"] == 5


def test_pingpong_command(capsys):
    code, rep = run(capsys, "pingpong", "--rank", "3", "--f", "b,ab,c",
                    "--g", "a,c,bc", "--m-emp", "1", "--d-emp", "1",
                    "--powers", "2", "--factor-size", "6",
                    "--complexity-bound", "3")
    assert rep["config"]["powers"] == 2
    assert rep["config"]["factor_size"] == 6
    assert rep["N"] == 8
    assert rep["syllables"] == [["f", 8], ["g", 8]]
    # <a,b>, <b,c> do not fill (decided exactly, both have corank 1), so
    # a run without an invariant factor gives no evidence
    assert code in (0, 3)
    if rep["invariant_factor"] is None:
        assert code == 3
