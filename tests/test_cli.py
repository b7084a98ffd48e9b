"""End-to-end CLI coverage (parsing, rendering, exit codes)."""

import json

import pytest

from addcyc import refdata
from addcyc.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_factor_reference(capsys):
    code, out, _ = run(capsys, "factor", "-n", "7", "-q", "3", "--paper-fields")
    assert code == 0
    assert "m[0] = 2,1" in out
    assert "m[1] = 1,1,1,1,1,1,1" in out
    code, out, _ = run(capsys, "factor", "-n", "7", "-q", "9", "--paper-fields")
    assert "2,w^7,w,1" in out and "2,w^5,w^3,1" in out


def test_factor_json(capsys):
    code, out, _ = run(capsys, "factor", "-n", "7", "-q", "9", "--paper-fields", "--json")
    data = json.loads(out)
    assert [f["coset"] for f in data] == [[0], [1, 2, 4], [3, 5, 6]]


def test_cosets(capsys):
    code, out, _ = run(capsys, "cosets", "-n", "7", "-q", "9")
    assert out.splitlines() == ["C[0] = [0]", "C[1] = [1, 2, 4]", "C[3] = [3, 5, 6]"]


def test_atlas_json(capsys):
    code, out, _ = run(capsys, "atlas", "-n", "7", "-q", "3", "--paper-fields", "--json")
    data = json.loads(out)
    assert data["idempotents"]["1,0"] == "0,w^7,w^7,w^5,w^7,w^5,w^5"
    assert data["mu"] == [0, 1]
    assert data["tau_orientation"] == [None, "swaps"]


def test_count_and_enumerate(capsys):
    code, out, _ = run(capsys, "count", "-n", "7", "-q", "3", "--mode", "so")
    assert out.strip() == "58"
    code, out, _ = run(capsys, "count", "-n", "7", "-q", "3", "--mode", "sd")
    assert out.strip() == "28"
    code, out, _ = run(capsys, "count", "-n", "7", "-q", "3", "--mode", "so", "--complete")
    assert out.strip() == "87"
    code, out, _ = run(capsys, "enumerate", "-n", "7", "-q", "3", "--mode", "sd",
                       "--limit", "5", "--json")
    data = json.loads(out)
    assert len(data) == 5 and all(r["self_dual"] for r in data)


def test_form_and_mindist(capsys):
    gen = "0,w^7,w^7,w^5,w^7,w^5,w^5"
    code, out, _ = run(capsys, "form", "-n", "7", "-q", "3", "--paper-fields",
                       "--a", gen, "--b", gen)
    assert "(a,b)   = 0" in out
    code, out, _ = run(capsys, "mindist", "-n", "7", "-q", "3", "--paper-fields",
                       "--gen", gen)
    assert code == 0 and "d = 5 (exact, information sets, 12 words)" in out
    code, out, _ = run(capsys, "mindist", "-n", "7", "-q", "3", "--paper-fields",
                       "--gen", gen, "--json")
    data = json.loads(out)
    assert (data["d"], data["d_exact"], data["lb"], data["ub"]) == (5, True, 5, 5)
    assert data["method"] == "information sets" and data["words_examined"] == 12
    assert len(data["witness"]) == 7 and sum(tok != "0" for tok in data["witness"]) == 5
    # a budget of one word stops the (2, 11) row after information weight 1
    row = refdata.row_for(2, 11)
    argv = ("mindist", "-n", "11", "-q", "2", "--paper-fields", "--gen", row.generator,
            "--mindist-budget", "1")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out == "5 <= d <= 6 (bound, information sets, 15 words)\n"
    data = json.loads(run(capsys, *argv, "--json")[1])
    assert (data["d"], data["d_exact"], data["d_lb"], data["lb"], data["ub"]) == (6, False, 5, 5, 6)


def test_dual(capsys):
    gen = "0,w^7,w^7,w^5,w^7,w^5,w^5"
    code, out, _ = run(capsys, "dual", "-n", "7", "-q", "3", "--paper-fields",
                       "--gen", gen, "--json")
    data = json.loads(out)
    assert data["code"]["k_fq"] == 6 and data["dual"]["k_fq"] == 8


def test_goodcodes(capsys):
    code, out, _ = run(capsys, "goodcodes", "-n", "11", "-q", "2", "--json")
    data = json.loads(out)
    assert len(data) == 68
    assert any(r["k_fq"] == 10 and r["d"] == 6 and r["d_exact"] for r in data)
    assert all(r["d_lb"] == r["d"] for r in data if r["d_exact"])
    # a budget of one word bounds the codes that need information weight 2
    code, out, _ = run(capsys, "goodcodes", "-n", "11", "-q", "2", "--mindist-budget", "1")
    assert code == 0 and "d=6    [bound, lb 5]" in out and "d=11   [exact]" in out
    data = json.loads(run(capsys, "goodcodes", "-n", "11", "-q", "2",
                          "--mindist-budget", "1", "--json")[1])
    assert data[0]["d"] is data[0]["d_lb"] is None
    bounded = [r for r in data[1:] if not r["d_exact"]]
    assert bounded and all(r["d_lb"] < r["d"] for r in bounded)


def test_bracketed_generator_tokens(capsys):
    """A --gen token may be a bracketed digit vector with commas inside; one
    with more digits than GF(9) has exits 2 with a message."""
    code, out, _ = run(capsys, "mindist", "-n", "7", "-q", "3", "--gen", "[1,1],1")
    assert code == 0 and out.startswith("d = ")
    code, out, err = run(capsys, "mindist", "-n", "7", "-q", "3", "--gen", "[1,1,1],1")
    assert code == 2 and not out and err.startswith("error: ") and "digit token" in err
    assert "invalid literal" not in err


def test_error_exit_code(capsys):
    code, _, err = run(capsys, "factor", "-n", "6", "-q", "3")
    assert code == 2
    assert "gcd(n, base) = 1" in err
    code, _, err = run(capsys, "count", "-n", "6", "-q", "3")
    assert code == 2
    code, _, err = run(capsys, "mindist", "-n", "7", "-q", "3")
    assert code == 2  # neither --gen nor --row
    for argv, hypothesis in [(("atlas", "-n", "7", "-q", "3", "-t", "0"), "t = 0 must be >= 1"),
                             (("atlas", "-n", "7", "-q", "3", "-t", "-2"), "t = -2 must be >= 1"),
                             (("atlas", "-n", "-7", "-q", "3"), "n = -7 must be >= 1"),
                             (("factor", "-n", "-7", "-q", "3"), "n = -7 must be >= 1"),
                             (("cosets", "-n", "-7", "-q", "3"), "n = -7 must be >= 1")]:
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error: ") and hypothesis in err, argv
    code, out, _ = run(capsys, "atlas", "-n", "7", "-q", "3", "-t", "3")
    assert code == 0 and out.startswith("n=7 q=3 t=3")


@pytest.mark.parametrize("argv", [
    ("mindist", "--gen", "1,1,2,9"),       # used to read "9" as 0: d = 1
    ("mindist", "--gen", "1,1,2,-1"),      # used to read "-1" as 2
    ("mindist", "--gen", "1,1,2,0,0,0,0,1"),  # eight coefficients for n = 7
    ("mindist", "--gen", "1,1,2", "--mindist-budget", "-1"),
])
def test_out_of_range_values_are_refused(capsys, argv):
    code, out, err = run(capsys, argv[0], "-n", "7", "-q", "3", *argv[1:])
    assert code == 2 and not out and err.startswith("error: ")


@pytest.mark.parametrize("command", ["enumerate", "goodcodes"])
def test_negative_limit_is_refused(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "-n", "7", "-q", "3", "--limit", "-1"])
    assert exc.value.code == 2 and "--limit" in capsys.readouterr().err


def test_deterministic_json(capsys):
    args = ("enumerate", "-n", "7", "-q", "3", "--mode", "so", "--json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


@pytest.mark.parametrize("argv", [("mindist", "-n", "7", "-q", "3", "--gen", "1,1,2"),
                                  ("goodcodes", "-n", "7", "-q", "3"), ("verify-paper",)])
@pytest.mark.parametrize("flag", ["--samples", "--seed"])
def test_no_sampling_options(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, "5"])
    assert exc.value.code == 2 and "unrecognized arguments" in capsys.readouterr().err


def test_verify_paper_json(capsys):
    code, out, _ = run(capsys, "verify-paper", "--json")
    data = json.loads(out)
    assert code == 0
    assert [r["status"] for r in data] == ["PASS"] * len(data) and len(data) == 21
    kinds = {}
    for row in refdata.GOOD_CODE_TABLE:
        detail = next(r["detail"] for r in data
                      if r["name"] == f"good-code row q={row.q}, n={row.n}")
        kinds[row.q, row.n] = ("exact" if f"got {row.d} [exact," in detail else
                               "bound" if f" <= d <= {row.d} [bound," in detail else detail)
    assert {key for key, kind in kinds.items() if kind == "exact"} == {
        (2, 11), (2, 19), (3, 7), (3, 19), (5, 7), (7, 11), (13, 11), (17, 7),
        (17, 11), (19, 7), (19, 11)}
    assert {key for key, kind in kinds.items() if kind == "bound"} == set(refdata.UNPROVED_ROWS)
