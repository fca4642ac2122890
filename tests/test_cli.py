import hashlib

import pytest

from knormal.cli import main, parse_grid


def run(capsys, args):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_paper_example(capsys):
    code, out, _ = run(capsys, ["count", "--q", "5", "--n", "7"])
    assert code == 0
    lines = out.splitlines()
    assert "2 0 0" in lines and "5 0 0" in lines
    assert "0 62496 62496" in lines
    assert "1 15624 15624" in lines
    assert "6 4 4" in lines and "7 1 1" in lines
    assert "total 78125 (q^n = 78125)" in lines


def test_count_csv_single_k(capsys):
    code, out, _ = run(capsys, ["count", "--q", "5", "--n", "7", "--k", "3", "--csv"])
    assert code == 0
    assert out.splitlines() == ["k,N_k,census", "3,0,0"]


def test_order_command(capsys):
    code, out, _ = run(capsys, ["order", "--q", "2", "--n", "2", "--element", "0,1"])
    assert code == 0
    assert "m = 1 + x^2" in out
    assert "k = 0" in out


def test_order_command_above_int64_indices(capsys):
    element = ",".join(["0", "1"] + ["0"] * 62)
    code, out, err = run(capsys, ["order", "--q", "2", "--n", "64", "--element", element])
    assert code == 0, err
    assert "k = 0" in out


def test_count_census_large_characteristic(capsys):
    code, out, _ = run(capsys, ["count", "--q", "401", "--n", "2"])
    assert code == 0
    lines = out.splitlines()
    assert "0 160000 160000" in lines
    assert "1 800 800" in lines and "2 1 1" in lines


def test_sieve_csv(capsys):
    code, out, _ = run(capsys, ["sieve", "--q", "5", "--n", "7", "--k", "1", "--csv"])
    assert code == 0
    assert out.splitlines()[1] == "5,7,1,4,4,True,6805403238816,305171875"


def test_sieve_needs_exactly_one_k_mode(capsys):
    code, _, err = run(capsys, ["sieve", "--q", "5", "--n", "7"])
    assert code == 2 and err.startswith("error: input:")
    code, _, err = run(capsys, ["sieve", "--q", "5", "--n", "7", "--k", "1", "--all-k"])
    assert code == 2


def test_factor_xn(capsys):
    code, out, _ = run(capsys, ["factor-xn", "--q", "5", "--n", "7"])
    assert code == 0
    assert out.splitlines() == [
        "xn_minus_1 q=5 n=7",
        "(4 + x)^1",
        "(1 + x + x^2 + x^3 + x^4 + x^5 + x^6)^1",
    ]


def test_factor_xn_large_characteristic(capsys):
    # q = 2^31 - 1 is 3 mod 4, so x^4 - 1 keeps the factor x^2 + 1 over F_q
    code, out, _ = run(capsys, ["factor-xn", "--q", "2147483647", "--n", "4"])
    assert code == 0
    assert out.splitlines() == [
        "xn_minus_1 q=2147483647 n=4",
        "(1 + x)^1",
        "(2147483646 + x)^1",
        "(1 + x^2)^1",
    ]


def test_construct_command(capsys):
    code, out, _ = run(capsys, ["construct", "--q", "5", "--n", "7", "--f", "[4,1]", "--seed", "1"])
    assert code == 0
    assert "k = 1" in out


def test_lift_command(capsys):
    code, out, _ = run(capsys, ["lift", "--q", "3", "--p", "3", "--s", "1", "--f", "[2,1]"])
    assert code == 0
    assert "order = 19682" in out
    code, _, err = run(capsys, ["lift", "--q", "3", "--p", "2", "--s", "1", "--f", "[2,1]"])
    assert code == 2


def test_conjecture_command(capsys):
    code, out, _ = run(capsys, ["conjecture", "--p-max", "5"])
    assert code == 0
    rows = out.splitlines()
    assert rows[0] == "p,a,irreducible,k_normality,primitive,order_factors"
    assert rows[1].startswith("3,2,True,1,True,")
    assert len(rows) == 4  # header + p=3 (one root) + p=5 (two roots)


def test_practical_scan(capsys):
    code, out, _ = run(capsys, ["practical", "scan", "--q-list", "3,5", "--n-max", "7"])
    assert code == 0
    rows = out.splitlines()
    assert rows[0] == "n,phi_practical,fq_practical_3,fq_practical_5"
    assert rows[5] == "5,False,False,True"  # x^5-1 = (x-1)^5 over F_5
    assert rows[7] == "7,False,False,False"


def test_input_errors_exit_2(capsys):
    code, _, err = run(capsys, ["count", "--q", "6", "--n", "2"])
    assert code == 2 and "prime power" in err
    code, _, err = run(capsys, ["order", "--q", "2", "--n", "2", "--element", "0,9"])
    assert code == 2


def test_exit_code_mapping(capsys, monkeypatch):
    import knormal.cli as cli_mod
    from knormal.errors import BudgetError, InternalCheckError

    monkeypatch.setattr(cli_mod, "sieve_verdict", _raiser(BudgetError("x")))
    assert run(capsys, ["sieve", "--q", "5", "--n", "7", "--k", "1"])[0] == 3
    monkeypatch.setattr(cli_mod, "sieve_verdict", _raiser(InternalCheckError("x")))
    assert run(capsys, ["sieve", "--q", "5", "--n", "7", "--k", "1"])[0] == 4
    # no odd primes below 3: header only, still success
    assert run(capsys, ["conjecture", "--p-max", "2"])[0] == 0


def _raiser(exc):
    def fn(*a, **k):
        raise exc

    return fn


def test_grid_parsing():
    qs, ns, kspec = parse_grid("q=2..9;n=2..4;k=1..n-1")
    assert qs == [2, 3, 4, 5, 7, 8, 9]
    assert ns == [2, 3, 4]
    assert kspec == "1..n-1"
    with pytest.raises(ValueError):
        parse_grid("q=2..9;n=2..4")
    with pytest.raises(ValueError):
        parse_grid("q=9..2;n=1..2;k=1..1")
    with pytest.raises(ValueError):
        parse_grid("q=2..4;q=3..5;n=1..2;k=1..1")


def test_survey_roundtrip(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    grid = "q=2..3;n=2..5;k=1..n-1"
    assert run(capsys, ["survey", "--grid", grid, "--out", str(out1)])[0] == 0
    assert run(capsys, ["survey", "--grid", grid, "--out", str(out2)])[0] == 0
    assert out1.read_bytes() == out2.read_bytes()
    before = out1.read_bytes()
    assert run(capsys, ["survey", "--grid", grid, "--out", str(out1)])[0] == 0
    assert out1.read_bytes() == before  # idempotent
    # resume completes a truncated file without rewriting old rows
    lines = out2.read_text().splitlines(keepends=True)
    partial = tmp_path / "c.csv"
    partial.write_text("".join(lines[:4]))
    assert run(capsys, ["survey", "--grid", grid, "--out", str(partial)])[0] == 0
    assert sorted(partial.read_text().splitlines()) == sorted(out2.read_text().splitlines())


def test_cache_wiring(tmp_path, capsys, monkeypatch):
    from knormal.ff import build_field

    build_field(5, 1, 3)._qn_minus_1 = None  # defeat the shared lazy cache
    cache = tmp_path / "factors.txt"
    monkeypatch.setenv("KNORMAL_FACTOR_CACHE", str(cache))
    code, out, _ = run(capsys, ["order", "--q", "5", "--n", "3", "--element", "0,1,0"])
    assert code == 0
    assert "124 = 2^2 * 31^1" in cache.read_text()
