"""End-to-end CLI behavior: exit codes, envelopes, determinism, file output."""

import json
import resource
import subprocess
import sys

import pytest

from fqtlab import FiniteField, FuncTable, LinearAnsatz, LinearCaps, Poly
from fqtlab.cli import _ansatz_to_obj, main
from fqtlab.poly import format_poly, parse_poly

F2 = FiniteField(2)
F4 = FiniteField(2, 2)
t = Poly(F2, [0, 1])
one = Poly.one(F2)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def envelope(out):
    return json.loads(out)


@pytest.fixture
def square_table_path(tmp_path):
    path = tmp_path / "square.json"
    FuncTable.from_function(F2, 3, lambda a: a * a).save(path)
    return str(path)


@pytest.fixture
def cube_table_path(tmp_path):
    path = tmp_path / "cube.json"
    FuncTable.from_function(F2, 3, lambda a: a ** 3 + t * a).save(path)
    return str(path)


@pytest.fixture
def growth_table_path(tmp_path):
    from fqtlab import build_counterexample
    path = tmp_path / "growth.json"
    tab, _ = build_counterexample(F2, 3)
    tab.save(path)
    return str(path)


def test_dn_frozen(capsys):
    code, out, _ = run_cli(capsys, "dn", "--q", "2", "--n", "3")
    assert code == 0
    env = envelope(out)
    assert env["result"] == {"n": 3, "d_n": 10, "lower": 8, "upper": 16,
                             "ok": True}
    assert env["ok"] is True
    assert env["command"] == "dn"
    # the resolved run configuration is embedded, minus the thread count
    assert env["config"]["seed"] == 0
    assert "threads" not in env["config"]
    assert env["config"]["budgets"]["degree"] == 1 << 14


def test_irreducibles(capsys):
    code, out, _ = run_cli(capsys, "irreducibles", "--q", "2", "--n", "3")
    assert code == 0
    env = envelope(out)
    assert env["result"]["count"] == 2
    assert env["result"]["polys"] == ["t^3+t+1", "t^3+t^2+1"]


def test_identity_check(capsys):
    code, out, _ = run_cli(capsys, "identity-check", "--q", "2", "--n", "2")
    assert code == 0
    assert envelope(out)["result"]["ok"] is True


def test_budget_exceeded_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "identity-check", "--q", "2", "--n", "12",
                           "--budget", "16")
    assert code == 1
    assert "budget" in err


def test_huge_exponent_literal_is_budget_error(capsys):
    code, _, err = run_cli(capsys, "large-factor", "--q", "2", "--A", "t",
                           "--U", "t^%d" % 10 ** 20, "--M-floor", "1",
                           "--n", "1")
    assert code == 1
    assert "budget" in err
    code, _, err = run_cli(capsys, "sunit-enum", "--q", "3",
                           "--gens", "t,t^20", "--E", "1", "--budget", "16")
    assert code == 1
    assert "budget" in err


def test_table_file_literal_over_cap_is_budget_error(capsys, tmp_path):
    obj = FuncTable.from_function(F2, 0, lambda a: a).to_obj()
    obj["values"][1][1] = "t^5000000"
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(obj))
    code, _, err = run_cli(capsys, "verify-p3", "--table", str(path))
    assert code == 1
    assert "budget" in err


@pytest.mark.parametrize("where, key, value", [
    ("field", "e", "2"), ("field", "e", None), ("field", "e", 2.5),
    ("field", "e", True), ("field", "p", "2"), ("field", "p", True),
    ("table", "D", True), ("table", "D", "1")],
    ids=["e-str", "e-null", "e-float", "e-bool", "p-str", "p-bool", "D-bool",
         "D-str"])
def test_table_file_field_types(capsys, tmp_path, where, key, value):
    # p, e and D must be JSON integers: anything else, true included (a bool
    # is an int to Python), ends in one error line and exit 1
    obj = FuncTable.from_function(F2, 1, lambda a: a).to_obj()
    (obj["field"] if where == "field" else obj)[key] = value
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "verify-p3", "--table", str(path))
    assert code == 1 and out == ""
    assert err.startswith("fqtlab verify-p3: error: ")
    assert err.count("\n") == 1 and repr(value) in err


def _table_obj():
    return FuncTable.from_function(F2, 1, lambda a: a).to_obj()


def _ansatz_obj():
    ansatz = LinearAnsatz((one,), (t, one), LinearCaps(0, 0, 1, 1))
    return json.loads(json.dumps(_ansatz_to_obj(ansatz, F2)))


def _set(where, key, value):
    def mutate(obj):
        (obj[where] if where else obj)[key] = value
        return obj
    return mutate


def _set_field(**kw):
    def mutate(obj):
        obj["field"].update(kw)
        return obj
    return mutate


def _drop_cap(obj):
    del obj["caps"]["q_coeff_deg"]
    return obj


_MALFORMED_FILES = {
    "table-modulus-int": ("verify-p3", _table_obj, _set_field(modulus=5)),
    "table-modulus-null": ("verify-p3", _table_obj,
                           _set_field(e=2, modulus=[1, None, 1])),
    "table-values-int": ("verify-p3", _table_obj, _set(None, "values", 5)),
    "table-entry-int": ("verify-p3", _table_obj, _set("values", 0, 5)),
    "table-entry-ints": ("verify-p3", _table_obj, _set("values", 0, [0, 1])),
    "table-entry-short": ("verify-p3", _table_obj, _set("values", 0, ["0"])),
    "table-entry-long": ("verify-p3", _table_obj,
                         _set("values", 0, ["0", "0", "0"])),
    "table-field-list": ("verify-p3", _table_obj, _set(None, "field", [])),
    "table-top-list": ("verify-p3", _table_obj, lambda obj: [obj]),
    "ansatz-e-str": ("recover", _ansatz_obj, _set_field(e="2")),
    "ansatz-modulus-int": ("recover", _ansatz_obj, _set_field(modulus=5)),
    "ansatz-caps-missing": ("recover", _ansatz_obj, _drop_cap),
    "ansatz-caps-extra": ("recover", _ansatz_obj, _set("caps", "r_deg", 0)),
    "ansatz-p-coeffs-int": ("recover", _ansatz_obj, _set(None, "p_coeffs", 5)),
    "ansatz-p-coeffs-int-entry": ("recover", _ansatz_obj,
                                  _set(None, "p_coeffs", [5])),
    "ansatz-top-list": ("recover", _ansatz_obj, lambda obj: [obj]),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_FILES))
def test_malformed_file_shapes(capsys, tmp_path, case):
    # a file of the wrong shape ends in one error line and exit 1, never in
    # a TypeError or AttributeError traceback
    cmd, make, mutate = _MALFORMED_FILES[case]
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(mutate(make())))
    flag = "--table" if cmd == "verify-p3" else "--ansatz"
    code, out, err = run_cli(capsys, cmd, flag, str(path))
    assert code == 1 and out == ""
    assert err.startswith("fqtlab %s: error: " % cmd)
    assert err.count("\n") == 1


def test_malformed_file_bases_are_valid(capsys, tmp_path):
    # the unmutated files run, so each case above fails on its one change
    path = tmp_path / "table.json"
    path.write_text(json.dumps(_table_obj()))
    assert run_cli(capsys, "verify-p3", "--table", str(path))[0] == 0
    path = tmp_path / "ansatz.json"
    path.write_text(json.dumps(_ansatz_obj()))
    code, out, _ = run_cli(capsys, "recover", "--ansatz", str(path))
    assert code == 0
    # F = -Q/P = t + X over F_2
    assert [c["num"] for c in envelope(out)["result"]["recovered"]] == \
        ["t", "1"]


def test_unknown_subcommand(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 1


def test_missing_subcommand(capsys):
    code, _, err = run_cli(capsys)
    assert code == 1
    assert "subcommand" in err


def test_missing_required_flag(capsys):
    code, _, _ = run_cli(capsys, "dn", "--q", "2")
    assert code == 1


def test_malformed_poly_literal(capsys):
    code, _, err = run_cli(capsys, "large-factor", "--q", "2", "--A", "t^",
                           "--U", "t", "--M-floor", "2", "--n", "5")
    assert code == 1
    assert "error" in err


def test_q_must_be_prime_power(capsys):
    code, _, err = run_cli(capsys, "dn", "--q", "6", "--n", "2")
    assert code == 1
    assert "prime power" in err


def test_q_large_prime_and_limits(capsys):
    code, out, _ = run_cli(capsys, "dn", "--q", str(2**61 - 1), "--n", "1")
    assert code == 0
    assert envelope(out)["result"]["d_n"] == 2**61 - 1
    for q, msg in (("561", "not a prime power"),
                   (str(2**61 + 1), "not a prime power"),
                   (str(10**30), "only decided below")):
        code, _, err = run_cli(capsys, "dn", "--q", q, "--n", "1")
        assert code == 1
        assert msg in err


@pytest.mark.parametrize("modulus", ["5", "[1,null,1]", '"ab"', "[1.5,1,1]",
                                     "[true,1,1]", "t^2+t+1"])
def test_modulus_must_be_a_list_of_ints(capsys, modulus):
    code, out, err = run_cli(capsys, "dn", "--p", "2", "--ext-degree", "2",
                             "--modulus", modulus, "--n", "1")
    assert (code, out) == (1, "")
    assert err == ("fqtlab dn: error: --modulus must be a JSON list of "
                   "integers, got %s\n" % modulus)


def test_modulus_checks_keep_their_messages(capsys):
    code, out, err = run_cli(capsys, "dn", "--p", "2", "--ext-degree", "2",
                             "--modulus", "[]", "--n", "1")
    assert (code, out) == (1, "")
    assert err == "fqtlab dn: error: modulus must be monic of degree e\n"
    code, out, _ = run_cli(capsys, "dn", "--p", "2", "--ext-degree", "2",
                           "--modulus", "[1,1,1]", "--n", "1")
    assert code == 0
    assert envelope(out)["result"]["d_n"] == 4


def test_q_conflicts_with_p(capsys):
    code, _, err = run_cli(capsys, "dn", "--q", "4", "--p", "2", "--n", "2")
    assert code == 1
    assert "conflicts" in err


def test_csv_only_for_sweeps(capsys):
    code, _, err = run_cli(capsys, "dn", "--q", "2", "--n", "3",
                           "--format", "csv")
    assert code == 1
    assert "csv" in err


def test_build_counterexample(capsys, tmp_path):
    out_path = str(tmp_path / "built.json")
    code, out, _ = run_cli(capsys, "build-counterexample", "--q", "2",
                           "--D", "3", "--trace", "--out", out_path)
    assert code == 0
    env = envelope(out)
    assert env["result"]["certification"]["ok"] is True
    assert "trace" in env["result"]
    assert env["result"]["table"]["D"] == 3
    # --out wrote the same bytes that went to stdout
    with open(out_path) as fh:
        assert fh.read() == out


def test_build_counterexample_without_trace(capsys):
    code, out, _ = run_cli(capsys, "build-counterexample", "--q", "2",
                           "--D", "2")
    assert code == 0
    assert "trace" not in envelope(out)["result"]


def test_verify_p3_pass_and_fail(capsys, square_table_path, tmp_path):
    code, out, _ = run_cli(capsys, "verify-p3", "--table", square_table_path)
    assert code == 0
    assert envelope(out)["result"]["ok"] is True
    # corrupt one entry and expect a verification failure, exit 2
    tab = FuncTable.load(square_table_path)
    bad_path = str(tmp_path / "bad.json")
    tab.with_value(t, t + one).save(bad_path)
    code, out, _ = run_cli(capsys, "verify-p3", "--table", bad_path)
    assert code == 2
    env = envelope(out)
    assert env["ok"] is False
    assert env["result"]["violation_count"] > 0


def test_degree_zero_table_checks_pass(capsys, tmp_path):
    # a D = 0 table has no irreducible of degree <= D to check against
    path = str(tmp_path / "d0.json")
    FuncTable.from_function(F2, 0, lambda a: a + t).save(path)
    code, out, _ = run_cli(capsys, "verify-p3", "--table", path)
    assert code == 0
    result = envelope(out)["result"]
    assert result["ok"] is True
    assert result["irreducibles_checked"] == 0
    code, out, _ = run_cli(capsys, "vanishing-check", "--table", path,
                           "--C1", "0")
    assert code == 0
    assert envelope(out)["result"]["congruence_ok"] is True


def test_verify_p3_accepts_envelope_table(capsys, tmp_path):
    out_path = str(tmp_path / "env.json")
    run_cli(capsys, "build-counterexample", "--q", "2", "--D", "2",
            "--out", out_path)
    code, out, _ = run_cli(capsys, "verify-p3", "--table", out_path)
    assert code == 0


def test_growth(capsys, growth_table_path):
    code, out, _ = run_cli(capsys, "growth", "--table", growth_table_path,
                           "--epsilon", "1/3")
    assert code == 0
    env = envelope(out)
    assert env["result"]["epsilon"] == "1/3"
    rows = env["result"]["rows"]
    assert rows[1]["max_deg"] == 2  # deg g(t) = 2 at input degree 1


def test_find_relation(capsys, square_table_path):
    code, out, _ = run_cli(capsys, "find-relation", "--table",
                           square_table_path, "--bounds", "0,2,1")
    assert code == 0
    env = envelope(out)
    assert env["result"]["found"] is True
    assert env["result"]["relation"]["coeffs"] == [0, 1, 0, 0, 1, 0]
    # an empty box is not a verification failure for the search command
    code, out, _ = run_cli(capsys, "find-relation", "--table",
                           square_table_path, "--bounds", "0,1,1")
    assert code == 0
    assert envelope(out)["result"]["found"] is False


def test_degree_bound_from_box(capsys, cube_table_path):
    code, out, _ = run_cli(capsys, "degree-bound", "--table", cube_table_path,
                           "--bounds", "1,3,1")
    assert code == 0
    env = envelope(out)
    assert env["result"]["cert"]["c3"] == 3
    assert env["result"]["cert"]["c4"] == 1
    assert env["result"]["report"]["ok"] is True


def test_degree_bound_manual_constants_fail(capsys, square_table_path):
    code, out, _ = run_cli(capsys, "degree-bound", "--table",
                           square_table_path, "--c3", "0", "--c4", "0")
    assert code == 2
    assert envelope(out)["result"]["report"]["ok"] is False


def test_degree_bound_flag_conflict(capsys, square_table_path):
    code, _, err = run_cli(capsys, "degree-bound", "--table",
                           square_table_path, "--c3", "0")
    assert code == 1


def test_linear_relation_then_recover(capsys, cube_table_path, tmp_path):
    lin_path = str(tmp_path / "lin.json")
    code, out, _ = run_cli(capsys, "linear-relation", "--table",
                           cube_table_path, "--U", "t", "--N", "3",
                           "--out", lin_path)
    assert code == 0
    env = envelope(out)
    assert env["result"]["found"] is True
    code, out, _ = run_cli(capsys, "recover", "--ansatz", lin_path)
    assert code == 0
    env = envelope(out)
    assert env["result"]["is_polynomial"] is True
    assert [c["num"] for c in env["result"]["recovered"]] == ["0", "t", "0", "1"]


def test_recover_flags_non_divisible(capsys, tmp_path):
    bad = LinearAnsatz(p_coeffs=(Poly.zero(F2), one), q_coeffs=(one,),
                       caps=LinearCaps(1, 0, 0, 0))
    path = tmp_path / "bad_ansatz.json"
    path.write_text(json.dumps(_ansatz_to_obj(bad, F2)))
    code, out, _ = run_cli(capsys, "recover", "--ansatz", str(path))
    assert code == 2
    assert envelope(out)["result"]["recovered"] is None


def test_fit(capsys, growth_table_path):
    code, out, _ = run_cli(capsys, "fit", "--table", growth_table_path,
                           "--B", "2")
    assert code == 0
    assert envelope(out)["result"]["holdout_ok"] is False


def test_fit_budget(capsys, growth_table_path):
    code, out, err = run_cli(capsys, "fit", "--table", growth_table_path,
                             "--B", "15", "--budget", "1000")
    assert code == 1 and out == ""
    assert ("interpolation through 16 points exceeds 1000 matrix entry "
            "updates") in err


def test_sample_checks_before_building(capsys, cube_table_path, monkeypatch):
    # A constant U repeats an input once N >= q, and deg U * N > D leaves
    # the domain; both fail at once, as the full sample list failed.  At
    # N = 1 the constant U still builds its two samples.
    lookup = FuncTable.lookup
    calls = []

    def few_lookups(self, a):
        calls.append(a)
        if len(calls) > 10:
            raise AssertionError("samples were built")
        return lookup(self, a)

    monkeypatch.setattr(FuncTable, "lookup", few_lookups)
    big = str(10 ** 12)
    for cmd in (("linear-relation",), ("pipeline", "--bounds", "1,3,1")):
        argv = cmd + ("--table", cube_table_path, "--U", "1", "--N")
        small = run_cli(capsys, *argv, "1")
        assert small[0] == 1 and "pairwise distinct" in small[2]
        assert run_cli(capsys, *argv, big) == small
        calls.clear()
    argv = ("linear-relation", "--table", cube_table_path, "--U", "t", "--N")
    small = run_cli(capsys, *argv, "4")
    assert small[0] == 1 and "outside table domain" in small[2]
    assert run_cli(capsys, *argv, big) == small


def test_vanishing_check(capsys, tmp_path):
    zero_path = str(tmp_path / "zero.json")
    FuncTable.from_function(F2, 2, lambda a: Poly.zero(F2)).save(zero_path)
    code, out, _ = run_cli(capsys, "vanishing-check", "--table", zero_path,
                           "--C1", "0")
    assert code == 0
    env = envelope(out)
    assert env["result"]["all_zero"] is True
    assert env["result"]["hypotheses_ok"] is True
    # a nonzero entry breaks a hypothesis, so exit stays 0 with flags down
    tab = FuncTable.load(zero_path).with_value(t, one)
    inj_path = str(tmp_path / "inj.json")
    tab.save(inj_path)
    code, out, _ = run_cli(capsys, "vanishing-check", "--table", inj_path,
                           "--C1", "0")
    assert code == 0
    env = envelope(out)
    assert env["result"]["hypotheses_ok"] is False
    assert env["result"]["witness_divides"] is False


def test_delta_lab_single(capsys):
    code, out, _ = run_cli(capsys, "delta-lab", "--q", "2", "--U", "t",
                           "--n", "3")
    assert code == 0
    env = envelope(out)
    assert env["result"]["skipped"] == 0
    rows = env["result"]["rows"]
    assert len(rows) == 1
    assert rows[0]["spec"]["m"] == 2  # m defaults to n-1


def test_delta_lab_csv_sweep(capsys):
    code, out, _ = run_cli(capsys, "delta-lab", "--q", "2", "--U", "t",
                           "--n", "4", "--sweep", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p,q,U,m,n,d,S0,S1,S2,margin_b"
    assert len(lines) == 1 + (1 + 2 + 3 + 4)
    # m = 0 zeroes the bound's right side, so the margin is d itself
    assert lines[1] == "2,2,t,0,1,1,1,0,0,1"


def test_sunit_enum(capsys):
    code, out, _ = run_cli(capsys, "sunit-enum", "--q", "2",
                           "--gens", "t,t+1", "--E", "1")
    assert code == 0
    assert envelope(out)["result"]["count"] == 6


def test_sunit_orbits(capsys):
    code, out, _ = run_cli(capsys, "sunit-orbits", "--q", "2",
                           "--gens", "t,t+1", "--E", "6")
    assert code == 0
    env = envelope(out)
    assert env["result"]["solution_count"] == 18
    assert env["result"]["orbit_count"] == 6
    assert env["result"]["bound"] == 15
    assert env["result"]["ok"] is True


def test_large_factor(capsys):
    code, out, _ = run_cli(capsys, "large-factor", "--q", "2", "--A", "t",
                           "--U", "t", "--M-floor", "2", "--n", "20")
    assert code == 0
    env = envelope(out)
    assert env["result"]["found"] is True
    assert env["result"]["n"] == 4
    assert env["result"]["witness"] == "t^2+t+1"


# the commands that call factor; these inputs reach its seeded random splits
SEEDED = [
    ("large-factor", "--q", "7", "--A", "t+3", "--U", "t", "--M-floor", "50",
     "--n", "30"),
    ("sunit-orbits", "--q", "7", "--gens", "t^25+3,t", "--E", "1"),
]


@pytest.mark.parametrize("argv", SEEDED, ids=lambda argv: argv[0])
def test_reports_do_not_depend_on_seed(capsys, argv):
    envs = []
    for seed in (0, 7919):
        code, out, _ = run_cli(capsys, *argv, "--seed", str(seed))
        assert code == 0
        env = envelope(out)
        assert env["config"].pop("seed") == seed
        envs.append(env)
    assert envs[0] == envs[1]


def test_seed_reaches_factor(capsys, monkeypatch):
    factor_mod = sys.modules["fqtlab.factor"]
    seeds, splits = [], []

    def factor(a, seed=0):
        seeds.append(seed)
        return factor_mod.factor(a, seed)

    def split_once(f, d, rng):
        splits.append(d)
        return real_split(f, d, rng)

    real_split = factor_mod._split_once
    monkeypatch.setattr(sys.modules["fqtlab.sunit"], "factor", factor)
    monkeypatch.setattr(factor_mod, "_split_once", split_once)
    for argv in SEEDED:
        assert run_cli(capsys, *argv, "--seed", "7919")[0] == 0
    assert seeds and set(seeds) == {7919}
    assert splits


def test_pipeline(capsys, cube_table_path, growth_table_path):
    code, out, _ = run_cli(capsys, "pipeline", "--table", cube_table_path,
                           "--bounds", "1,3,1", "--U", "t", "--N", "3")
    assert code == 0
    env = envelope(out)
    assert env["result"]["ok"] is True
    assert env["result"]["reproduces_table"] is True
    # the fast-growth table cannot be wired through: exit 2
    code, out, _ = run_cli(capsys, "pipeline", "--table", growth_table_path,
                           "--bounds", "1,3,1", "--U", "t", "--N", "3")
    assert code == 2
    assert envelope(out)["result"]["ok"] is False


def subprocess_bytes(*argv):
    proc = subprocess.run([sys.executable, "-m", "fqtlab.cli", *argv],
                          capture_output=True)
    return proc.returncode, proc.stdout


def test_huge_extension_degree_exits_at_once(tmp_path):
    # e = 10^12 must be refused before p^e is computed: a run that computes
    # it is stopped by the timeout and fails the test instead of hanging
    table = FuncTable.from_function(F2, 1, lambda a: a).to_obj()
    table["field"]["e"] = 10 ** 12
    path = tmp_path / "huge_e.json"
    path.write_text(json.dumps(table))
    for argv in (["dn", "--p", "2", "--ext-degree", str(10 ** 12), "--n", "1"],
                 ["verify-p3", "--table", str(path)]):
        proc = subprocess.run([sys.executable, "-m", "fqtlab.cli", *argv],
                              capture_output=True, timeout=10)
        assert proc.returncode == 1
        assert b"supported up to q = 256" in proc.stderr


def test_byte_determinism_across_runs_and_threads(square_table_path):
    base = subprocess_bytes("verify-p3", "--table", square_table_path)
    again = subprocess_bytes("verify-p3", "--table", square_table_path)
    threaded = subprocess_bytes("verify-p3", "--table", square_table_path,
                                "--threads", "8")
    assert base[0] == again[0] == threaded[0] == 0
    assert base[1] == again[1] == threaded[1]


def test_byte_determinism_build(capsys):
    a = subprocess_bytes("build-counterexample", "--q", "2", "--D", "3",
                         "--seed", "7")
    b = subprocess_bytes("build-counterexample", "--q", "2", "--D", "3",
                         "--seed", "7")
    assert a == b


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "subcommand" in out


def assert_one_error_line(command, code, out, err):
    assert code == 1 and out == ""
    assert err.startswith("fqtlab %s: error: " % command)
    assert err.count("\n") == 1 and "Traceback" not in err


def test_pipeline_keeps_the_matrix_budget(capsys, cube_table_path):
    for command in ("find-relation", "pipeline"):
        argv = [command, "--table", cube_table_path, "--bounds", "1,3,1",
                "--budget", "10"]
        if command == "pipeline":
            argv += ["--U", "t", "--N", "3"]
        code, out, err = run_cli(capsys, *argv)
        assert_one_error_line(command, code, out, err)
        assert "relation system exceeds 10 matrix entries" in err


def run_limited(*argv):
    """The CLI in a child process under a 1 GB address-space limit and a
    10 s timeout, so a run that builds or loops instead of refusing fails
    the test without exhausting the host."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run([sys.executable, "-m", "fqtlab.cli", *argv],
                          capture_output=True, text=True, timeout=10,
                          preexec_fn=limit)


# each would allocate or loop for long before the budget check it used to
# reach; every one must be refused before any work starts
@pytest.mark.parametrize("argv, needle", [
    (("find-relation", "--bounds", "100000000,0,0"),
     "relation system exceeds 4194304 matrix entries"),
    (("linear-relation", "--U", "t", "--N", "1",
      "--caps", "0,100000000,0,0"),
     "linear ansatz system exceeds 4194304 matrix entries"),
    (("pipeline", "--bounds", "0,100000000,0", "--U", "t", "--N", "1"),
     "relation system exceeds 4194304 matrix entries"),
    (("dn", "--q", "2", "--n", "100000000"),
     "n=100000000 exceeds the degree budget 16384"),
    (("identity-check", "--n", "100000000"),
     "n=100000000 materializes degree q^n > budget 16384"),
    (("build-counterexample", "--D", "100000000"),
     "D=100000000 materializes degree ~2*q^D > budget 16384"),
    (("irreducibles", "--q", "2", "--n", "1000000000000"),
     "degree 1000000000000 over q=2 exceeds budget 1048576"),
    (("delta-lab", "--q", "2", "--U", "t", "--n", "100000", "--sweep"),
     "sweep to n=100000 exceeds the degree budget 16384"),
], ids=["find-relation", "linear-relation", "pipeline", "dn",
        "identity-check", "build-counterexample", "irreducibles",
        "delta-lab-sweep"])
def test_huge_arguments_are_refused_at_once(tmp_path, argv, needle):
    if "--bounds" in argv or "--caps" in argv:
        path = tmp_path / "square.json"
        FuncTable.from_function(F2, 2, lambda a: a * a).save(path)
        argv = (argv[0], "--table", str(path)) + argv[1:]
    proc = run_limited(*argv)
    assert_one_error_line(argv[0], proc.returncode, proc.stdout, proc.stderr)
    assert needle in proc.stderr


def test_dn_over_the_degree_budget_is_refused(capsys):
    code, out, err = run_cli(capsys, "dn", "--q", "2", "--n", "20000")
    assert_one_error_line("dn", code, out, err)
    assert "n=20000 exceeds the degree budget 16384" in err


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no limit on int-to-str conversion")
def test_envelope_errors_end_in_one_line(capsys, monkeypatch):
    # a report whose ints exceed the interpreter's str conversion limit
    # fails while the envelope is written: one error line, no traceback.
    # dn refuses an n whose bounds would pass the limit before the work, so
    # the report's oversized int is a d_n of 5,001 digits from a patched
    # degree_sum, and the error is the one json raises on it
    calls = []

    def huge_degree_sum(q, n):
        calls.append((q, n))
        return 10 ** 5000

    monkeypatch.setattr("fqtlab.cli.degree_sum", huge_degree_sum)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run_cli(capsys, "dn", "--q", "2", "--n", "3")
    finally:
        sys.set_int_max_str_digits(limit)
    assert calls == [(2, 3)]
    assert_one_error_line("dn", code, out, err)
    assert "integer string conversion" in err


@pytest.mark.parametrize("argv", [
    ("sunit-enum", "--q", "2", "--gens", "[1,2]", "--E", "1"),
    ("sunit-orbits", "--q", "2", "--gens", "[null]", "--E", "1"),
    ("sunit-enum", "--q", "2", "--gens", '["t", ["t"]]', "--E", "1"),
], ids=["ints", "null", "nested"])
def test_gens_must_be_a_list_of_strings(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert_one_error_line(argv[0], code, out, err)
    assert "--gens must be a JSON list of strings" in err


@pytest.mark.parametrize("command, E", [("sunit-enum", 1),
                                        ("sunit-orbits", 2)])
@pytest.mark.parametrize("gens", [("t", "[1,1]*t"), ("[1,1]*t", "t")],
                         ids=["plain-first", "bracket-first"])
def test_gens_comma_form_keeps_extension_coefficients(capsys, command, E,
                                                      gens):
    # commas inside a bracketed coefficient do not split a generator, and
    # a comma list that opens with a bracket is not read as JSON
    results = []
    for text in (",".join(gens), json.dumps(list(gens))):
        code, out, err = run_cli(capsys, command, "--q", "4", "--gens", text,
                                 "--E", str(E))
        assert code == 0, err
        results.append(envelope(out)["result"])
    assert results[0] == results[1]
    assert results[0]["generators"] == [
        format_poly(parse_poly(F4, g)) for g in gens]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no limit on int-to-str conversion")
def test_dn_past_the_str_digit_limit_is_refused_before_the_work(
        capsys, monkeypatch):
    # 2*2^15000 has 4,516 digits: past the default limit of 4,300, so the
    # report could not be printed; d_n is never computed
    def no_work(q, n):
        raise AssertionError("degree_sum called")

    monkeypatch.setattr("fqtlab.cli.degree_sum", no_work)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run_cli(capsys, "dn", "--q", "2", "--n", "15000")
    finally:
        sys.set_int_max_str_digits(limit)
    assert_one_error_line("dn", code, out, err)
    assert "4516 digits" in err and "4300" in err


def test_growth_epsilon_with_zero_denominator(capsys, growth_table_path):
    code, out, err = run_cli(capsys, "growth", "--table", growth_table_path,
                             "--epsilon", "1/0")
    assert_one_error_line("growth", code, out, err)


def test_delta_lab_sweep_stops_each_n_at_the_budget(capsys):
    # every (m, n) pair with 0 <= m < n <= 9 is a row or skipped, and a
    # pair is skipped exactly when deg U * s0(m, n) exceeds the budget
    from fqtlab.deltalab import s0
    code, out, _ = run_cli(capsys, "delta-lab", "--q", "3", "--U", "t^2+t",
                           "--n", "9", "--sweep", "--budget", "40")
    assert code == 0
    result = envelope(out)["result"]
    pairs = [(m, n) for n in range(1, 10) for m in range(n)]
    kept = [(m, n) for m, n in pairs if 2 * s0(m, n) <= 40]
    assert [(r["spec"]["m"], r["spec"]["n"]) for r in result["rows"]] == kept
    assert result["skipped"] == len(pairs) - len(kept)
