"""Command-line behavior: output shape, exit codes, determinism."""

import argparse
import importlib
import json
import math
import os
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest

from charcalc import cli
from charcalc.cli import build_parser, main
from charcalc.conductor import PRIME_LIMIT, conductor
from charcalc.modelfile import load_model
from charcalc.series import dominant_exponents
from charcalc.verify import CHECKS, CheckResult

from test_modelfile import (
    DERIVED_PAST_DIGIT_LIMIT,
    DERIVED_PAST_DIGIT_LIMIT_MESSAGE,
    HOSTILE_MODELS,
    REPEATED_KEY_MESSAGES,
    repeated_key_text,
)

MODELS = Path(__file__).resolve().parent.parent / "models"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- verify -------------------------------------------------------------------


def test_verify_small_ranks_passes(capsys):
    code, out, _ = run(
        capsys, "verify", "--checks", "gala,borel_serre", "--rank-min", "1",
        "--rank-max", "3",
    )
    assert code == 0
    assert "FAIL" not in out
    assert "checks passed" in out


def test_verify_unknown_check_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--checks", "gala,unknown")
    assert code == 2
    assert "unknown checks" in err


def test_verify_rank_cap(capsys):
    code, _, err = run(capsys, "verify", "--rank-min", "1", "--rank-max", "13")
    assert code == 2
    assert "combinatorially" in err


def test_verify_rank_cap_override(capsys):
    code, out, _ = run(
        capsys, "verify", "--checks", "gala", "--rank-min", "7", "--rank-max", "7",
        "--rank-cap", "7",
    )
    assert code == 0


def test_orbit_count_is_the_keys_symmetric_ch_walks():
    for n in range(9):
        for D in range(17):
            assert cli._orbits(n, D) == sum(1 for _ in dominant_exponents(n, D)), (n, D)
    # the partitions of 0..D into at most 12 parts, past what the walk counts quickly
    assert [cli._orbits(12, D) for D in (24, 32, 48, 64)] == [6_720, 35_616, 531_567, 4_636_059]
    assert cli._orbits(8000, 64) == cli._orbits(64, 64)


def no_checks(*args):
    raise AssertionError("a refused verify ran its checks")


@pytest.mark.parametrize(
    "argv, message",
    [
        # over the degree limit 64; this input used to run for minutes
        (["--checks", "borel_serre", "--rank-max", "1", "--max-degree", "400"],
         "--max-degree 400 exceeds the limit 64"),
        (["--max-degree", "65"], "--max-degree 65 exceeds the limit 64"),
        (["--checks", "gala,borel_serre", "--rank-max", "12", "--max-degree", "45"],
         "--max-degree 45 at --rank-max 12 means 336,276 orbits, over 300,000"),
        (["--checks", "ch_gamma", "--rank-max", "12", "--max-degree", "45"],
         "--max-degree 45 at --rank-max 12 means 336,276 orbits, over 300,000"),
    ],
    ids=["degree-400", "degree-65", "borel_serre-n12-D45", "ch_gamma-n12-D45"],
)
def test_verify_refuses_costly_max_degree(capsys, monkeypatch, argv, message):
    monkeypatch.setattr(cli, "_run_checks", no_checks)
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_verify_refuses_max_degree_with_a_huge_term_count(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_run_checks", no_checks)
    code, out, err = run(capsys, "verify", "--rank-max", "12", "--max-degree", "1" + "0" * 400)
    assert (code, out) == (2, "")
    assert err == f"error: --max-degree 1{'0' * 400} exceeds the limit 64\n"


def refusal(*argv):
    return cli._verify_refusal(list(CHECKS), build_parser().parse_args(["verify", *argv]))


def test_verify_sizes_every_rank_at_the_largest_degree_quickly():
    # the refusal is asked for directly, as a refusal that failed to fire would run the checks
    refused = []
    for n in range(1, 65):
        start = time.process_time()
        answer = refusal("--rank-max", str(n), "--rank-cap", "64", "--max-degree", "64")
        assert time.process_time() - start < 1.0, n
        if answer:
            orbits = f"{cli._orbits(n, 64):,} orbits"
            assert answer == f"--max-degree 64 at --rank-max {n} means {orbits}, over 300,000"
            refused.append(n)
    # from rank 63 on, degree 64 is at most n + 1 and runs as the default does
    assert refused == list(range(6, 63))
    start = time.process_time()
    assert refusal("--rank-max", "8000", "--rank-cap", "8000", "--max-degree", "64") is None
    over = refusal("--rank-max", "8000", "--rank-cap", "8000", "--max-degree", "65")
    assert over == "--max-degree 65 exceeds the limit 64"
    assert time.process_time() - start < 1.0


@pytest.mark.parametrize(
    "argv",
    [
        ["--checks", "borel_serre,ch_gamma", "--rank-min", "8", "--rank-max", "8",
         "--max-degree", "12"],
        ["--checks", "borel_serre", "--rank-min", "12", "--rank-max", "12", "--max-degree", "16"],
        ["--checks", "borel_serre,ch_gamma", "--rank-min", "12", "--rank-max", "12",
         "--max-degree", "24"],
        # gala ignores --max-degree, so no degree is refused for it
        ["--checks", "gala", "--rank-max", "3", "--max-degree", "32"],
        ["--checks", "gala", "--rank-min", "7", "--rank-max", "7", "--rank-cap", "7",
         "--max-degree", "9"],
        ["--checks", "gala", "--rank-max", "3", "--max-degree", "65"],
    ],
    ids=["borel_serre,ch_gamma-n8-D12", "borel_serre-n12-D16", "borel_serre,ch_gamma-n12-D24",
         "gala-n3-D32", "gala-n7-D9", "gala-n3-D65"],
)
def test_verify_runs_raised_degrees_the_orbits_afford(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert (code, err) == (0, "")
    assert "FAIL" not in out


def test_verify_accepts_largest_budgets(capsys):
    # 65 orbits at rank 1, the largest degree
    code, out, err = run(capsys, "verify", "--rank-max", "1", "--max-degree", "64")
    assert (code, err) == (0, "")
    assert "PASS borel_serre max_degree=64 n=1" in out
    assert "PASS ch_gamma max_degree=64 n=1" in out


def test_verify_accepts_clamping_max_degree_at_rank_8(capsys):
    # a --max-degree from 0 up to a check's default degree keeps that default, so it
    # runs what the plain command runs; a check that reads no degree runs the plain
    # command at any degree (gala at 0 used to be sized as a dense series at degree 9)
    for name, (_, default) in CHECKS.items():
        argv = ["verify", "--checks", name, "--rank-min", "8", "--rank-max", "8"]
        plain = run(capsys, *argv)
        assert (plain[0], plain[2]) == (0, ""), name
        for D in range(default(8) + 1) if default else [0, 6]:
            assert run(capsys, *argv, "--max-degree", str(D)) == plain, (name, D)


def test_verify_takes_its_checks_from_the_table(monkeypatch, capsys):
    # a table in another order, with one more check that reads the degree: the
    # --checks default and help, the unknown-check message, the checks named by the
    # --max-degree help, the dispatch and the degree clamp all follow it
    def extra(n, D):
        return [CheckResult("extra", {"n": n, "max_degree": D}, True)]

    table = {"extra": (extra, lambda n: n), **dict(reversed(CHECKS.items()))}
    monkeypatch.setattr(cli, "CHECKS", table)
    monkeypatch.setenv("COLUMNS", "300")
    build_parser.cache_clear()
    try:
        assert build_parser().parse_args(["verify"]).checks == ",".join(table)
        _, out, _ = run(capsys, "verify", "--help")
        assert f"comma-separated subset of {{{','.join(table)}}}\n" in out
        degree_checks = " and ".join(name for name, (_, default) in table.items() if default)
        assert degree_checks == "extra and ch_gamma and borel_serre"
        assert f"raise the truncation degree of {degree_checks}, to at most 64" in out
        message = f"error: unknown checks ['nonsense']; choose from {list(table)}\n"
        assert run(capsys, "verify", "--checks", "nonsense") == (2, "", message)
        argv = ["verify", "--checks", "extra", "--rank-max", "3"]
        # each rank at the larger of its default degree n and --max-degree 2
        lines = [f"PASS extra max_degree={D} n={n}\n" for n, D in [(1, 2), (2, 2), (3, 3)]]
        expected = "".join(lines)
        assert run(capsys, *argv, "--max-degree", "2") == (0, expected + "3/3 checks passed\n", "")
        assert run(capsys, *argv, "--max-degree", "65")[0] == 2
    finally:
        build_parser.cache_clear()


def test_verify_bad_range(capsys):
    code, _, err = run(capsys, "verify", "--rank-min", "3", "--rank-max", "2")
    assert code == 2


def test_verify_machine_output_round_trips(capsys):
    code, out, _ = run(
        capsys, "verify", "--checks", "prop_chtd", "--rank-min", "1", "--rank-max", "2",
        "--output", "machine",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "pass"
    assert all(c["ok"] for c in payload["checks"])
    assert [c["check"] for c in payload["checks"]] == ["prop_chtd", "prop_chtd"]
    # the machine block mirrors the internal results exactly
    from charcalc.cli import _run_checks

    internal = [r.as_dict() for r in _run_checks(["prop_chtd"], 1, 2, None)]
    assert payload["checks"] == internal


def test_verify_runs_a_repeated_check_once(capsys):
    code, out, err = run(capsys, "verify", "--rank-max", "2", "--checks", " gala , gala ")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "3/3 checks passed"
    _, once, _ = run(capsys, "verify", "--rank-max", "2", "--checks", "gala")
    assert out == once
    # first-seen order
    _, out, _ = run(capsys, "verify", "--rank-max", "1", "--checks", "prop_chtd,gala,prop_chtd")
    assert [line.split()[1] for line in out.splitlines()[:-1]] == ["prop_chtd", "gala"]


def test_verify_deterministic_output(capsys):
    args = ("verify", "--checks", "gala,homomorphism", "--rank-min", "1",
            "--rank-max", "2", "--output", "machine")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_verify_empty_check_list_is_usage_error(capsys):
    assert run(capsys, "verify", "--checks", ",") == (2, "", "error: --checks selected no checks\n")


def test_verify_prints_a_failing_check_with_its_detail(capsys, monkeypatch):
    from charcalc import verify
    from charcalc.lambda_ring import todd_line

    # Todd's degree-1 coefficient 1/2 read as 3/2
    monkeypatch.setattr(verify, "todd_line", lambda D: [c + (k == 1) for k, c in enumerate(todd_line(D))])
    code, out, err = run(capsys, "verify", "--checks", "gala,prop_chtd", "--rank-max", "1")
    assert (code, err) == (1, "")
    assert out == (
        "PASS gala rank=1\n"
        "FAIL prop_chtd n=1  (degree 1 component: 1 terms differ, lowest degree 1; m(1): -3/2 vs -1/2)\n"
        "1/2 checks passed\n"
    )


# -- conductor ----------------------------------------------------------------


def test_conductor_good_reduction(capsys):
    code, out, _ = run(
        capsys, "conductor", "--model", str(MODELS / "good_reduction.json")
    )
    assert code == 0
    assert "A(X) = 1" in out
    assert "log|eps(X)| = 0" in out


def test_conductor_i3_text(capsys):
    code, out, _ = run(capsys, "conductor", "--model", str(MODELS / "elliptic_i3.json"))
    assert code == 0
    assert "exponent f_5 = -3" in out
    assert "bloch degree = 3" in out
    assert "A(X) = 5^-3" in out
    assert "-3*log(5)" in out
    assert "approximate" in out


def test_conductor_machine_round_trip(capsys):
    path = MODELS / "elliptic_i3.json"
    code, out, _ = run(capsys, "conductor", "--model", str(path), "--output", "machine")
    assert code == 0
    payload = json.loads(out)
    report = conductor(load_model(path))
    assert payload["report"] == json.loads(json.dumps(report.as_dict()))
    assert payload["status"] == "pass"


def test_conductor_machine_deterministic(capsys):
    args = ("conductor", "--model", str(MODELS / "elliptic_i3.json"),
            "--output", "machine")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def _two_line_model(chi):
    """Two lines meeting in a stratum, every closed characteristic ``chi``: the
    open singletons vanish, so f_5 = chi(X_Q) - chi(X_5) = -chi."""
    strata = [["C1"], ["C2"], ["C1", "C2"]]
    return {
        "relative_dimension": 1,
        "generic_euler": 0,
        "fibers": [
            {
                "prime": 5,
                "components": [{"id": c, "multiplicity": 1} for c in ("C1", "C2")],
                "strata": [{"components": J, "chi_closed": chi} for J in strata],
            }
        ],
    }


@pytest.mark.parametrize(
    "case, log_eps_over_1e400",
    [
        # f_5 = -10^400 and (d + 1)/2 = 1
        ("exponent", -math.log(5)),
        # f_5 = -3 and (d + 1)/2 = (10^400 + 1)/2
        ("dimension", -1.5 * math.log(5)),
    ],
    ids=["exponent", "dimension"],
)
def test_conductor_approximates_log_eps_past_the_float_range(
    tmp_path, capsys, case, log_eps_over_1e400
):
    if case == "exponent":
        doc = _two_line_model(10**400)
    else:
        doc = json.loads((MODELS / "elliptic_i3.json").read_text(encoding="utf-8"))
        doc["relative_dimension"] = 10**400
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    approx = f"{log_eps_over_1e400:.12g}e+400"
    code, out, err = run(capsys, "conductor", "--model", str(path))
    assert (code, err) == (0, "")
    assert f"~= {approx}  [approximate]" in out
    code, out, err = run(capsys, "conductor", "--model", str(path), "--output", "machine")
    assert (code, err) == (0, "")
    assert json.loads(out)["log_eps_approx"] == approx


def test_conductor_approximates_log_eps_that_cancels(tmp_path, capsys):
    # f_2 = 16785921 and f_3 = -10590737: the two terms, about 1.16e7 each, cancel
    # in 14 leading digits, which leaves floats only 2 good digits of the sum
    def fiber(prime, chi_line, chi_node):
        return {
            "prime": prime,
            "components": [{"id": c, "multiplicity": 1} for c in ("A", "B")],
            "strata": [
                {"components": ["A"], "chi_closed": chi_line},
                {"components": ["B"], "chi_closed": chi_line},
                {"components": ["A", "B"], "chi_closed": chi_node},
            ],
        }

    doc = {
        "relative_dimension": 1,
        "fibers": [fiber(2, -27376658, -16785921), fiber(3, 0, 10590737)],
    }
    path = tmp_path / "cancels.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    # 16785921*log(2) - 10590737*log(3) to 60 digits:
    # -5.23005199909252898024378947829170234018247116823999873644869e-8
    approx = "-5.23005199909e-8"
    code, out, err = run(capsys, "conductor", "--model", str(path))
    assert (code, err) == (0, "")
    assert "log|eps(X)| = 16785921*log(2) - 10590737*log(3)  [exact]" in out
    assert f"~= {approx}  [approximate]" in out
    code, out, err = run(capsys, "conductor", "--model", str(path), "--output", "machine")
    assert (code, err) == (0, "")
    assert json.loads(out)["log_eps_approx"] == approx


def _cancelling_model(f2, f3):
    """Exponents f_2 and f_3 at d = 1, so that log|eps(X)| = f_2 log 2 + f_3 log 3; chi(X_Q)
    is inferred from the fiber at 2 and the fiber at 3 agrees with it."""
    def fiber(prime, chi_line, chi_node):
        return {
            "prime": prime,
            "components": [{"id": c, "multiplicity": 1} for c in ("A", "B")],
            "strata": [
                {"components": ["A"], "chi_closed": chi_line},
                {"components": ["B"], "chi_closed": chi_line},
                {"components": ["A", "B"], "chi_closed": chi_node},
            ],
        }

    return {"relative_dimension": 1, "fibers": [fiber(2, f3 - f2, -f2), fiber(3, 0, -f3)]}


@pytest.mark.parametrize(
    "f2, f3",
    [
        # convergents of log 3 / log 2: the two terms cancel in 30 to 38 leading digits
        (766512153894657, -483615324366283),
        (206745572560704147, -130441933147714940),
        (6724555128221608268, -4242721909926539673),
    ],
)
def test_conductor_approximates_log_eps_that_cancels_past_30_digits(tmp_path, capsys, f2, f3):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(80):
        approx = mpmath.nstr(f2 * mpmath.log(2) + f3 * mpmath.log(3), 12)
    path = tmp_path / "cancels.json"
    path.write_text(json.dumps(_cancelling_model(f2, f3)), encoding="utf-8")
    code, out, err = run(capsys, "conductor", "--model", str(path), "--output", "machine")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["report"]["conductor_factors"] == {"2": f2, "3": f3}
    assert report["log_eps_approx"] == approx


def test_conductor_wild_model_refused(capsys):
    code, _, err = run(capsys, "conductor", "--model", str(MODELS / "wild.json"))
    assert code == 1
    assert "not tame" in err
    assert "C2" in err


def test_conductor_missing_model_file(capsys):
    code, _, err = run(capsys, "conductor", "--model", "no/such/file.json")
    assert code == 2
    assert "cannot read" in err


def test_conductor_invalid_model(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"relative_dimension": 1}', encoding="utf-8")
    code, _, err = run(capsys, "conductor", "--model", str(path))
    assert code == 2
    assert "missing fields" in err


def test_conductor_inconsistent_model(tmp_path, capsys):
    doc = {
        "relative_dimension": 1,
        "generic_euler": 0,
        "fibers": [
            {
                "prime": 5,
                "components": [{"id": "C1", "multiplicity": 1}],
                "strata": [{"components": ["C1"], "chi_closed": 3}],
            }
        ],
    }
    path = tmp_path / "inconsistent.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, "conductor", "--model", str(path))
    assert code == 1
    assert "check failed" in err


def test_conductor_prime_at_limit_refused(tmp_path, capsys):
    doc = {
        "relative_dimension": 1,
        "fibers": [
            {
                "prime": PRIME_LIMIT,
                "components": [{"id": "C1", "multiplicity": 1}],
                "strata": [{"components": ["C1"], "chi_closed": 0}],
            }
        ],
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, "conductor", "--model", str(path))
    assert code == 2
    assert err.startswith("error: ") and "primality" in err


# Strata that pass the loader's structural check but fail normalization.
NORMALIZATION_ERRORS = {
    "mixed": (
        [
            {"components": ["C1"], "chi_closed": 2},
            {"components": ["C2"], "chi_open": 0},
            {"components": ["C1", "C2"], "chi_closed": 2},
        ],
        "mixed strata data; supply chi_closed for all strata or chi_open for "
        "all strata",
    ),
    "open-disagrees": (
        [
            {"components": ["C1"], "chi_closed": 2, "chi_open": 1},
            {"components": ["C2"], "chi_closed": 2},
            {"components": ["C1", "C2"], "chi_closed": 2},
        ],
        "stratum ['C1'] declares chi_open=1 but inclusion-exclusion gives 0",
    ),
}


@pytest.mark.parametrize("command", ["conductor", "explain"])
@pytest.mark.parametrize("case", sorted(NORMALIZATION_ERRORS))
def test_normalization_error_is_validation_error(tmp_path, capsys, command, case):
    strata, message = NORMALIZATION_ERRORS[case]
    doc = {
        "relative_dimension": 1,
        "generic_euler": 0,
        "fibers": [
            {
                "prime": 7,
                "components": [
                    {"id": "C1", "multiplicity": 1},
                    {"id": "C2", "multiplicity": 1},
                ],
                "strata": strata,
            }
        ],
    }
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, command, "--model", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: fiber at p=7: {message}\n"


@pytest.mark.parametrize("command", ["conductor", "explain"])
@pytest.mark.parametrize("case", sorted(HOSTILE_MODELS))
def test_hostile_model_file_is_parse_error(tmp_path, capsys, command, case):
    content, message = HOSTILE_MODELS[case]
    path = tmp_path / f"{case}.json"
    path.write_bytes(content)
    code, out, err = run(capsys, command, "--model", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: ") and message in err


@pytest.mark.parametrize("options", [["conductor"], ["conductor", "--output", "machine"],
                                     ["explain"]], ids=" ".join)
def test_repeated_key_exits_2(tmp_path, capsys, options):
    # "prime": 5, "prime": 7: json alone keeps the last value and runs p = 7
    path = tmp_path / "model.json"
    path.write_text(repeated_key_text("fiber"), encoding="utf-8")
    command, *rest = options
    code, out, err = run(capsys, command, "--model", str(path), *rest)
    message = REPEATED_KEY_MESSAGES["fiber"]
    assert (code, out, err) == (2, "", f"error: {path}: invalid JSON: {message}\n")


def full_simplex(n: int, prime: int = 5) -> dict:
    """n components of multiplicity 1 that all meet, chi_open = 1 on each of
    the 2^n - 1 strata."""
    ids = [f"C{i}" for i in range(1, n + 1)]
    return {
        "relative_dimension": n,
        "fibers": [{
            "prime": prime,
            "components": [{"id": cid, "multiplicity": 1} for cid in ids],
            "strata": [{"components": list(J), "chi_open": 1}
                       for size in range(1, n + 1) for J in combinations(ids, size)],
        }],
    }


@pytest.mark.parametrize("options", [["conductor", "--output", "machine"], ["explain"]],
                         ids=lambda options: options[0])
def test_full_simplex_on_14_components(tmp_path, capsys, options):
    # 16,383 strata: chi(X_5) = 2^14 - 1 and sum m_i chi*(T_i) = 14, so the exponent
    # is 14 - 16383 and log|eps| = (14 + 1)/2 * -16369 log(5)
    path = tmp_path / "simplex.json"
    path.write_text(json.dumps(full_simplex(14)), encoding="utf-8")
    command, *rest = options
    start = time.process_time()
    code, out, err = run(capsys, command, "--model", str(path), *rest)
    elapsed = time.process_time() - start
    assert (code, err) == (0, "")
    if command == "conductor":
        report = json.loads(out)["report"]
        assert report["conductor_factors"] == {"5": -16369}
        assert report["log_eps_terms"] == [{"prime": 5, "coefficient": "-245535/2"}]
    else:
        # the table prints every stratum, by depth and then members, with chi(T_J) = 2^(14 - |J|)
        lines = out.splitlines()
        rows = [line.split() for line in lines if line.startswith("  {")]
        assert len(rows) == 16383
        assert rows[0] == ["{C1}", "1", "8192", "1"]
        assert rows[-1] == ["{" + ",".join(sorted(f"C{i}" for i in range(1, 15))) + "}", "1", "1"]
        assert "A(X) = 5^-16369" in lines
        assert lines[-1].endswith(" = -245535/2*log(5)")
    assert elapsed < 2.5  # inclusion-exclusion over all 2^|J| subsets took over 5 s


@pytest.mark.parametrize("options", [["conductor"], ["conductor", "--output", "machine"],
                                     ["explain"]], ids=" ".join)
def test_mismatch_past_the_digit_limit_exits_2(tmp_path, capsys, options):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(DERIVED_PAST_DIGIT_LIMIT), encoding="utf-8")
    command, *rest = options
    code, out, err = run(capsys, command, "--model", str(path), *rest)
    assert (code, out, err) == (2, "", f"error: {DERIVED_PAST_DIGIT_LIMIT_MESSAGE}\n")


@pytest.mark.parametrize("command", ["conductor", "explain"])
def test_cli_validates_each_fiber_once(monkeypatch, capsys, command):
    # the package exports a function named conductor over the module's name
    conductor_module = importlib.import_module("charcalc.conductor")
    validated = []
    original = conductor_module.validate_fiber

    def counted(fiber, *args):
        validated.append(fiber.prime)
        return original(fiber, *args)

    monkeypatch.setattr(conductor_module, "validate_fiber", counted)
    path = Path(__file__).resolve().parent / "golden" / "models" / "two_primes_inferred.json"
    code, _, _ = run(capsys, command, "--model", str(path))
    assert code == 0
    assert sorted(validated) == [5, 11]


@pytest.mark.parametrize("command", ["conductor", "explain"])
def test_cli_validates_and_normalizes_each_fiber_once(monkeypatch, capsys, command):
    model = MODELS / "elliptic_i3.json"
    primes = [f.prime for f in load_model(model).fibers]
    conductor_module = importlib.import_module("charcalc.conductor")
    calls = {"validate_fiber": [], "normalize_fiber": []}
    for name, seen in calls.items():
        original = getattr(conductor_module, name)

        def counted(fiber, *args, original=original, seen=seen):
            seen.append(fiber.prime)
            return original(fiber, *args)

        monkeypatch.setattr(conductor_module, name, counted)
    code, _, _ = run(capsys, command, "--model", str(model))
    assert code == 0
    assert calls == {"validate_fiber": primes, "normalize_fiber": primes}


# -- explain ------------------------------------------------------------------


def test_explain_i3(capsys):
    code, out, _ = run(capsys, "explain", "--model", str(MODELS / "elliptic_i3.json"))
    assert code == 0
    assert "{C1,C2}" in out
    assert "bloch degree two ways" in out
    assert "f_5 = chi(X_Q) - chi(X_5) = 0 - 3 = -3" in out


def test_explain_i2_table_values(tmp_path, capsys):
    doc = {
        "relative_dimension": 1,
        "generic_euler": 0,
        "fibers": [
            {
                "prime": 7,
                "components": [
                    {"id": "C1", "multiplicity": 1},
                    {"id": "C2", "multiplicity": 1},
                ],
                "strata": [
                    {"components": ["C1"], "chi_closed": 2},
                    {"components": ["C2"], "chi_closed": 2},
                    {"components": ["C1", "C2"], "chi_closed": 2},
                ],
            }
        ],
    }
    path = tmp_path / "i2.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "explain", "--model", str(path))
    assert code == 0
    lines = {line.split()[0]: line.split() for line in out.splitlines() if line.strip().startswith("{")}
    assert lines["{C1}"][-1] == "0"
    assert lines["{C2}"][-1] == "0"
    assert lines["{C1,C2}"][-1] == "2"


def test_explain_single_component(tmp_path, capsys):
    doc = {
        "relative_dimension": 1,
        "generic_euler": -2,
        "fibers": [
            {
                "prime": 7,
                "components": [{"id": "C1", "multiplicity": 1}],
                "strata": [{"components": ["C1"], "chi_closed": -2}],
            }
        ],
    }
    path = tmp_path / "smooth.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "explain", "--model", str(path))
    assert code == 0
    assert "{C1}" in out
    assert "A(X) = 1" in out


def test_explain_missing_chi_named(tmp_path, capsys):
    doc = {
        "relative_dimension": 1,
        "fibers": [
            {
                "prime": 7,
                "components": [{"id": "C1", "multiplicity": 1}],
                "strata": [{"components": ["C1"]}],
            }
        ],
    }
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, "explain", "--model", str(path))
    assert code == 2
    assert "C1" in err


def test_explain_wild_model(capsys):
    code, out, err = run(capsys, "explain", "--model", str(MODELS / "wild.json"))
    assert code == 1
    assert "not tame" in out or "not tame" in err


# -- usage --------------------------------------------------------------------


def test_no_command_is_usage_error(capsys):
    assert main([]) == 2


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def count_parsers(monkeypatch):
    """The prog of every ArgumentParser built from here on."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return built


COMMAND_ARGVS = {
    "verify": ["verify", "--checks", "gala", "--rank-max", "1"],
    "conductor": ["conductor", "--model", str(MODELS / "good_reduction.json")],
    "explain": ["explain", "--model", str(MODELS / "good_reduction.json")],
}


def test_the_first_call_builds_the_full_parser(monkeypatch, capsys):
    build_parser.cache_clear()
    built = count_parsers(monkeypatch)
    assert main(COMMAND_ARGVS["verify"]) == 0
    assert built == ["charcalc", "charcalc verify", "charcalc conductor", "charcalc explain"]
    assert main(["--help"]) == 0
    assert len(built) == 4


@pytest.mark.parametrize("command", COMMAND_ARGVS)
def test_a_command_reuses_the_parser(monkeypatch, capsys, command):
    build_parser()
    built = count_parsers(monkeypatch)
    assert main(COMMAND_ARGVS[command]) == 0
    assert main([command, "--help"]) == 0
    assert built == []


@pytest.mark.parametrize("argv", [[], ["frobnicate"], ["verify", "--bogus"]],
                         ids=["no-command", "unknown-command", "unknown-option"])
def test_usage_errors_reuse_the_full_parser(monkeypatch, capsys, argv):
    build_parser()
    built = count_parsers(monkeypatch)
    assert main(argv) == 2
    assert built == []
    assert capsys.readouterr().err.startswith("usage: charcalc [-h]")


def test_a_reused_parser_keeps_no_values(capsys):
    # each call starts from the defaults, whatever the call before it passed
    code, out, _ = run(capsys, "verify", "--rank-max", "3", "--max-degree", "6")
    assert code == 0 and "PASS borel_serre max_degree=6 n=3" in out
    code, out, _ = run(capsys, "verify", "--rank-max", "3")
    assert code == 0 and "PASS borel_serre max_degree=3 n=3" in out
    model = str(MODELS / "elliptic_i3.json")
    code, out, _ = run(capsys, "conductor", "--model", model, "--output", "machine")
    assert code == 0 and json.loads(out)["command"] == "conductor"
    code, out, _ = run(capsys, "conductor", "--model", model)
    assert code == 0 and out.startswith("relative dimension d = 1\n")


def test_a_reused_parser_wraps_help_to_the_current_width(monkeypatch, capsys):
    helps = []
    for columns in ("80", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        code, out, _ = run(capsys, "verify", "--help")
        assert code == 0
        helps.append(out)
    narrow, wide = helps
    assert narrow != wide
    assert max(map(len, narrow.splitlines())) <= 80 < max(map(len, wide.splitlines()))


def test_main_reads_sys_argv_by_default(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["charcalc", "verify", "--checks", "gala", "--rank-max", "2"])
    assert main() == 0
    assert capsys.readouterr().out.endswith("3/3 checks passed\n")


def test_python_m_runs_the_cli():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "charcalc.cli", "verify", "--checks", "gala", "--rank-max", "2"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0
    assert done.stdout.endswith("3/3 checks passed\n")
