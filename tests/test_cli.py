"""Command-line behavior: output shape, exit codes, determinism."""

import importlib
import json
import math
import time
from pathlib import Path

import pytest

from charcalc import cli
from charcalc.cli import build_parser, main
from charcalc.conductor import PRIME_LIMIT, conductor
from charcalc.lambda_ring import KElement, alternating_lambda_sum, gamma_k
from charcalc.modelfile import load_model
from charcalc.series import dominant_exponents
from charcalc.verify import generic_lines

from test_modelfile import (
    DERIVED_PAST_DIGIT_LIMIT,
    DERIVED_PAST_DIGIT_LIMIT_MESSAGE,
    HOSTILE_MODELS,
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


def prefix_terms(x, D: int, trivial: bool) -> int:
    """The root-prefix terms symmetric_ch sums for x at degree D: at each dominant
    e with k nonzero entries, one per distinct k-prefix of the roots of x, only the
    prefixes with no zero entry when the line value is trivial."""
    roots = dict(x.terms())
    n = x.symbol_count
    return sum(
        len({r[:k] for r in roots if not trivial or all(r[:k])})
        for k in (n - e.count(0) for e in dominant_exponents(n, D))
    )


def test_root_prefix_count_bounds_the_terms_symmetric_ch_sums():
    for n in range(1, 8):
        E = generic_lines(n)
        borel_serre = alternating_lambda_sum(E.dual())
        ch_gamma = gamma_k(E - n * KElement.unit(n), n - 1)
        for D in range(13):
            bound = cli._root_prefixes(n, D)
            assert bound >= prefix_terms(borel_serre, D, trivial=False), (n, D)
            assert bound >= prefix_terms(ch_gamma, D, trivial=True), (n, D)


def no_checks(*args):
    raise AssertionError("a refused verify ran its checks")


@pytest.mark.parametrize(
    "argv, message",
    [
        # over the degree limit 64; this input used to run for minutes
        (["--checks", "borel_serre", "--rank-max", "1", "--max-degree", "400"],
         "--max-degree 400 exceeds the limit 64"),
        (["--max-degree", "65"], "--max-degree 65 exceeds the limit 64"),
        (["--checks", "gala,borel_serre", "--rank-max", "12", "--max-degree", "24"],
         "--max-degree 24 at --rank-max 12 means over 1,000,000 root prefixes"),
        (["--checks", "ch_gamma", "--rank-max", "12", "--max-degree", "24"],
         "--max-degree 24 at --rank-max 12 means over 1,000,000 root prefixes"),
    ],
    ids=["degree-400", "degree-65", "borel_serre-n12-D24", "ch_gamma-n12-D24"],
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
    return cli._verify_refusal(list(cli.CHECK_NAMES), build_parser().parse_args(["verify", *argv]))


def test_verify_sizes_every_rank_at_the_largest_degree_quickly():
    # the refusal is asked for directly, as a refusal that failed to fire would run the checks
    refused = []
    for n in range(1, 65):
        start = time.process_time()
        answer = refusal("--rank-max", str(n), "--rank-cap", "64", "--max-degree", "64")
        assert time.process_time() - start < 1.0, n
        if answer:
            assert answer.startswith(f"--max-degree 64 at --rank-max {n} means over")
            refused.append(n)
    # from rank 63 on, degree 64 is at most n + 1 and runs as the default does
    assert refused == list(range(5, 63))
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
        # gala ignores --max-degree, so no degree is refused for it
        ["--checks", "gala", "--rank-max", "3", "--max-degree", "32"],
        ["--checks", "gala", "--rank-min", "7", "--rank-max", "7", "--rank-cap", "7",
         "--max-degree", "9"],
        ["--checks", "gala", "--rank-max", "3", "--max-degree", "65"],
    ],
    ids=["borel_serre,ch_gamma-n8-D12", "borel_serre-n12-D16", "gala-n3-D32", "gala-n7-D9",
         "gala-n3-D65"],
)
def test_verify_runs_raised_degrees_the_orbits_afford(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert (code, err) == (0, "")
    assert "FAIL" not in out


def test_verify_accepts_largest_budgets(capsys):
    # 1 + 2 * 64 root prefixes at rank 1, the largest degree
    code, out, err = run(capsys, "verify", "--rank-max", "1", "--max-degree", "64")
    assert (code, err) == (0, "")
    assert "PASS borel_serre max_degree=64 n=1" in out
    assert "PASS ch_gamma max_degree=64 n=1" in out


def test_verify_accepts_clamping_max_degree_at_rank_8(capsys):
    # --max-degree 0 keeps every default degree, so it runs what the plain
    # command runs; it used to be sized as a dense series at degree 9
    argv = ["verify", "--checks", "gala", "--rank-min", "8", "--rank-max", "8"]
    code, out, err = run(capsys, *argv, "--max-degree", "0")
    assert (code, err) == (0, "")
    assert out == run(capsys, *argv)[1]


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


def test_verify_deterministic_output(capsys):
    args = ("verify", "--checks", "gala,homomorphism", "--rank-min", "1",
            "--rank-max", "2", "--output", "machine")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


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
