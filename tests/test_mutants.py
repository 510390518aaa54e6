"""The mutation sampler ``tools/mutants.py`` on one small target."""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

from charcalc import cli, lambda_ring, verify

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = sys.modules["mutants"] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


def test_the_line_laws_kill_a_chern_weight_mutant():
    # k g_k = k f_k + sum_j ... in place of - gives wrong weights for every line
    # value, the Chern and the Todd one alike: the line laws see it on both
    # classes, and the laws on random elements hold for any weights
    original = lambda_ring._line_weights
    outcomes = mutants.sample(["lambda_ring._line_weights"])
    assert lambda_ring._line_weights is original
    assert not hasattr(verify, "_line_weights")  # read by the exp kernel alone
    flipped = [o for o in outcomes if o.change.startswith("f[k] - Fraction(")]
    assert len(flipped) == 1
    assert flipped[0].change.split(" -> ")[1].startswith("f[k] + Fraction(")
    assert flipped[0].checks == ["homomorphism"]
    assert flipped[0].laws == [f"line law fails: {law} for l = a_n" for law in (
        "Td([a_n]) != l/(1 - e^-l)", "c([a_n]) != 1 + l",
        "Td(-[a_n]) != (1 - e^-l)/l", "c(-[a_n]) != 1/(1 + l)")]
    # the equivalent survivors: g_0 moved to +-1, which no term of the sum reads
    # and whose weight at degree 0 the exp kernel never reads, and a term j = 0,
    # which is multiplied by j = 0
    assert [o.change for o in outcomes if not o.killed] == [
        "[0] -> [1]", "[0] -> [-1]", "range(1, k) -> range(0, k)"]


def test_the_ch_kernel_leaves_only_its_known_survivors():
    # the closing table's rows have none: a wrong row fails the ch laws, or the line
    # laws, whose one-entry roots close from it; the walk and the steps keep the
    # equivalent survivors of the docstring: a shift that zip never reaches, the
    # steps for a room of D + 1, and a step k = room + 1 of weight C(room, k) = 0
    original = lambda_ring._Closing.__missing__
    outcomes = mutants.sample(["lambda_ring._Closing.__missing__"])
    assert lambda_ring._Closing.__missing__ is original
    assert len(outcomes) > 10 and all(o.killed for o in outcomes)
    assert {o.checks[0] for o in outcomes if o.checks} == {"homomorphism"}
    outcomes = mutants.sample(["lambda_ring._ch_terms", "lambda_ring._ch_steps"])
    assert [o.change for o in outcomes if not o.killed] == [
        "x.symbol_count + 1 -> x.symbol_count + 2", "D + 1 -> D + 2", "room + 1 -> room + 2"]


@pytest.mark.parametrize("options, rank", (([], "4"), (["--rank-max", "2"], "2")))
def test_rank_max_is_the_rank_each_run_of_verify_reaches(options, rank, monkeypatch, capsys):
    ranks, original = [], cli.main

    def recorded(argv):
        ranks.append(argv[argv.index("--rank-max") + 1])
        return original(argv)

    monkeypatch.setattr(cli, "main", recorded)
    assert mutants.main([*options, "lambda_ring._gamma_weights"]) == 0
    count = int(re.search(r"^(\d+) mutants, ", capsys.readouterr().out, re.MULTILINE).group(1))
    assert ranks == [rank] * (1 + count)  # the unmutated run, then one per mutant
