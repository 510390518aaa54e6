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
    # (-1)^(k+1) read as (+1)^(k+1) gives the weights of f = 1/(1 - l) in place
    # of 1 + l: the line laws on c see it, and the laws on random elements hold
    # for any weight table
    original = lambda_ring._chern_weights
    outcomes = mutants.sample(["lambda_ring._chern_weights"])
    assert lambda_ring._chern_weights is original is verify._chern_weights
    flipped = [o for o in outcomes if o.change == "-1 -> +1"]
    assert len(flipped) == 1
    assert flipped[0].checks == ["homomorphism"]
    assert flipped[0].laws == ["line law fails: c([a_n]) != 1 + l for l = a_n",
                               "line law fails: c(-[a_n]) != 1/(1 + l) for l = a_n"]
    # the equivalent survivors: an unread weight at degree 0, a sign of the same
    # parity, and a weight past the truncation
    assert [o.change for o in outcomes if not o.killed] == [
        "0 -> 1", "0 -> -1", "k + 1 -> k - 1", "D + 1 -> D + 2"]


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
