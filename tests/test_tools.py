"""The rules the development tools size claims with: the claim rule of
``tools/pairs.py`` and the code-line count of ``tools/loc.py``."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def tool(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pairs, loc = tool("pairs"), tool("loc")


@pytest.mark.parametrize("change, won, met", [
    ([9] * 10, 10, True),
    ([9] * 9 + [11], 9, True),
    ([9] * 8 + [11] * 2, 8, False),
    ([9] * 9 + [10], 9, True),
    ([9] * 8 + [10] * 2, 8, False),  # a tie is no win
    ([9] * 18 + [11] * 2, 18, True),
    ([9] * 17 + [11] * 3, 17, False),
])
def test_the_change_must_win_nine_of_ten_pairs(change, won, met):
    base = [10] * len(change)  # no spread, so any median drop is above the IQR
    assert pairs.pairs_won(base, change) == won
    assert pairs.claim_met(base, change) is met


@pytest.mark.parametrize("drop, met", [(1, False), (2, False), (3, True)])
def test_the_median_must_drop_by_more_than_the_base_iqr(drop, met):
    base = [10, 12] * 5  # quartiles 10, 11, 12: an IQR of 2
    change = [b - drop for b in base]  # every pair won
    assert pairs.quartiles(base) == (10, 11, 12)
    assert pairs.pairs_won(base, change) == len(base)
    assert pairs.claim_met(base, change) is met


def test_the_quartiles_of_one_run_are_that_run():
    assert pairs.quartiles([0.25]) == (0.25, 0.25, 0.25)


def test_loc_counts_only_code_lines():
    source = (
        '"""A module docstring\n'
        'over two lines."""\n'
        "\n"
        "# a comment\n"
        "total = (1 +\n"  # code: every line of a multi-line expression
        "         2)\n"  # code
        "\n"
        "\n"
        "class C:\n"  # code
        "    '''A class docstring.'''\n"
        "\n"
        "    def f(self):\n"  # code
        '        """A function\n'
        '        docstring."""\n'
        "        return total  # a trailing comment\n"  # code
        "\n"
        'text = """a string\n'  # code: a string that is not a docstring
        'that is no docstring"""\n'  # code
    )
    assert loc.count(source) == (18, 7)
