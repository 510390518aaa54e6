"""Make operator-swap and +-1-constant mutants of named functions and run
``charcalc verify`` on each, in this process.

A target is a qualified name under the ``charcalc`` package, such as
``lambda_ring._exp_terms`` or ``lambda_ring.KElement.dual``.  Each site of its
body gives mutants:

- a binary, unary, augmented or comparison operator swapped by ``SWAPS``
  (``+`` and ``-``, ``*`` and ``//``, ``%`` to ``//``, ``<`` and ``<=``, ...);
- an integer constant moved by +1 and by -1.

A mutant is the target's source with one site changed, compiled against the
globals of the target's module.  It is bound in place of every attribute of a
``charcalc`` module or class that holds the target, so each caller reads it,
and the original is bound back after the run.  Every ``lru_cache`` of the
package is cleared before and after, so no value that one mutant computed is
read by another.

Each mutant runs ``charcalc verify --rank-max R --output machine``, with R
from ``--rank-max`` (default 4).  It is killed when verify exits non-zero,
raises or runs past ``TIMEOUT`` seconds.
The report gives each mutant's file and line, its change, and the checks that
failed, with the ``homomorphism`` laws that failed; then the count and the
survivors.

Run from anywhere, for example::

    python tools/mutants.py lambda_ring._exp_terms lambda_ring.KElement.dual
    python tools/mutants.py --rank-max 6 lambda_ring._lambda_fold lambda_ring._fold_table

Known equivalent survivors in ``lambda_ring``, which no check can kill:

- ``_exp_terms``: ``weight = 1`` -> ``2`` scales the numerators and the
  denominator alike;
- ``_ch_terms``: ``x.symbol_count + 1`` -> ``+ 2`` adds a shift that ``zip``
  never reaches;
- ``_ch_steps``: ``range(D + 1)`` -> ``range(D + 2)`` adds the steps for a
  room of D + 1, which no root has; ``range(room + 1)`` -> ``range(room + 2)``
  adds a step k = room + 1, whose C(room, k) is 0, so all it adds are zero
  terms, which the kernel may keep.  The rows of the closing table
  (``_Closing.__missing__``) have no survivor: a wrong row fails the ch laws or
  the line laws, which close one-entry roots from it;
- ``_line_weights``: ``g = [0]`` -> ``[1]`` or ``[-1]`` moves g_0, which no
  term of the sum reads, and its weight at degree 0, which the exp kernel
  never reads; ``range(1, k)`` -> ``range(0, k)`` adds a term j = 0, which
  is multiplied by j = 0;
- ``_line_value``: ``D + 1`` -> ``D + 2`` in the cut keeps a coefficient
  past the truncation, which no weight and no ``symmetric_ch`` coefficient
  reads (it may widen a denominator that is reduced away, or turn off the
  shortcut for f = 1), and in the padding, ``D + 1`` -> ``D + 2`` or
  ``D + 1 - len(f)`` -> ``D + 1 + len(f)`` pads zeros past it;
- ``_lambda_terms``: at the base line, ``1 -> 2`` in either place and
  ``2 * t_max -> 3 * t_max`` pack at a wider base, on which no digit carries
  either, and ``default=0`` -> ``1`` or ``-1`` is read only for an element
  with no lines, where ``max(1, ...)`` gives 1 all the same;
- ``_lambda_terms``: ``x.symbol_count + 1`` -> ``+ 2`` adds a power that
  ``zip`` never reaches;
- ``_binomials``: ``t_max + 1`` -> ``t_max + 2`` in either branch adds the
  coefficient of t^(t_max + 1), which neither the lambda kernel, whose room
  for it is -1, nor the fold table, which zips it away, reads;
- ``_fold_table``: ``range(t_max + 1)`` -> ``range(t_max + 2)`` adds the
  weights of a t-power t_max + 1, which no packed lambda term has;
- ``_roots``: ``range(1, n + 1)`` -> ``range(0, n + 1)`` adds B // 2 to
  digit 0, which is 0 in every key it is passed and which no root reads;
  ``n + 1`` -> ``n + 2`` adds to a digit above the top one, which no half
  reads.  The size of the low half is a speed choice, and every size from 1
  to n + 1 digits decodes the same roots: ``n // 2`` -> ``n // 3`` or
  ``n // 1`` keeps it in that range.

Known equivalent survivors in ``verify``:

- ``_same``: ``rhs[0]`` -> ``rhs[-1]`` takes the denominator of the last
  right side for that of the first, and every caller's right sides share one;
  ``d <= 0`` -> ``d < 0`` or ``d <= -1``, and the same for ``e``, let a zero or
  negative denominator through again, which no kernel returns unless it is at
  fault.  Tier-1 kills each of them, in ``tests/test_verify.py``;
- ``_line_laws``: ``factorial(D + 1)`` -> ``D + 2`` scales the numerators and
  the denominator of the closed form (1 - e^-l)/l alike, and
  ``range(D + 1)`` -> ``D + 2`` in that form adds the term of degree D + 1,
  whose numerator (D + 1)! // (D + 2)! is 0;
- ``verify_gala``: ``range(1, n + 1)`` -> ``range(1, n + 2)`` adds a power
  that ``map`` never reaches; ``m + 1`` -> ``m + 2`` adds the term
  C(m, m + 1) = 0; the bound ``0`` -> ``1`` of the packed product keeps pairs
  whose digits 0 sum to 1, and every digit 0 is 0; ``m < 0`` -> ``m <= 0`` or
  ``m < 1`` refuses a zero multiplicity, which no element keeps.

Survivors of ``repeated_root_lines`` change the element that gala checks,
not whether it passes, as gala's identity holds on every effective element:
``+`` -> ``-`` drops the doubled line, ``rank < 2`` -> ``rank < 1`` moves a
refusal that generic_lines makes too, and moving an entry of the added root
adds another effective line.  Tier-1 kills each of them, in
``tests/test_verify.py``.

Survivors of ``verify_hom_laws`` and ``verify_gala`` change what they report
but not whether verify passes: ``D = t_max = 3`` -> ``4`` or ``2`` checks the
same laws, which hold at every degree, at another one; ``_size(cases, ...) < 1``
-> ``<= 1``, ``< 2`` or ``< 0`` and ``n < 1`` -> ``n < 0`` move the refusal of a
case count or a rank, where verify always asks for 20 cases at rank 1 or
more; and gala's ``m < 0`` -> ``m < -1`` passes a multiplicity -1, where
verify passes effective elements alone.  Tier-1 kills each of them, in
``tests/test_verify.py``.

Some survivors in ``lambda_ring`` are real faults that no element of the CLI
reaches, and tier-1 kills each of them:

- ``_lambda_terms``' ``2 * t_max * max(...)`` -> ``2 * t_max // max(...)``
  packs at too narrow a base once a root entry has size 2 or more, so digits
  carry; every root entry of verify is -1..1.  Killed in 14 tests, such as
  ``tests/test_sympy_oracle.py::test_lambda_t_of_a_multiple_is_a_generalized_binomial``;
- ``gamma_t``'s row count ``t_max + 1`` -> ``t_max + 2``, ``t_max`` or
  ``t_max - 1`` folds one gamma^k too many or too few; verify reads no
  gamma_t.  Killed in ``tests/test_lambda_kernel.py``;
- ``alternating_lambda_sum``: ``range(d + 1)`` -> ``range(d + 2)`` weights
  lambda^(d + 1), which the trivial line's (1 + t)^m carries onto the
  lambda^i that are read; verify takes the sum of generic lines alone.
  Killed in ``tests/test_lambda_kernel.py`` and ``tests/test_properties.py``.
  Its refusal ``d < 0`` -> ``d <= 0`` or ``d < 1`` refuses rank 0, which
  verify never passes either; ``tests/test_lambda_ring.py`` kills both.
  ``d < -1`` survives tier-1 too: rank -1 is then refused by the lambda
  kernel, as a negative t_max, with another ValueError;
- ``_roots``: ``n // 2 + 1`` -> ``n // 2 + 2`` gives a root of no symbols
  one digit at n = 0, where verify unpacks nothing; it is killed in
  ``tests/test_verify.py`` and ``tests/test_lambda_kernel.py``.  ``B // 2``
  -> ``B // 3`` decodes a digit of size above B // 3 wrongly; verify's
  entries are smaller.  Killed in 25 tests, nine of them the digit-by-digit
  decode of entries 2^40 in size in ``tests/test_lambda_kernel.py``.

Stdlib only.  A method that calls ``super()`` with no arguments cannot be
compiled outside its class and is refused.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import importlib
import inspect
import io
import json
import re
import signal
import sys
import textwrap
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
    ast.Div: ast.Mult, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult,
    ast.USub: ast.UAdd, ast.UAdd: ast.USub,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
}
RANK_MAX = 4  # the default highest rank verify runs each mutant at
TIMEOUT = 30  # seconds a mutant may run, ten times or more what verify takes
SHOWN = 40  # the longest expression shown around a constant


class Timeout(Exception):
    """A mutant ran past the time limit."""


@dataclass
class Outcome:
    """One mutant: where it is, what it changed, and what failed on it."""

    where: str
    change: str
    checks: list[str] = field(default_factory=list)
    laws: list[str] = field(default_factory=list)
    error: str = ""

    @property
    def killed(self) -> bool:
        return bool(self.checks or self.error)

    def __str__(self) -> str:
        if self.error:
            verdict = f"killed: {self.error}"
        elif self.checks:
            verdict = "killed: " + ", ".join(self.checks)
            if self.laws:
                verdict += " [" + "; ".join(self.laws) + "]"
        else:
            verdict = "SURVIVED"
        return f"{self.where}  {self.change}  {verdict}"


def resolve(name: str):
    """(module, attribute, raw object) of a qualified name; the module is the
    longest prefix that imports, with ``charcalc.`` added when missing."""
    name = name if name.startswith("charcalc.") else f"charcalc.{name}"
    parts = name.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            module = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        owner = module
        for part in parts[cut:-1]:
            owner = getattr(owner, part)
        return module, parts[-1], vars(owner)[parts[-1]]
    raise ValueError(f"no module in {name}")


def _sites(tree: ast.AST) -> list[tuple[ast.AST, str, ast.AST]]:
    """The mutable sites of a function's body in ``ast.walk`` order, as (node,
    kind, shown): kind ``op`` for an operator, ``ops<i>`` for comparison i, and
    ``+1`` and ``-1`` for an integer constant, shown with the expression around
    it when that is short; decorators and the docstring are skipped."""
    function = tree.body[0]
    body = function.body[1:] if ast.get_docstring(function) is not None else function.body
    nodes = [node for statement in body for node in ast.walk(statement)]
    parents = {child: node for node in nodes for child in ast.iter_child_nodes(node)}
    sites = []
    for node in nodes:
        if isinstance(node, (ast.BinOp, ast.UnaryOp, ast.AugAssign)) and type(node.op) in SWAPS:
            sites.append((node, "op", node))
        elif isinstance(node, ast.Compare):
            sites += [(node, f"ops{i}", node) for i, op in enumerate(node.ops) if type(op) in SWAPS]
        elif (isinstance(node, ast.Constant) and isinstance(node.value, int)
              and not isinstance(node.value, bool)):
            parent = parents[node]
            shown = parent if len(ast.unparse(parent)) <= SHOWN else node
            sites += [(node, step, shown) for step in ("+1", "-1")]
    return sites


def _mutate(node: ast.AST, kind: str) -> None:
    if kind == "op":
        node.op = SWAPS[type(node.op)]()
    elif kind.startswith("ops"):
        i = int(kind[3:])
        node.ops[i] = SWAPS[type(node.ops[i])]()
    else:
        node.value += int(kind)


def mutants(name: str):
    """Yield (where, change, mutant object) for every site of the target."""
    module, attribute, raw = resolve(name)
    function = inspect.unwrap(getattr(raw, "__func__", raw))
    lines, first = inspect.getsourcelines(function)
    source = textwrap.dedent("".join(lines))
    if "super()" in source:
        raise ValueError(f"{name} calls super() and cannot be compiled outside its class")
    path = inspect.getsourcefile(function)
    for index in range(len(_sites(ast.parse(source)))):
        tree = ast.parse(source)
        ast.increment_lineno(tree, first - 1)
        node, kind, shown = _sites(tree)[index]
        before = ast.unparse(shown)
        _mutate(node, kind)
        namespace: dict = {}
        exec(compile(tree, path, "exec"), vars(module), namespace)
        where = f"{Path(path).name}:{node.lineno}"
        yield where, f"{before} -> {ast.unparse(shown)}", namespace[attribute]


def _namespaces():
    """Every charcalc module and every class defined in one."""
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "charcalc" or n.startswith("charcalc."))]
    classes = [c for m in modules for c in vars(m).values()
               if isinstance(c, type) and c.__module__ == m.__name__]
    return modules + classes


def _clear_caches() -> None:
    for space in _namespaces():
        for value in list(vars(space).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


@contextlib.contextmanager
def bound(raw, mutant):
    """Bind ``mutant`` in place of every charcalc attribute that holds ``raw``."""
    bindings = [(space, key) for space in _namespaces()
                for key, value in list(vars(space).items()) if value is raw]
    _clear_caches()
    try:
        for space, key in bindings:
            setattr(space, key, mutant)
        yield
    finally:
        for space, key in bindings:
            setattr(space, key, raw)
        _clear_caches()


def _on_alarm(signum, frame):
    raise Timeout


def run_verify(rank_max: int = RANK_MAX) -> tuple[list[str], list[str], str]:
    """(failed checks, failed homomorphism laws, error) of one verify run up to
    rank ``rank_max``; a law is a failure with its case number and element
    dropped and each symbol a_i written a_n."""
    from charcalc.cli import main

    out = io.StringIO()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(TIMEOUT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["verify", "--rank-max", str(rank_max), "--output", "machine"])
    except Timeout:
        return [], [], f"timeout after {TIMEOUT} s"
    except Exception as exc:  # a mutant may raise anything; that kills it
        return [], [], f"{type(exc).__name__}: {exc}"[:120]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    if code not in (0, 1):
        return [], [], f"exit {code}"
    failed = [c for c in json.loads(out.getvalue())["checks"] if not c["ok"]]
    checks = list(dict.fromkeys(c["check"] for c in failed))
    laws = [re.sub(r"\ba\d+\b", "a_n", re.sub(r"^case \d+: ", "", law).split(" on ")[0])
            for c in failed if c["check"] == "homomorphism" for law in c["detail"].split("; ")]
    return checks, list(dict.fromkeys(laws)), ""


def sample(targets: list[str], rank_max: int = RANK_MAX) -> list[Outcome]:
    """The outcome of every mutant of every target, verified up to rank
    ``rank_max``, after an unmutated run of verify that must pass."""
    checks, _, error = run_verify(rank_max)
    if checks or error:
        raise RuntimeError(f"verify fails unmutated: {checks or error}")
    outcomes = []
    for name in targets:
        raw = resolve(name)[2]
        for where, change, mutant in mutants(name):
            with bound(raw, mutant):
                outcomes.append(Outcome(where, change, *run_verify(rank_max)))
    return outcomes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("targets", nargs="+", help="qualified names, e.g. lambda_ring._exp_terms")
    parser.add_argument("--rank-max", type=int, default=RANK_MAX,
                        help=f"highest rank verify runs each mutant at (default {RANK_MAX})")
    args = parser.parse_args(argv)
    outcomes = sample(args.targets, args.rank_max)
    for outcome in outcomes:
        print(outcome)
    survivors = [o for o in outcomes if not o.killed]
    print(f"{len(outcomes)} mutants, {len(outcomes) - len(survivors)} killed, "
          f"{len(survivors)} survived")
    for outcome in survivors:
        print(f"  survivor {outcome.where}  {outcome.change}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
