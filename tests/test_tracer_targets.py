"""The span tracer in ``bench/tracer.py`` patches charcalc's functions by
module attribute and its methods in each class's own namespace; a target it
cannot find is skipped silently and its per-layer metrics read 0.  This
checks that every target still exists where the tracer looks for it, and that
the package calls every traced function through a module attribute."""

import ast
import importlib
from collections import Counter
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACER_PATH = ROOT / "bench" / "tracer.py"
PACKAGE = ROOT / "src" / "charcalc"

# Spans whose target was removed on purpose; their metrics read 0.
RETIRED = {
    "series.pow",  # GradedSeries.__pow__: multiplicities weight ch; no series is raised to a power
    "series.exp",  # GradedSeries.exp: classes exponentiate through the private lambda_ring._exp_terms
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("charcalc_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = load_tracer()


@pytest.mark.parametrize("span, module, attr", TRACER.FUNCTIONS, ids=[f[0] for f in TRACER.FUNCTIONS])
def test_function_target_resolves(span, module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


@pytest.mark.parametrize(
    "span, module, cls, attr", TRACER.METHODS, ids=[m[0] for m in TRACER.METHODS]
)
def test_method_target_in_own_namespace(span, module, cls, attr):
    owner = getattr(importlib.import_module(module), cls)
    assert (attr in vars(owner)) is (span not in RETIRED)


def test_tracer_times_every_verifier():
    # the tracer patches only modules already imported, and the CLI imports
    # verify when the command runs, so import it before the tracer is installed
    from charcalc import cli, verify  # noqa: F401

    tracer = TRACER.Tracer()
    tracer.install()
    try:
        status = cli.main(["verify", "--checks", "gala,borel_serre,ch_gamma,prop_chtd,homomorphism",
                           "--rank-max", "2", "--output", "machine"])
    finally:
        tracer.uninstall()
    assert status == 0
    by_name, _ = tracer.summarize()
    verifiers = [span for span, _, _ in TRACER.FUNCTIONS if span.startswith("verify.")]
    assert len(verifiers) == 5
    assert [span for span in verifiers if not by_name[span][0]] == []


def test_tracer_counts_products_through_terms(monkeypatch):
    """The product counters agree with counts taken from ``terms()``: term
    pairs from the degree histograms of the operands, that fit under the
    truncation, and the terms of the result.  The products are of Todd
    classes of seeded random elements, and of one by a scalar."""
    import random

    from charcalc.lambda_ring import todd
    from charcalc.series import GradedSeries
    from charcalc.verify import random_k_element

    tracer = TRACER.Tracer()
    tracer.install()
    products = []
    traced = vars(GradedSeries)["__mul__"]

    def recording(x, y):
        result = traced(x, y)
        products.append((x, y, result))
        return result

    monkeypatch.setattr(GradedSeries, "__mul__", recording)
    rng = random.Random(3)
    try:
        for _ in range(4):
            x, y = random_k_element(rng, 3), random_k_element(rng, 3)
            assert todd(x, 3) * todd(y, 3) == todd(x + y, 3)
        assert (todd(x, 3) * 2).constant_term == 2
    finally:
        monkeypatch.undo()
        tracer.uninstall()

    def degrees(series):
        return Counter(sum(mono) for mono, _ in series.terms())

    pairs = terms_out = 0
    for x, y, result in products:
        if isinstance(y, GradedSeries):
            hx, hy = degrees(x), degrees(y)
            pairs += sum(cx * cy for dx, cx in hx.items() for dy, cy in hy.items()
                         if dx + dy <= x.truncation_degree)
        else:
            pairs += sum(degrees(x).values())
        terms_out += sum(degrees(result).values())
    assert products and pairs and terms_out
    assert tracer.counts["series.mul.term_pairs"] == pairs
    assert tracer.counts["series.mul.terms_out"] == terms_out


def captured_functions(source: str) -> list[str]:
    """The names of traced functions held by an assignment that runs at import:
    one outside every function body, read outside every lambda.  The tracer
    replaces module attributes, so a function object captured in a table at
    import keeps calling the original, and its span is never timed."""
    traced = {attr for _, _, attr in TRACER.FUNCTIONS}

    def walk(node, in_value):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if in_value and isinstance(node, ast.Name) and node.id in traced:
            yield f"line {node.lineno}: {node.id}"
        assigned = isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        for child in ast.iter_child_nodes(node):
            yield from walk(child, in_value or (assigned and child is node.value))

    return list(walk(ast.parse(source), False))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_traced_function_is_captured_at_import(path):
    assert captured_functions(path.read_text()) == []


def test_captured_functions_are_found():
    source = (
        "from .verify import verify_gala, verify_ch_gamma\n"
        "TABLE = {'gala': (verify_gala, 0)}\n"
        "LAZY = {'ch_gamma': lambda n: verify_ch_gamma(n)}\n"
        "class Checks:\n"
        "    first: object = verify_ch_gamma\n"
        "def run(n):\n"
        "    check = verify_gala\n"
        "    return check(n)\n"
    )
    assert captured_functions(source) == ["line 2: verify_gala", "line 5: verify_ch_gamma"]
