"""The package's public surface, and the names the benchmark tracer reaches.

``orbitcsp`` holds what the commands reach; entry points that only tests
call live in ``oracles``.  ``bench/spans.py`` rebinds its traced layers by
name, so a rename or move that breaks tracing fails here too.
"""

from __future__ import annotations

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import orbitcsp

PUBLIC = [
    "AND2", "ArityMismatch", "Base", "BooleanClass", "BudgetExceeded", "CONST0",
    "CONST1", "CYCLIC", "ClassMismatch", "ConsistencyState", "DomainMismatch",
    "EMPTY_DERIVED", "FinitePatterns", "FiniteStructure", "GRAPH", "HomogPatterns",
    "HomogTemplate", "IDEMPOTENT", "IdentitySystem", "Instance", "LT", "LT_TYPE",
    "Label", "LabeledType", "MAJ3", "MAJORITY", "MINORITY", "MalformedPattern", "OR2",
    "OpTable", "OrbitCspError", "PairBehavior", "ParameterError", "ParseError",
    "PatternSpace", "PreconditionFailed", "Relation", "SEMILATTICE", "SIGGERS", "Shape",
    "ShapeUnsupported", "SignatureMismatch", "SignedWeakOrderType", "TOURNAMENT",
    "TemporalCounterexample", "TemporalOp", "TemporalPatterns", "TemporalRelation",
    "TemporalTemplate", "TemporalVerdict", "TypeSetRelation", "UnknownVariable",
    "UnsupportedBase", "Verdict", "VerdictKind", "WNU", "WeakOrderType", "XOR3",
    "apply_temporal_op", "boolean_classify", "brute_oracle", "build_afin",
    "classify_reduct", "classify_temporal", "confirm_no_behavior", "consistency",
    "enumerate_types", "enumerate_weak_orders", "errors", "establish_kl",
    "find_polymorphism", "free_sets", "hom_search", "homog", "kfree", "make_instance",
    "polyengine", "preserves_op", "preserves_temporal", "relstruct",
    "satisfies_identities", "schaefer_solve", "search_behavior", "solve_instance_brute",
    "solve_master", "temporal", "temporal_relation", "type_set_relation",
]

# Names that left the package: deleted, replaced, or moved to ``oracles``.
GONE_FUNCTIONS = ("free_set_containing", "_quotient_of", "cyclic", "wnu", "_IDENTITIES")
GONE_MEMBERS = {
    "TemporalOp": ("LEX", "DUAL_LEX"),
    "PairBehavior": ("from_function",),
    "LabeledType": ("label", "is_injective", "num_blocks"),
    "IdentitySystem": ("param",),
}

BENCH_SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def package_modules():
    # __main__ would run the command line on import.
    return [importlib.import_module(f"orbitcsp.{info.name}")
            for info in pkgutil.iter_modules(orbitcsp.__path__) if info.name != "__main__"]


def test_public_names_are_pinned():
    assert sorted(orbitcsp.__all__) == PUBLIC


@pytest.mark.parametrize("module", [orbitcsp, *package_modules()], ids=lambda m: m.__name__)
def test_no_module_keeps_a_removed_name(module):
    for name in GONE_FUNCTIONS:
        assert not hasattr(module, name), name
    for owner, members in GONE_MEMBERS.items():
        cls = getattr(module, owner, None)
        if cls is None:
            continue
        for member in members:
            assert not hasattr(cls, member), f"{owner}.{member}"
            assert member not in getattr(cls, "__dataclass_fields__", {}), f"{owner}.{member}"


def test_every_traced_layer_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH_SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module_name, path in spans.LAYERS + (spans.QUOTIENT_SOLVE,):
        target = importlib.import_module(f"orbitcsp.{module_name}")
        for attr in path.split("."):
            target = getattr(target, attr, None)
            assert target is not None, f"{module_name}.{path}"
        assert callable(target), f"{module_name}.{path}"
