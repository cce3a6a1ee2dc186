"""The package's public names: the same list, each declared by one module."""

import importlib

import faberfib

MODULES = ("exact", "series", "faber", "golden", "tremblay", "bounds", "cli")

PUBLIC_NAMES = [
    "ABS_TAU",
    "BoundReport",
    "BranchReport",
    "CONSISTENT",
    "ClassParams",
    "DEFAULT_PRECISION",
    "ExactComplex",
    "Interval",
    "IntervalStraddleError",
    "MembershipReport",
    "NormalizedSeries",
    "OperatorParams",
    "QSqrt5",
    "SQRT5",
    "SchwarzCandidate",
    "TAU",
    "TruncatedSeries",
    "UNIVALENCE_RADIUS",
    "VIOLATED",
    "__version__",
    "apply_operator",
    "bound_a2",
    "bound_a3",
    "bound_theorem1",
    "corollary_check",
    "faber_inverse_coefficients",
    "faber_polynomial",
    "fibonacci",
    "fraction_sqrt",
    "golden_coefficient",
    "golden_coefficient_fibonacci",
    "golden_coefficients",
    "golden_series",
    "golden_value",
    "golden_value_exact",
    "join_field",
    "membership_witness",
    "operator_multiplier",
    "parse_qsqrt5",
    "parse_rational",
    "parse_scalar",
    "partial_bell",
    "render_qsqrt5",
    "render_rational",
    "render_scalar",
    "rising_ratio",
    "solve_schwarz",
    "subordination_lhs",
    "to_float",
]


def test_public_names_are_the_pinned_list():
    assert sorted(faberfib.__all__) == PUBLIC_NAMES
    assert len(set(faberfib.__all__)) == len(faberfib.__all__) == 49


def test_every_public_name_resolves():
    for name in faberfib.__all__:
        assert hasattr(faberfib, name), name


def test_no_name_is_declared_by_two_modules():
    owners = {}
    for module_name in MODULES:
        module = importlib.import_module(f"faberfib.{module_name}")
        for name in getattr(module, "__all__", ()):
            assert name not in owners, f"{name} in both {owners[name]} and {module_name}"
            owners[name] = module_name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from faberfib import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(PUBLIC_NAMES)
    for name in PUBLIC_NAMES:
        assert namespace[name] is getattr(faberfib, name)
