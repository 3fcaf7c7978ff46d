import inspect

import gapcurve

# The package's public names, frozen: removing or renaming one breaks callers.
PUBLIC_NAMES = {
    "ALGEBRA_CLOSED", "Ambient", "ClassificationError", "CurvePoint",
    "ExpansionCurveModel", "GF", "GapFunction", "GapcurveError",
    "HypothesisViolationError", "INF", "IndeterminateOverFieldError",
    "IrrationalRamificationError", "LocalModel", "MissingUnitError",
    "Multifiltration", "NotStabilizedError", "Partition", "PrimeField",
    "ProjectionCenter", "ProjectionReport", "QQ", "RationalField",
    "RationalNormalCurve", "SchubertSpec", "SemigroupView", "SeriesSubspace",
    "SingularityType", "StabilizationCapError", "TruncatedSeries",
    "VECTOR_SPACE", "ValidationError", "analyze", "analyze_at_points",
    "check_center", "classify_ring", "classify_vector_space", "close_algebra",
    "concrete_type", "configuration_codim", "degree", "enumerate_types",
    "field_from_name", "find_ramification", "gap_eval", "is_standard",
    "key_lemma_holds", "local_model", "marked_in_semigroup",
    "multifiltration_dim", "osc_subspace", "quotient_dim", "resolve_ambiguity",
    "sample_center", "sample_configuration", "series_mul", "span_reduce",
    "stratum_spec", "valuation", "verify_genus_bound",
}


def test_public_names_frozen():
    # submodules become package attributes once imported; they are not API names
    names = {
        name
        for name, value in vars(gapcurve).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert names == PUBLIC_NAMES
