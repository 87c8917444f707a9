"""Temporal reachability network creation: library and experiment harness.

Every public name is importable from `tncg`; `_EXPORTS` names the
submodule that defines each one, and `import tncg` loads them all.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "core": (
            "TemporalGraph",
            "compress_labels",
            "is_temporal_path",
            "is_temporal_spanner",
            "is_temporally_connected",
            "mask_to_set",
            "reach",
            "set_to_mask",
        ),
        "errors": (
            "FormatError",
            "NotASpanner",
            "NotTemporallyConnected",
            "PreconditionViolated",
            "SearchSpaceExceeded",
            "TncgError",
        ),
        "game": (
            "CostVector",
            "DirectedTemporalGraph",
            "StrategyProfile",
            "agent_cost",
            "created_graph",
            "empty_profile",
            "social_cost",
        ),
        "responses": ("DEFAULT_BUDGET", "exact_best_response", "greedy_best_response"),
        "equilibrium": (
            "BoundsReport",
            "EquilibriumReport",
            "ForbiddenStructure",
            "LargeNodeWitness",
            "ProfileAudit",
            "audit_edge_bounds",
            "audit_profile",
            "check_ge",
            "check_ne",
            "find_forbidden_structure",
            "find_large_node",
            "freeze_relabel",
            "necessary_set",
            "verify_large_node",
        ),
        "dynamics": (
            "OUTCOME_CAP",
            "OUTCOME_CYCLE",
            "OUTCOME_GE",
            "OUTCOME_NE",
            "DynamicsTrace",
            "Move",
            "final_profile",
            "replay",
            "run_dynamics",
            "trace_from_dict",
        ),
        "constructions": (
            "ReductionLayout",
            "SetCoverInstance",
            "gen_br_cycle",
            "gen_hypercube",
            "gen_random_directed",
            "gen_random_host",
            "gen_random_profile",
            "gen_random_setcover",
            "gen_reduction_br",
            "gen_reduction_ne",
            "gen_t2_equilibrium",
            "gen_t2_family",
        ),
        "optimum": ("is_minimal_spanner", "minimal_spanner", "minimum_spanner", "poa_ratio"),
        "fileio": (
            "dump_graph",
            "dump_profile",
            "dump_setcover",
            "load_graph",
            "load_host",
            "load_profile",
            "load_setcover",
            "parse_graph",
            "parse_host",
            "parse_profile",
            "parse_setcover",
            "save_graph",
            "save_profile",
            "save_setcover",
            "validate_files",
        ),
        "experiments": ("SCENARIO_DEFAULTS", "ExperimentResult", "config_digest", "run_experiment"),
    }.items()
    for name in names
}

__all__ = ["__version__", *_EXPORTS]

for _name, _module in _EXPORTS.items():
    globals()[_name] = getattr(import_module(f".{_module}", __name__), _name)
del _name, _module
