"""Experiment harness: the paper's running example, synthetic workload
generators, timing utilities and the figure series builders."""

from repro import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "generators": ("SyntheticWorkload", "generate_document", "generate_workload"),
        "scenarios": (
            "ScenarioSpec",
            "ShredScenario",
            "build_scenario",
            "scenario_text",
            "synthesize_document_chunks",
            "synthesized_node_count",
        ),
        "runner": ("ExperimentSeries", "SeriesPoint", "time_call"),
        "figures": (
            "figure_7a",
            "figure_7b",
            "figure_7c",
            "naive_blowup_series",
            "run_all",
        ),
        "paper_example": (),
    },
)

__all__ = [
    "SyntheticWorkload",
    "generate_document",
    "generate_workload",
    "ScenarioSpec",
    "ShredScenario",
    "build_scenario",
    "scenario_text",
    "synthesize_document_chunks",
    "synthesized_node_count",
    "ExperimentSeries",
    "SeriesPoint",
    "time_call",
    "figure_7a",
    "figure_7b",
    "figure_7c",
    "naive_blowup_series",
    "run_all",
    "paper_example",
]
