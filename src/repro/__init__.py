"""repro — end-to-end resilience study of LLM inference under soft errors.

A from-scratch reproduction of "Demystifying the Resilience of Large
Language Model Inference: An End-to-End Perspective" (SC '25): a
pure-NumPy transformer training + inference stack, bit-exact float /
quantized numerics, a nine-dataset synthetic task suite with the
paper's six quality metrics, and a statistical fault-injection
framework with one experiment runner per paper table and figure.

Quick start::

    from repro import ExperimentContext, run_study
    ctx = ExperimentContext(n_examples=8, n_trials=40)
    print(run_study("fig17", ctx))
"""

from repro.fi import (
    CampaignResult,
    FaultModel,
    FaultSite,
    FICampaign,
    Outcome,
    inject,
    sample_site,
    trace_fault,
)
from repro.generation import GenerationConfig, generate_ids
from repro.harness import STUDY, ExperimentContext, ExperimentResult, run_study
from repro.inference import InferenceEngine
from repro.model import ModelConfig, ParamStore, TransformerLM
from repro.tasks import World, all_tasks, standardized_subset
from repro.zoo import load_model, zoo_names

__version__ = "1.0.0"

__all__ = [
    "CampaignResult",
    "ExperimentContext",
    "ExperimentResult",
    "FICampaign",
    "FaultModel",
    "FaultSite",
    "GenerationConfig",
    "InferenceEngine",
    "ModelConfig",
    "Outcome",
    "ParamStore",
    "STUDY",
    "TransformerLM",
    "World",
    "__version__",
    "all_tasks",
    "generate_ids",
    "inject",
    "load_model",
    "run_study",
    "sample_site",
    "standardized_subset",
    "trace_fault",
    "zoo_names",
]
