"""Fault-injection framework: models, sites, injectors, campaigns."""

from repro.fi.analysis import (
    GroupVulnerability,
    by_bit_role,
    by_block,
    by_layer_type,
    by_surface,
    most_vulnerable,
)
from repro.fi.campaign import CampaignResult, FICampaign, TrialRecord
from repro.fi.checkpoint import (
    CampaignCheckpoint,
    CheckpointError,
    load_checkpoint,
)
from repro.fi.differential import (
    assert_records_equal,
    assert_results_equal,
    assert_sequences_equal,
    record_signature,
    result_signatures,
)
from repro.fi.executor import CampaignChaos, ChaosError, TrialTimeoutError
from repro.fi.fault_models import FaultModel
from repro.fi.injector import (
    AccumulatorFaultInjector,
    ComputationalFaultInjector,
    KVFaultInjector,
    MemoryFaultInjector,
    inject,
)
from repro.fi.outcomes import (
    Outcome,
    classify_direct_answer,
    classify_generative,
    is_distorted,
)
from repro.fi.projection import SDCProjection, project_sdc_rate
from repro.fi.propagation import PropagationTrace, trace_fault
from repro.fi.sites import FaultSite, LayerFilter, sample_site

__all__ = [
    "CampaignChaos",
    "CampaignCheckpoint",
    "CampaignResult",
    "ChaosError",
    "CheckpointError",
    "GroupVulnerability",
    "TrialTimeoutError",
    "assert_records_equal",
    "assert_results_equal",
    "assert_sequences_equal",
    "load_checkpoint",
    "record_signature",
    "result_signatures",
    "by_bit_role",
    "by_block",
    "by_layer_type",
    "by_surface",
    "most_vulnerable",
    "AccumulatorFaultInjector",
    "ComputationalFaultInjector",
    "KVFaultInjector",
    "FICampaign",
    "FaultModel",
    "FaultSite",
    "LayerFilter",
    "MemoryFaultInjector",
    "Outcome",
    "PropagationTrace",
    "SDCProjection",
    "TrialRecord",
    "classify_direct_answer",
    "classify_generative",
    "inject",
    "project_sdc_rate",
    "is_distorted",
    "sample_site",
    "trace_fault",
]
