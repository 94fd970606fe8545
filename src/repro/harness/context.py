"""Shared experiment context: engines, tokenizer, task and example caches.

Experiments repeatedly need (model, storage-policy) engines and
standardized example subsets; this context memoizes them so a bench
suite that reproduces many figures does not rebuild the same engine
dozens of times.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fi.campaign import CampaignResult, FICampaign
from repro.fi.fault_models import FaultModel
from repro.fi.sites import LayerFilter
from repro.generation.decode import GenerationConfig
from repro.inference.engine import InferenceEngine
from repro.obs.runtime import telemetry as _telemetry
from repro.tasks import World, all_tasks, standardized_subset
from repro.tasks.base import Task
from repro.text.tokenizer import Tokenizer
from repro.zoo.build import default_tokenizer, default_world, load_model

__all__ = ["ExperimentContext"]


@dataclass
class ExperimentContext:
    """Caches and defaults for a batch of experiments.

    ``n_examples`` and ``n_trials`` default to bench-friendly sizes;
    the paper-scale equivalents (100 examples, 500-3000 trials) are a
    parameter change away.
    """

    n_examples: int = 12
    n_trials: int = 60
    seed: int = 1234
    _world: World | None = None
    _tokenizer: Tokenizer | None = None
    _engines: dict = field(default_factory=dict)
    _tasks: dict = field(default_factory=dict)

    @property
    def world(self) -> World:
        """The shared synthetic world (built once)."""
        if self._world is None:
            self._world = default_world()
        return self._world

    @property
    def tokenizer(self) -> Tokenizer:
        """The shared closed-vocabulary tokenizer."""
        if self._tokenizer is None:
            self._tokenizer = default_tokenizer(self.world)
        return self._tokenizer

    def task(self, name: str) -> Task:
        """Look up a task by dataset name."""
        if not self._tasks:
            self._tasks = {t.name: t for t in all_tasks(self.world)}
        return self._tasks[name]

    def engine(self, model_name: str, policy: str = "fp32") -> InferenceEngine:
        """Memoized engine for (zoo model, storage policy)."""
        key = (model_name, policy)
        if key not in self._engines:
            store = load_model(model_name, verbose=False)
            self._engines[key] = InferenceEngine(store, weight_policy=policy)
        return self._engines[key]

    def examples(self, task_name: str, n: int | None = None) -> list:
        """Standardized evaluation subset for a task."""
        return standardized_subset(self.task(task_name), n or self.n_examples)

    def generation(self, task: Task, num_beams: int = 1) -> GenerationConfig:
        """Decoding config sized to the task."""
        return GenerationConfig(
            max_new_tokens=task.max_new_tokens,
            num_beams=num_beams,
            eos_id=self.tokenizer.vocab.eos_id,
        )

    def campaign(
        self,
        engine: InferenceEngine,
        task_name: str,
        fault_model: FaultModel,
        n_examples: int | None = None,
        num_beams: int = 1,
        layer_filter: LayerFilter | None = None,
        track_expert_selection: bool = False,
        task: Task | None = None,
        seed: int | None = None,
        max_fault_iterations: int | None = None,
    ) -> FICampaign:
        """The campaign for one engine/task/fault with context defaults.

        :meth:`run_cell` runs it on a memoized zoo engine; a study that
        prepares its own engine (an activation format, a router top-k,
        an installed guard) builds the same campaign here.
        """
        task = task or self.task(task_name)
        return FICampaign(
            engine=engine,
            tokenizer=self.tokenizer,
            task_name=task_name,
            metrics=task.metrics,
            examples=standardized_subset(task, n_examples or self.n_examples),
            fault_model=fault_model,
            seed=self.seed if seed is None else seed,
            generation=self.generation(task, num_beams),
            layer_filter=layer_filter,
            track_expert_selection=track_expert_selection,
            max_fault_iterations=max_fault_iterations,
        )

    def run_cell(
        self,
        model_name: str,
        task_name: str,
        fault_model: FaultModel,
        policy: str = "bf16",
        n_trials: int | None = None,
        **campaign_args,
    ) -> CampaignResult:
        """One (model, task, fault-model) campaign with context defaults.

        ``policy`` defaults to ``bf16`` — the paper evaluates BF16
        checkpoints, which is also why its bit-position figures run
        over a 16-bit layout with bit 14 as the exponent MSB.
        ``campaign_args`` are :meth:`campaign`'s keywords.
        """
        campaign = self.campaign(
            self.engine(model_name, policy),
            task_name,
            fault_model,
            **campaign_args,
        )
        tel = _telemetry()
        with tel.span(
            "experiment.cell",
            model=model_name,
            task=task_name,
            fault=fault_model.value,
            policy=policy,
        ):
            result = campaign.run(n_trials or self.n_trials)
        if tel.active:
            tel.metrics.counter("experiment.cells").add()
        return result
