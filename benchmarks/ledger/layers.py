"""Direct probes: timed calls into one layer's public functions, on inputs
taken from the workloads (``--trace 1`` only).

Each probe repeats its call inside a small time budget and keeps the fastest
repeat, for the reason :mod:`estimator` gives.  A probe whose layer function
is gone reports ``null`` with the exception as the reason; the others still
run.  ``flops_per_tok`` and ``weight_mb`` are computed from tensor sizes, not
measured.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

import common
from inputs import Inputs, serial_references

from repro.fi import FaultModel, FICampaign, sample_site
from repro.serve.loadgen import mixed_task_prompts
from repro.tasks import all_tasks, standardized_subset

BUDGET_S = 0.12


def best_of(fn, budget_s: float = BUDGET_S, min_reps: int = 3) -> float:
    """Fastest wall time of ``fn()`` over at least ``min_reps`` calls."""
    best = float("inf")
    reps = 0
    t_end = time.perf_counter() + budget_s
    while reps < min_reps or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
        reps += 1
    return best


class Probes:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.fp32 = Inputs("fp32", with_draft=True)
        self.bf16 = Inputs("bf16", with_draft=False)
        self.engine = self.fp32.engine
        self.draft = self.fp32.draft
        self.tokenizer = self.fp32.tokenizer
        self.prompts = mixed_task_prompts(self.fp32.world, self.tokenizer, per_task=8)
        self.ids = [list(p.ids) for p in self.prompts]
        self.references = serial_references(self.fp32, self.prompts)
        self.tasks = {t.name: t for t in all_tasks(self.fp32.world)}
        self.config = self.fp32.generation(max(p.max_new for p in self.prompts))

    # -- zoo / engine construction ------------------------------------------------

    def zoo_load_ms(self) -> float:
        from repro.zoo import draft_for, load_model

        def load():
            load_model(common.TARGET, verbose=False)
            load_model(draft_for(common.TARGET).name, verbose=False)

        return best_of(load) * 1e3

    def engine_init_ms(self) -> float:
        from repro.inference import InferenceEngine

        def build():
            InferenceEngine(self.fp32.target_store)
            InferenceEngine(self.fp32.draft_store)
            InferenceEngine(self.fp32.target_store, weight_policy="bf16")

        return best_of(build) * 1e3

    # -- inference ----------------------------------------------------------------

    def prefill_us_per_tok(self) -> float:
        engine = self.engine

        def prefill_all():
            for ids in self.ids:
                engine.forward(ids, engine.new_caches(), 0, 0)

        return best_of(prefill_all) / sum(len(i) for i in self.ids) * 1e6

    def session_step_ms(self) -> float:
        tokens = self.references[0]
        session = self.engine.start_session(self.ids[0])
        base = [c.length for c in session.caches]

        def steps():
            for cache, length in zip(session.caches, base):
                cache.truncate(length)
            session.position = len(self.ids[0])
            session.iteration = 0
            for token in tokens:
                session.step(token)

        return best_of(steps) / len(tokens) * 1e3

    def _pooled_rows(self, engine, width: int):
        pool = engine.new_pool(width)
        rows = []
        for ids in self.ids[:width]:
            caches = pool.caches(pool.acquire())
            engine.forward(ids, caches, 0, 0)
            rows.append((caches, len(ids)))
        return rows

    def step_ms_b8(self) -> float:
        engine = self.engine
        rows = self._pooled_rows(engine, common.MAX_BATCH)
        caches = [r[0] for r in rows]
        tokens = [self.references[i][0] for i in range(len(rows))]
        steps = 6

        def run():
            for row_caches, length in rows:
                for cache in row_caches:
                    cache.truncate(length)
            for k in range(steps):
                engine.forward_step_batch(
                    tokens, caches, [length + k for _, length in rows], [k + 1] * len(rows)
                )

        return best_of(run) / steps * 1e3

    def chunk_ms_b8x5(self) -> float:
        engine = self.engine
        rows = self._pooled_rows(engine, common.MAX_BATCH)
        caches = [r[0] for r in rows]
        width = common.SPEC_DEPTH + 1
        chunks = [(self.references[i] * width)[:width] for i in range(len(rows))]

        def run():
            for row_caches, length in rows:
                for cache in row_caches:
                    cache.truncate(length)
            engine.forward_chunk_batch(
                chunks, caches, [length for _, length in rows], [1] * len(rows)
            )

        return best_of(run) * 1e3

    def _mc_case(self):
        example = standardized_subset(self.tasks["mmlu"], 8)[0]
        prompt = self.tokenizer.encode(example.prompt)
        options = [self.tokenizer.encode(o) for o in example.options]
        return prompt, options

    def options_ms_b4(self) -> float:
        engine = self.engine
        prompt, options = self._mc_case()
        longest = max(len(o) for o in options)
        chunk = np.zeros((len(options), longest), dtype=np.int64)
        for i, option in enumerate(options):
            chunk[i, : len(option)] = option
        session = engine.start_session(prompt)
        return best_of(
            lambda: engine.forward(chunk, session.caches, start_pos=len(prompt), iteration=0)
        ) * 1e3

    def kv_truncate_us(self) -> float:
        caches, length = self._pooled_rows(self.engine, 1)[0]
        reps = 200

        def run():
            for _ in range(reps):
                for cache in caches:
                    cache.truncate(length)

        return best_of(run) / reps * 1e6

    def pool_cycle_us(self) -> float:
        pool = self.engine.new_pool(common.MAX_BATCH)
        reps = 200

        def run():
            for _ in range(reps):
                pool.release(pool.acquire())

        return best_of(run) / reps * 1e6

    def flops_per_tok(self) -> float:
        engine = self.engine
        linear = sum(
            int(np.prod(engine.weight_store(name).shape)) for name in engine.linear_layer_names()
        )
        head = engine.config.vocab_size * engine.config.d_model
        return float(2 * (linear + head))

    def weight_mb(self) -> float:
        store = self.fp32.target_store
        return sum(array.nbytes for _, array in store.items()) / 2**20

    # -- generation ---------------------------------------------------------------

    def _decoder_rate(self, decode, ids=None, expect=None) -> float:
        ids = self.ids if ids is None else ids
        expect = self.references if expect is None else expect
        outputs = decode(ids)
        if expect is not False and outputs != expect:
            raise AssertionError("decoder output differs from the serial reference")
        tokens = sum(len(o) for o in outputs)
        return tokens / best_of(lambda: decode(ids), budget_s=2 * BUDGET_S, min_reps=2)

    def serial_tok_per_s(self) -> float:
        from repro.generation import greedy_decode

        return self._decoder_rate(
            lambda ids: [greedy_decode(self.engine, p, self.config, strategy="serial") for p in ids]
        )

    def batched_tok_per_s(self) -> float:
        from repro.generation import BatchedDecoder

        decoder = BatchedDecoder(self.engine, self.config, max_batch=common.MAX_BATCH)
        return self._decoder_rate(decoder.decode_many)

    def spec_tok_per_s(self) -> float:
        from repro.generation import SpeculativeDecoder

        decoder = SpeculativeDecoder(
            self.engine, self.draft, self.config, speculation_depth=common.SPEC_DEPTH
        )
        return self._decoder_rate(lambda ids: [decoder.decode_one(p) for p in ids])

    def composed_tok_per_s(self) -> float:
        from repro.generation import BatchedSpeculativeDecoder

        decoder = BatchedSpeculativeDecoder(
            self.engine, self.draft, self.config,
            speculation_depth=common.SPEC_DEPTH, max_batch=common.MAX_BATCH,
        )
        return self._decoder_rate(decoder.decode_many)

    def beam_tok_per_s(self) -> float:
        from repro.generation import beam_search_decode

        config = replace(self.config, num_beams=4)
        ids = self.ids[::4]  # two shapes per task: beam search is ~4x serial
        return self._decoder_rate(
            lambda batch: [beam_search_decode(self.engine, p, config) for p in batch],
            ids=ids, expect=False,
        )

    def score_options_ms(self) -> float:
        from repro.generation import score_options

        prompt, options = self._mc_case()
        return best_of(lambda: score_options(self.engine, prompt, options)) * 1e3

    # -- fault injection ----------------------------------------------------------

    def sample_site_us(self) -> float:
        engine = self.bf16.engine
        rng = np.random.default_rng(self.seed)
        reps = 100

        def run():
            for _ in range(reps):
                sample_site(engine, FaultModel.COMP_2BIT, rng, max_iterations=26)

        return best_of(run) / reps * 1e6

    def mem_inject_cycle_us(self) -> float:
        from repro.fi import MemoryFaultInjector

        engine = self.bf16.engine
        rng = np.random.default_rng(self.seed)
        sites = [sample_site(engine, FaultModel.MEM_2BIT, rng) for _ in range(50)]

        def run():
            for site in sites:
                with MemoryFaultInjector(engine, site):
                    pass

        return best_of(run) / len(sites) * 1e6

    def comp_hook_step_overhead(self) -> float:
        from repro.fi import ComputationalFaultInjector

        engine = self.bf16.engine
        tokens = self.references[0]
        session = engine.start_session(self.ids[0])
        base = [c.length for c in session.caches]

        def steps():
            for cache, length in zip(session.caches, base):
                cache.truncate(length)
            session.position = len(self.ids[0])
            session.iteration = 0
            for token in tokens:
                session.step(token)

        bare = best_of(steps)
        site = sample_site(engine, FaultModel.COMP_2BIT, np.random.default_rng(self.seed))
        # Armed for an iteration the loop never reaches: the hook runs on
        # every step of its layer and never fires.
        with ComputationalFaultInjector(engine, replace(site, iteration=10_000)):
            armed = best_of(steps)
        return armed / bare - 1.0

    def _small_campaign(self, task_name: str = "squadv2"):
        task = self.tasks[task_name]
        return FICampaign(
            engine=self.bf16.engine,
            tokenizer=self.tokenizer,
            task_name=task_name,
            metrics=task.metrics,
            examples=standardized_subset(task, 8),
            fault_model=FaultModel.COMP_2BIT,
            seed=self.seed,
            generation=self.bf16.generation(task.max_new_tokens),
        )

    def checkpoint_write_us(self) -> float:
        from repro.fi import CampaignCheckpoint

        campaign = self._small_campaign()
        records = campaign.run(8).trials
        path = common.CACHE_DIR / "tmp" / f"probe-{self.seed}.ckpt.jsonl"
        path.unlink(missing_ok=True)
        try:
            with CampaignCheckpoint(path, campaign.fingerprint()) as journal:
                def run():
                    for trial, record in enumerate(records):
                        journal.write(trial, campaign.trial_key(trial), record)

                return best_of(run) / len(records) * 1e6
        finally:
            path.unlink(missing_ok=True)

    # -- metrics / harness --------------------------------------------------------

    def score_ms(self, task_name: str) -> float:
        from repro.metrics.evaluate import score_generative

        task = self.tasks[task_name]
        example = standardized_subset(task, 8)[0]
        prediction = example.reference
        return best_of(lambda: score_generative(task.metrics, [prediction], [example])) * 1e3

    def _context(self):
        from repro.harness import ExperimentContext

        return ExperimentContext(n_examples=8, n_trials=36, seed=self.seed)

    def harness_cell_s(self) -> float:
        ctx = self._context()
        ctx.engine(common.TARGET, "bf16")  # engine build is set-up, not the cell
        return best_of(
            lambda: ctx.run_cell(common.TARGET, "gsm8k", FaultModel.COMP_2BIT),
            budget_s=0.5, min_reps=2,
        )

    def harness_fig03_mini_s(self) -> float:
        from repro.harness import fig03_overall

        ctx = self._context()
        ctx.engine(common.TARGET, "bf16")
        return best_of(
            lambda: fig03_overall(ctx, models=(common.TARGET,), tasks=("mmlu", "gsm8k")),
            budget_s=0.0, min_reps=1,
        )


def probe_all(spec: dict) -> dict:
    probes = Probes(spec["seed"])
    table = {
        "zoo.load_ms": probes.zoo_load_ms,
        "inference.engine_init_ms": probes.engine_init_ms,
        "inference.prefill_us_per_tok": probes.prefill_us_per_tok,
        "inference.session_step_ms": probes.session_step_ms,
        "inference.step_ms.b8": probes.step_ms_b8,
        "inference.chunk_ms.b8x5": probes.chunk_ms_b8x5,
        "inference.options_ms.b4": probes.options_ms_b4,
        "inference.kv_truncate_us": probes.kv_truncate_us,
        "inference.pool_cycle_us": probes.pool_cycle_us,
        "inference.flops_per_tok": probes.flops_per_tok,
        "inference.weight_mb": probes.weight_mb,
        "generation.serial_tok_per_s": probes.serial_tok_per_s,
        "generation.batched_tok_per_s.b8": probes.batched_tok_per_s,
        "generation.spec_tok_per_s.d4": probes.spec_tok_per_s,
        "generation.composed_tok_per_s.b8d4": probes.composed_tok_per_s,
        "generation.beam_tok_per_s.k4": probes.beam_tok_per_s,
        "generation.score_options_ms": probes.score_options_ms,
        "fi.sample_site_us": probes.sample_site_us,
        "fi.mem_inject_cycle_us": probes.mem_inject_cycle_us,
        "fi.comp_hook_step_overhead": probes.comp_hook_step_overhead,
        "fi.checkpoint_write_us": probes.checkpoint_write_us,
        "harness.cell_s": probes.harness_cell_s,
        "harness.fig03_mini_s": probes.harness_fig03_mini_s,
    }
    for name in common.GEN_TASKS:
        table[f"metrics.score_ms.{name}"] = lambda name=name: probes.score_ms(name)
    values: dict[str, float | None] = {}
    reasons: dict[str, str] = {}
    t0 = time.perf_counter()
    for name, probe in table.items():
        try:
            values[name] = float(probe())
        except Exception as exc:  # a probe's layer may be gone; keep the rest
            values[name] = None
            reasons[name] = f"{type(exc).__name__}: {exc}"
    return {"values": values, "null": reasons, "probe_wall_s": time.perf_counter() - t0}
