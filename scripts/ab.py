"""Paired, in-process A/B timing of the inference engine and the
campaign's trial phase: a base revision against the working tree's
``src``.

Both trees' ``repro`` packages are imported into one process twice
each, every load under module objects of its own.  In every rep one load
of the base plays ``base``, and the change's two loads play ``change``
and the A/A ``control``; which load plays which is drawn for each pair
of reps and swapped for the second rep of the pair, so every load plays
every role equally often and a bias of one loaded copy (an A/A/A run
with fixed roles read the base copy 0.982 of the change) lands in the
A/A band instead of the ratio.  Every probe then runs in each role in an
order shuffled each rep, after a warm-up per setting (a setting is one
probe on one load), so drift in the host hits all of them alike.  One
process and alternation is what resolves a change of a few percent to a
decode step: between ledger runs of one commit the per-layer probes
spread 1.5-1.8x.

A process-wide setting made at import reaches every tree loaded into
the process, the base's too: ``repro.inference.engine`` sets glibc's
malloc thresholds when it is imported, so the tool times the base with
them as well.  A change made of such a setting cannot be sized here;
size it with the ledger's alternated pairs.

Probes, on the ledger's ``qwenlike-base`` (fp32, read from
``$REPRO_ARTIFACTS``, default ``benchmarks/ledger/cache``; a cold cache
trains the model first, minutes):

* ``step1`` .. ``step16`` — one ``forward_step_batch`` decode step at
  width 1, 2, 4, 8 and 16, each row over its own cached prefix (20, 23,
  26, ... tokens), rewound before every step so every step is the same;
  ``same8`` — that step at width 8 with every prefix 20 tokens (one
  attention group), ``pairs8`` — with the prefixes 20, 20, 23, 23, 26,
  26, 29, 29 (four groups of two);
* ``prompt32`` — a 32-token 1-D ``forward`` into one row's caches;
* ``chunk4`` — a cache-less 4-row, 30-token ``forward_chunk_batch``
  with a 4-position read window (option scoring's shape);
* ``options`` — the trial phase of one small ``2bits-mem`` cell on
  ``mmlu`` (the option wave), ``wave`` — of one ``1bit-comp`` cell on
  ``wmt16`` (the generative wave): ``run()`` of 16 trials over 4
  examples, the baseline computed once before, all through
  ``FICampaign``'s public API, so any revision that has it can be the
  base.

Output is one JSON object.  Per probe: the median operation time of
each tree (``us``); ``ratio``, the median over reps of the change's
time over the base's (below 1: the change is faster); ``aa``, the same
median for the change over its control copy; ``aa_spread``, the band a
median A/A ratio falls in — five standard errors of a median, from the
reps' spread of the A/A ratio (their median absolute deviation), and
never narrower than 2 % either way (A/A medians spread 0.987-1.011
between runs on one 2-vCPU host); ``faster``, the reps in which the
change beat the base; and ``resolved``, whether ``ratio`` falls outside
``aa_spread``.  A ratio inside the spread cannot be told from noise.
``played`` gives, per role, the reps each of the two loads played it in.
Run as a command,
BLAS runs on one thread, as in the ledger.  The end-to-end claim stays
the ledger's: alternated parent/change pairs of
``benchmarks/ledger/run.py``.

The base revision is materialised with ``git archive`` under a
temporary directory, removed afterwards; nothing is fetched.

Usage::

    python scripts/ab.py --base HEAD~1 [--reps 30] [--iters 20] \\
        [--probes step1,step8,prompt32,options,wave]
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
PROBES = (
    "step1", "step2", "step4", "step8", "step16", "same8", "pairs8", "prompt32",
    "chunk4", "options", "wave",
)
STEPS = {
    **{f"step{w}": [20 + 3 * i for i in range(w)] for w in (1, 2, 4, 8, 16)},
    "same8": [20] * 8,
    "pairs8": [20 + 3 * (i // 2) for i in range(8)],
}
"""Per decode-step probe, each row's cached prefix length."""
TREES = ("base", "change", "control")
CELLS = {"options": ("mmlu", "2bits-mem"), "wave": ("wmt16", "1bit-comp")}
"""Per campaign probe, the ``(task, fault model)`` of its cell."""
CELL_EXAMPLES, CELL_TRIALS = 4, 16


def load(src: str | Path) -> SimpleNamespace:
    """``src``'s ``repro.inference``, ``.fi``, ``.generation`` and
    ``.tasks``, under module objects of their own: every ``repro``
    module already imported is set aside for the import and put back
    after it."""
    saved = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "repro"}
    for name in saved:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        return SimpleNamespace(**{
            name: importlib.import_module(f"repro.{name}")
            for name in ("inference", "fi", "generation", "tasks")
        })
    finally:
        sys.path.remove(str(src))
        for name in [k for k in sys.modules if k.split(".")[0] == "repro"]:
            del sys.modules[name]
        sys.modules.update(saved)


def cell(probe: str, tree: SimpleNamespace, engine, tokenizer, world):
    """The trial phase of ``probe``'s cell, built with ``tree``'s
    modules on ``engine``: a callable that runs the same trials every
    call, over the baseline computed here once."""
    name, fault = CELLS[probe]
    task = next(t for t in tree.tasks.all_tasks(world) if t.name == name)
    campaign = tree.fi.FICampaign(
        engine=engine,
        tokenizer=tokenizer,
        task_name=name,
        metrics=task.metrics,
        examples=tree.tasks.standardized_subset(task, CELL_EXAMPLES),
        fault_model=tree.fi.FaultModel(fault),
        seed=11,
        generation=tree.generation.GenerationConfig(
            max_new_tokens=task.max_new_tokens, eos_id=tokenizer.vocab.eos_id
        ),
    )
    campaign.compute_baseline()
    return lambda: campaign.run(CELL_TRIALS)


def setting(probe: str, tree: SimpleNamespace, engine, tokenizer=None, world=None):
    """One probe on one tree's ``engine``: a callable that runs one
    operation, the same one every call.  The campaign probes encode and
    build their examples with ``tokenizer`` and ``world``."""
    if probe in CELLS:
        return cell(probe, tree, engine, tokenizer, world)
    cfg = engine.config

    def ids(n: int, offset: int = 0) -> list[int]:
        return [1 + (offset + i) % (cfg.vocab_size - 1) for i in range(n)]

    if probe in STEPS:
        width = len(STEPS[probe])
        pool = engine.new_pool(width)
        rows = [pool.caches(pool.acquire()) for _ in range(width)]
        lengths = [min(n, cfg.max_seq - 1) for n in STEPS[probe]]
        for caches, n in zip(rows, lengths):
            engine.forward(ids(n), caches, 0, 0)
        tokens, iterations = [3] * width, [1] * width

        def step() -> None:
            for caches, n in zip(rows, lengths):
                for cache in caches:
                    cache.length = n
            engine.forward_step_batch(tokens, rows, lengths, iterations)

        return step
    if probe == "prompt32":
        caches, tokens = engine.new_caches(), ids(32)

        def prompt() -> None:
            for cache in caches:
                cache.length = 0
            engine.forward(tokens, caches, 0, 0)

        return prompt
    if probe == "chunk4":
        chunk = [ids(30, offset=7 * row) for row in range(4)]
        return lambda: engine.forward_chunk_batch(
            chunk, None, [0] * 4, [0] * 4, read_from=26
        )
    raise ValueError(f"unknown probe {probe!r}; known: {', '.join(PROBES)}")


def measure(
    srcs: dict[str, str | Path],
    store,
    probes=PROBES,
    reps: int = 30,
    iters: int = 20,
    warmup: int = 5,
    seed: int = 0,
    tokenizer=None,
    world=None,
) -> dict:
    """Time every probe on two loads each of the ``base`` and ``change``
    trees of ``srcs``, cast into the three roles anew every rep; returns
    the per-probe summary the module docstring describes.  The campaign
    probes need the ``tokenizer`` and ``world`` of ``store``'s model."""
    loads = [(tree, i) for tree in ("base", "change") for i in (0, 1)]
    trees = {k: load(srcs[k[0]]) for k in loads}
    engines = {k: trees[k].inference.InferenceEngine(store) for k in loads}
    runs = {
        (p, k): setting(p, trees[k], engines[k], tokenizer, world)
        for p in probes for k in loads
    }
    rng = random.Random(seed)
    order = list(runs)
    rng.shuffle(order)
    for key in order:  # a warm-up per setting
        for _ in range(warmup):
            runs[key]()
    times: dict[tuple, list[float]] = {(p, r): [] for p in probes for r in TREES}
    played = {role: [0, 0] for role in TREES}
    slots = list(times)
    for rep in range(reps):
        if rep % 2 == 0:
            b, c = rng.randrange(2), rng.randrange(2)
        else:  # the pair's second rep swaps every role's load
            b, c = 1 - b, 1 - c
        cast = {
            "base": ("base", b), "change": ("change", c), "control": ("change", 1 - c)
        }
        for role, (_, i) in cast.items():
            played[role][i] += 1
        rng.shuffle(slots)
        for p, role in slots:
            run, laps = runs[p, cast[role]], []
            for _ in range(iters):
                t0 = time.perf_counter()
                run()
                laps.append(time.perf_counter() - t0)
            times[p, role].append(statistics.median(laps))
    median = statistics.median
    summary = {}
    for p in probes:
        base, change, control = (times[p, role] for role in TREES)
        ratio = median(c / b for c, b in zip(change, base))
        aa = [math.log(c / a) for c, a in zip(change, control)]
        centre = median(aa)
        sigma = 1.4826 * median(abs(r - centre) for r in aa)  # one rep's
        wide = math.exp(max(5 * 1.2533 * sigma / math.sqrt(reps), math.log(1.02)))
        ratio, low, high = round(ratio, 4), round(1 / wide, 4), round(wide, 4)
        summary[p] = {
            "us": {role: round(median(times[p, role]) * 1e6, 2) for role in TREES},
            "ratio": ratio,
            "aa": round(math.exp(centre), 4),
            "aa_spread": [low, high],
            "faster": sum(c < b for c, b in zip(change, base)),
            "resolved": not low <= ratio <= high,
        }
    return {"reps": reps, "iters": iters, "played": played, "probes": summary}


def materialise(rev: str, into: Path) -> Path:
    """``rev``'s tree, extracted from ``git archive`` under ``into``;
    returns its ``src``."""
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", rev], check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return into / "src"


def main(argv: list[str] | None = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--reps", type=int, default=30)
    parser.add_argument("--iters", type=int, default=20, help="timed operations per rep")
    parser.add_argument("--probes", default=",".join(PROBES))
    args = parser.parse_args(argv)
    # One BLAS thread, as in the ledger: set before anything loads NumPy.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ.setdefault("REPRO_ARTIFACTS", str(ROOT / "benchmarks/ledger/cache"))
    sys.path.insert(0, str(ROOT / "src"))
    from repro.zoo import default_tokenizer, default_world, load_model

    store = load_model("qwenlike-base", verbose=False)
    world = default_world()
    with tempfile.TemporaryDirectory(prefix="ab-base-") as tmp:
        srcs = {"base": materialise(args.base, Path(tmp)), "change": ROOT / "src"}
        result = measure(
            srcs, store, args.probes.split(","), reps=args.reps, iters=args.iters,
            tokenizer=default_tokenizer(world), world=world,
        )
    result = {"base": args.base, "model": "qwenlike-base", **result}
    print(json.dumps(result, indent=1))
    return result


if __name__ == "__main__":
    main()
