"""``scripts/ab.py`` against itself: the same ``src`` loaded as base,
change and control, every probe (the campaign cells' on the suite's
tokenizer and world).  Only what does not depend on timing is asserted
— whether a ratio falls inside its A/A band is a measurement, which
``python scripts/ab.py --base HEAD`` on a clean tree makes."""

from __future__ import annotations

import importlib.util
import os
import sys
from pathlib import Path

from repro.model import ModelConfig, TransformerLM

SRC = Path(__file__).parent.parent / "src"
SCRIPT = SRC.parent / "scripts" / "ab.py"


def test_head_against_head_runs_every_probe_on_trees_of_its_own(tokenizer, world):
    environ = dict(os.environ)
    spec = importlib.util.spec_from_file_location("ab", SCRIPT)
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    assert dict(os.environ) == environ  # loading the tool sets nothing
    config = ModelConfig(
        vocab_size=len(tokenizer), d_model=32, n_heads=4, n_blocks=2, d_ff=48,
        max_seq=160,
    )
    store = TransformerLM(config, seed=3).to_store()
    loaded = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "repro"}
    result = ab.measure(
        {"base": SRC, "change": SRC}, store, reps=4, iters=2, warmup=1,
        tokenizer=tokenizer, world=world,
    )
    # The trees' modules were their own: the suite's are back, untouched.
    assert {k: v for k, v in sys.modules.items() if k.split(".")[0] == "repro"} == loaded
    assert result["reps"] == 4 and result["iters"] == 2
    # Both loads of each tree were timed, each in every role it can play.
    assert result["played"] == {role: [2, 2] for role in ab.TREES}
    assert set(result["probes"]) == set(ab.PROBES)
    # The width-8 steps whose rows share lengths, beside step8's distinct
    # ones: one length, and four lengths each held by two adjacent rows.
    assert {"same8", "pairs8"} <= set(ab.PROBES)
    assert len(ab.STEPS["same8"]) == 8 and len(set(ab.STEPS["same8"])) == 1
    pairs = ab.STEPS["pairs8"]
    assert len(set(pairs)) == 4 and pairs[::2] == pairs[1::2]
    assert len(set(ab.STEPS["step8"])) == 8
    for probe, row in result["probes"].items():
        assert set(row) == {"us", "ratio", "aa", "aa_spread", "faster", "resolved"}
        assert set(row["us"]) == {"base", "change", "control"}
        assert all(us > 0 for us in row["us"].values()), (probe, row)
        low, high = row["aa_spread"]
        assert low < 1 < high, (probe, row)
        assert row["ratio"] > 0 and 0 <= row["faster"] <= result["reps"]
        assert row["resolved"] == (not low <= row["ratio"] <= high), (probe, row)
