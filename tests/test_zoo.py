"""Tests for the model zoo registry and cache plumbing.

Full zoo builds take minutes; these tests cover the registry contract
and the save/load cache path with a temporarily-shrunk spec.
"""

import dataclasses

import numpy as np
import pytest

from repro.model import ParamStore
from repro.zoo import ZOO, cache_path, get_spec, load_model, zoo_names
from repro.zoo import build as zoo_build
from repro.zoo.registry import ZooSpec


class TestRegistry:
    def test_expected_roster(self):
        names = set(zoo_names())
        # The paper's model inventory (DESIGN.md mapping).
        assert {
            "qwenlike-base", "llamalike-base", "falconlike-base",
            "qwenlike-tiny", "qwenlike-small", "qwenlike-large", "qwenlike-xl",
            "moelike-base", "denselike-base", "alma-base", "summarizer-base",
        } <= names

    def test_get_spec_unknown(self):
        with pytest.raises(KeyError):
            get_spec("gpt5")

    def test_scale_sweep_monotone_sizes(self):
        sizes = [
            get_spec(f"qwenlike-{s}").d_model
            for s in ("tiny", "small", "base", "large", "xl")
        ]
        assert sizes == sorted(sizes)
        assert len(set(sizes)) == len(sizes)

    def test_families_differ_in_init(self):
        gains = {get_spec(n).init_gain for n in
                 ("qwenlike-base", "llamalike-base", "falconlike-base")}
        assert len(gains) == 3  # distinct distributions (Fig. 13)

    def test_fine_tuned_have_bases(self):
        assert get_spec("alma-base").base == "llamalike-base"
        assert get_spec("summarizer-base").base == "llamalike-base"
        assert get_spec("alma-base").corpus == "wmt16"

    def test_moe_config(self):
        spec = get_spec("moelike-base")
        assert spec.n_experts == 8 and spec.top_k == 2
        dense = get_spec("denselike-base")
        assert dense.d_ff == spec.d_ff  # dense twin matches one expert

    def test_model_config_construction(self, tokenizer):
        for name in zoo_names():
            config = get_spec(name).model_config(len(tokenizer))
            assert config.vocab_size == len(tokenizer)
            assert config.n_params() > 0

    def test_train_config_valid(self):
        for name in zoo_names():
            tc = get_spec(name).train_config()
            assert tc.steps >= 1


class TestCache:
    def test_cache_path_stable(self):
        assert cache_path("qwenlike-base") == cache_path("qwenlike-base")

    def test_cache_path_distinguishes_models(self):
        assert cache_path("qwenlike-base") != cache_path("llamalike-base")

    def test_build_and_cache_tiny(self, tmp_path, monkeypatch):
        """End-to-end build -> save -> load with a 30-step throwaway spec."""
        spec = dataclasses.replace(
            get_spec("qwenlike-tiny"), steps=30, corpus_docs=300
        )
        monkeypatch.setitem(ZOO, "qwenlike-tiny", spec)
        store = load_model("qwenlike-tiny", directory=tmp_path, verbose=False)
        assert isinstance(store, ParamStore)
        path = cache_path("qwenlike-tiny", tmp_path)
        assert path.exists()
        again = load_model("qwenlike-tiny", directory=tmp_path, verbose=False)
        assert again.fingerprint() == store.fingerprint()

    @pytest.mark.parametrize(
        "garbage",
        [b"not an archive " * 40, b"", b"PK\x03\x04" + bytes(200)],
        ids=["text", "empty", "truncated-zip"],
    )
    def test_unreadable_cache_is_a_miss(
        self, garbage, tmp_path, monkeypatch, capsys, untrained_store
    ):
        """A cached ``.npz`` that cannot be read is rebuilt over, with a
        note, instead of failing every command that loads the model."""
        monkeypatch.setenv("REPRO_ARTIFACTS", str(tmp_path))
        monkeypatch.setattr(
            zoo_build,
            "build_model",
            lambda name, directory=None, verbose=True: untrained_store,
        )
        path = cache_path("qwenlike-tiny")
        assert path.parent == tmp_path
        path.write_bytes(garbage)

        store = load_model("qwenlike-tiny")
        assert store.fingerprint() == untrained_store.fingerprint()
        assert f"cached {path.name} is unreadable" in capsys.readouterr().err
        assert ParamStore.load(path).fingerprint() == store.fingerprint()
        # The repaired cache is a plain hit: nothing is built again.
        monkeypatch.setattr(zoo_build, "build_model", None)
        assert load_model("qwenlike-tiny").fingerprint() == store.fingerprint()

    def test_artifacts_dir_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_ARTIFACTS", str(tmp_path))
        assert zoo_build.artifacts_dir() == tmp_path
