from __future__ import annotations

from statistics import median

import pytest

from procsem import played_out, synth_corpus, validate_corpus
from procsem.core import tree_labels


class TestSynthCorpus:
    def test_every_entry_is_admitted(self):
        entries = synth_corpus(n_models=120, seed=3)
        report = validate_corpus(entries)
        assert not report.rejected
        assert len(report.admitted) == 120

    def test_deterministic(self):
        assert synth_corpus(50, seed=8) == synth_corpus(50, seed=8)

    def test_seeds_differ(self):
        assert synth_corpus(50, seed=8) != synth_corpus(50, seed=9)

    def test_each_label_used_once_per_tree(self):
        for entry in synth_corpus(80, seed=4):
            labels = tree_labels(entry.tree)
            assert len(labels) == len(set(labels))

    def test_activity_sets_unique_across_corpus(self):
        entries = synth_corpus(200, seed=5)
        sets = [frozenset(tree_labels(e.tree)) for e in entries]
        assert len(sets) == len(set(sets))

    def test_activity_count_bounds(self):
        entries = synth_corpus(100, seed=6, min_activities=3, max_activities=5)
        for entry in entries:
            assert 3 <= len(set(tree_labels(entry.tree))) <= 5

    def test_default_median_activity_count_near_four(self):
        entries = synth_corpus(400, seed=7)
        counts = [len(set(tree_labels(e.tree))) for e in entries]
        assert 4 <= median(counts) <= 5

    def test_min_trace_len_floor(self):
        entries = synth_corpus(60, seed=9, min_activities=3, min_trace_len=3)
        report = validate_corpus(entries)
        assert not report.rejected
        for model in report.admitted:
            assert all(len(s) >= 3 for s in played_out(model).sequences)

    def test_min_trace_len_requires_enough_activities(self):
        with pytest.raises(ValueError):
            synth_corpus(10, seed=0, min_activities=2, min_trace_len=3)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            synth_corpus(0, seed=0)
        with pytest.raises(ValueError):
            synth_corpus(5, seed=0, min_activities=1)
        with pytest.raises(ValueError):
            synth_corpus(5, seed=0, min_activities=9, max_activities=8)
        with pytest.raises(ValueError, match="tau_prob"):
            synth_corpus(5, seed=0, tau_prob=7)
        with pytest.raises(ValueError, match="min_trace_len"):
            synth_corpus(5, seed=0, min_trace_len=-1)
