import json

import numpy as np
import pytest

from dcenorm import (
    ValidationError,
    load_model,
    rank_subjects,
    save_model,
    train_archetype,
)

from helpers import anchor_set

TISSUES = ("air", "fat", "dense", "heart")
# Added to small integer anchors, column by column: no two tissues of a subject tie, and each tissue's ranks stay.
TISSUE_OFFSETS = 100.0 * np.arange(4)


def sets_from_matrix(matrix, ids=None):
    """One AnchorSet per row of (air, fat, dense, heart) values."""
    ids = ids or [f"s{i:02d}" for i in range(len(matrix))]
    return [anchor_set(sid, *row) for sid, row in zip(ids, matrix)]


def rank_oracle(values, i):
    smaller = sum(1 for v in values if v < values[i])
    equal = sum(1 for v in values if v == values[i])
    return smaller + (equal + 1) / 2.0


def archetype_oracle(anchor_sets):
    """Quadratic re-scoring used to check the trained selection."""
    n = len(anchor_sets)
    scores = []
    for i in range(n):
        total = 0.0
        for tissue in TISSUES:
            values = [a.values()[tissue] for a in anchor_sets]
            total += rank_oracle(values, i)
        scores.append(total / len(TISSUES))
    target = (n + 1) / 2.0
    best = min(abs(s - target) for s in scores)
    winners = [
        anchor_sets[i].subject_id for i in range(n) if abs(scores[i] - target) == best
    ]
    return min(winners)


class TestRankSubjects:
    def test_distinct_values(self):
        sets = sets_from_matrix([[5, 10, 20, 30], [1, 10, 20, 30], [3, 10, 20, 30]])
        # air differs, the rest is constant filler that no air value ties with
        assert list(rank_subjects(sets, "air")) == [3.0, 1.0, 2.0]

    def test_full_tie_averages_positions(self):
        sets = sets_from_matrix([[2, 10, 20, 30], [2, 10, 20, 30]])
        assert list(rank_subjects(sets, "air")) == [1.5, 1.5]

    def test_matches_pairwise_oracle(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 15))
            values = rng.integers(0, 6, size=n).astype(float)
            sets = sets_from_matrix([[v, 10, 20, 30] for v in values])
            got = rank_subjects(sets, "air")
            expected = [rank_oracle(list(values), i) for i in range(n)]
            assert list(got) == expected

    def test_ranks_sum_to_triangular_number(self, rng):
        n = 12
        values = rng.integers(0, 4, size=n).astype(float)
        sets = sets_from_matrix([[v, 10, 20, 30] for v in values])
        assert rank_subjects(sets, "air").sum() == n * (n + 1) / 2.0

    def test_unknown_tissue(self):
        with pytest.raises(ValidationError):
            rank_subjects(sets_from_matrix([[1, 2, 3, 4]]), "bone")

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            rank_subjects([], "air")


class TestTrainArchetype:
    def test_single_subject_is_its_own_archetype(self):
        model = train_archetype(sets_from_matrix([[1, 2, 3, 4]], ids=["only"]))
        assert model.archetype_subject_id == "only"
        assert model.values() == {"air": 1.0, "fat": 2.0, "dense": 3.0, "heart": 4.0}
        assert model.n_training == 1

    def test_consistent_ordering_picks_middle(self):
        rows = [
            [10, 20, 30, 40],
            [11, 22, 33, 44],
            [12, 24, 36, 48],
        ]
        model = train_archetype(sets_from_matrix(rows, ids=["lo", "mid", "hi"]))
        assert model.archetype_subject_id == "mid"
        assert model.m_heart == 44.0

    def test_archetype_anchors_copied_verbatim(self):
        rows = [[1, 2, 3, 4], [1.5, 2.5, 3.5, 4.5], [2, 3, 4, 5]]
        sets = sets_from_matrix(rows)
        model = train_archetype(sets)
        chosen = next(a for a in sets if a.subject_id == model.archetype_subject_id)
        assert model.values() == chosen.values()

    def test_matches_rescoring_oracle(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 12))
            matrix = rng.integers(0, 8, size=(n, 4)) + TISSUE_OFFSETS
            sets = sets_from_matrix(matrix)
            model = train_archetype(sets)
            assert model.archetype_subject_id == archetype_oracle(sets)

    def test_training_order_invariance(self, rng):
        matrix = rng.integers(0, 10, size=(9, 4)) + TISSUE_OFFSETS
        sets = sets_from_matrix(matrix)
        shuffled = list(sets)
        rng.shuffle(shuffled)
        assert (
            train_archetype(sets).archetype_subject_id
            == train_archetype(shuffled).archetype_subject_id
        )

    def test_choice_invariant_under_common_scaling(self, rng):
        matrix = rng.uniform(1, 100, size=(11, 4))
        sets = sets_from_matrix(matrix)
        scaled = sets_from_matrix(matrix * 4.0)
        a = train_archetype(sets)
        b = train_archetype(scaled)
        assert a.archetype_subject_id == b.archetype_subject_id
        for tissue in TISSUES:
            assert b.values()[tissue] == 4.0 * a.values()[tissue]

    def test_tie_breaks_to_smallest_id(self):
        rows = [[1, 2, 3, 4], [1, 2, 3, 4]]
        model = train_archetype(sets_from_matrix(rows, ids=["zeta", "alpha"]))
        assert model.archetype_subject_id == "alpha"

    def test_duplicate_ids_rejected(self):
        sets = sets_from_matrix([[1, 2, 3, 4], [5, 6, 7, 8]], ids=["s", "s"])
        with pytest.raises(ValidationError, match="duplicate"):
            train_archetype(sets)

    def test_empty_training_rejected(self):
        with pytest.raises(ValidationError):
            train_archetype([])

    def test_created_at_honors_source_date_epoch(self, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        model = train_archetype(sets_from_matrix([[1, 2, 3, 4]]))
        assert model.created_at == "1970-01-01T00:00:00+00:00"


class TestModelIO:
    def _model(self):
        return train_archetype(sets_from_matrix([[1, 2, 3, 4]], ids=["arch"]))

    def test_round_trip(self, tmp_path):
        model = self._model()
        save_model(model, tmp_path / "model.json")
        assert load_model(tmp_path / "model.json") == model

    def test_unknown_format_version(self, tmp_path):
        model = self._model()
        save_model(model, tmp_path / "model.json")
        payload = json.loads((tmp_path / "model.json").read_text())
        payload["format_version"] = 999
        (tmp_path / "model.json").write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match="999"):
            load_model(tmp_path / "model.json")

    def test_missing_key_named(self, tmp_path):
        model = self._model()
        save_model(model, tmp_path / "model.json")
        payload = json.loads((tmp_path / "model.json").read_text())
        del payload["m_fat"]
        (tmp_path / "model.json").write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match="m_fat"):
            load_model(tmp_path / "model.json")

    def test_equal_targets_refused_naming_the_file(self, tmp_path):
        """Targets follow the anchors' rule: no two tissues share a value."""
        path = tmp_path / "model.json"
        save_model(self._model(), path)
        path.write_text(json.dumps(dict(json.loads(path.read_text()), m_heart=3.0)))
        with pytest.raises(ValidationError) as info:
            load_model(path)
        assert str(info.value) == f"tissues 'dense' and 'heart' share target value 3.0 [{path}]"

    def test_non_object_payload(self, tmp_path):
        (tmp_path / "model.json").write_text("[1, 2]")
        with pytest.raises(ValidationError, match="object"):
            load_model(tmp_path / "model.json")
