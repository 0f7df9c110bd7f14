"""Seeded generation and blowup accounting."""

import dataclasses
import hashlib

import pytest

from monocnf import (
    CSV_HEADER,
    PROFILES,
    TARGETS,
    CnfFormula,
    DimacsDocument,
    GenConfig,
    GenerationError,
    SplitMix64,
    blowup_rows,
    check_profile,
    generate,
    occurrences,
    serialize,
)
from monocnf import bench
from naive import reference_generate

# first outputs of the SplitMix64 reference stream, frozen from a run
# that matches the published vectors for these seeds
SPLITMIX_VECTORS = {
    0: (16294208416658607535, 7960286522194355700, 487617019471545679),
    1: (10451216379200822465, 13757245211066428519, 17911839290282890590),
    1234567: (6457827717110365317, 3203168211198807973, 9817491932198370423),
}


@pytest.mark.parametrize("seed,expected", sorted(SPLITMIX_VECTORS.items()))
def test_splitmix64_reference_vectors(seed, expected):
    rng = SplitMix64(seed)
    assert tuple(rng.next_u64() for _ in range(3)) == expected


def test_splitmix64_masks_seed_to_64_bits():
    assert SplitMix64(1 << 64).next_u64() == SPLITMIX_VECTORS[0][0]


def test_below_stays_in_range_and_is_deterministic():
    rng = SplitMix64(5)
    draws = [rng.below(7) for _ in range(2000)]
    assert set(draws) <= set(range(7))
    assert len(set(draws)) == 7
    again = SplitMix64(5)
    assert [again.below(7) for _ in range(2000)] == draws


def test_below_rejects_nonpositive_bound():
    with pytest.raises(ValueError, match="positive"):
        SplitMix64(5).below(0)


def test_gen_config_validation():
    GenConfig(3, 4, 0)  # 12 literal slots, 12 occurrence budget
    with pytest.raises(GenerationError, match="allow only 12"):
        GenConfig(3, 5, 0)
    with pytest.raises(GenerationError, match="at least 3 variables"):
        GenConfig(2, 1, 0)
    with pytest.raises(GenerationError, match="nonnegative"):
        GenConfig(3, -1, 0)
    GenConfig(bench._MAX_VARIABLES, 0, 0)
    with pytest.raises(GenerationError, match="generator limit"):
        GenConfig(bench._MAX_VARIABLES + 1, 0, 0)


def test_generate_is_deterministic_per_seed():
    first = generate(GenConfig(8, 10, 99))
    second = generate(GenConfig(8, 10, 99))
    assert first == second
    other = generate(GenConfig(8, 10, 100))
    assert first != other


def test_generate_matches_frozen_instance():
    formula = generate(GenConfig(6, 8, 42))
    assert list(formula.clauses) == [
        (-1, 3, 4),
        (1, 4, -6),
        (-1, 3, -4),
        (1, 3, -4),
        (2, 3, -5),
        (-2, -5, -6),
        (-2, 5, 6),
        (-2, 5, -6),
    ]
    assert formula.num_vars == 6


def test_generate_matches_frozen_reference_generator():
    # m runs up to the largest count 4n allows; near it the reference
    # restarts 546 times over the grid, so the restart path is compared too
    for n in range(3, 16):
        for m in range(4 * n // 3 - 2, 4 * n // 3 + 1):
            for seed in range(60):
                formula = generate(GenConfig(n, m, seed))
                assert list(formula.clauses) == reference_generate(n, m, seed), (n, m, seed)
                assert formula.num_vars == n


def test_generate_matches_pinned_digest_at_scale():
    # SHA-256 of the instance the package generated before the eligible
    # list was kept up to date instead of rebuilt per clause
    text = serialize(DimacsDocument(generate(GenConfig(2000, 2666, 7))))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "2c6bac61cfdd7213925f19b013f95e89c70cdc1f616ef2552a07437872096453"
    )


def test_generate_gives_up_after_max_attempts(monkeypatch):
    # the first attempt for this seed runs out of eligible variables
    monkeypatch.setattr(bench, "_MAX_ATTEMPTS", 1)
    with pytest.raises(GenerationError) as info:
        generate(GenConfig(6, 8, 0))
    assert str(info.value) == "no valid instance after 1 attempts for vars=6 clauses=8 seed=0"
    assert generate(GenConfig(6, 8, 1)).clauses  # its first attempt succeeds


def test_generated_instances_satisfy_3sat4_profile():
    for seed in range(100):
        formula = generate(GenConfig(7, 9, seed))
        assert check_profile(formula, PROFILES["3sat4"]).ok, seed
        assert formula.num_vars == 7


def test_generate_handles_tight_budget():
    # 3 variables, 4 clauses consumes the entire occurrence budget
    formula = generate(GenConfig(3, 4, 11))
    counts = occurrences(formula)
    assert all(counts[v] == 4 for v in (1, 2, 3))


def test_blowup_record_counts_on_worked_example():
    formula = CnfFormula.from_ints([[1, -2, 3]])
    by_name = {row[6]: dict(zip(CSV_HEADER, row)) for row in blowup_rows(0, formula)}
    for row in by_name.values():
        assert row["input_vars"] == "3" and row["input_clauses"] == "1"
        assert row["mixed"] == "1"
        assert int(row["pos2"]) + int(row["neg2"]) == 1
    assert by_name["mono23sat4"]["out_clauses"] == "2"
    assert by_name["mono23sat4"]["out_vars"] == "4"
    assert by_name["mono3sat5"]["out_clauses"] == "20"
    assert by_name["mono3sat5"]["out_vars"] == "22"
    assert by_name["mono3sat5-compact"]["out_clauses"] == "18"
    assert by_name["mono3sat5-compact"]["out_vars"] == "20"
    assert by_name["mono3sat4"]["out_clauses"] == "27"
    assert by_name["mono3sat4"]["out_vars"] == "25"


def test_blowup_identity_on_monotone_input_without_two_clauses():
    formula = CnfFormula.from_ints([[1, 2, 3], [-1, -2, -3]])
    rows = blowup_rows(0, formula)
    assert all(row[3:6] == ("0", "0", "0") for row in rows)  # mixed, pos2, neg2
    assert all(row[7:9] == ("3", "2") for row in rows)  # out_vars, out_clauses


def test_blowup_two_clause_census_matches_mixed_count():
    for seed in range(20):
        formula = generate(GenConfig(8, 10, seed))
        for row in blowup_rows(seed, formula):
            assert int(row[4]) + int(row[5]) == int(row[3])


def test_blowup_identity_violation_names_the_target(monkeypatch):
    # one clause too few per 2-clause: the measured gadget output breaks it
    wrong = dataclasses.replace(TARGETS["mono3sat4"], growth=(21, 24))
    monkeypatch.setitem(TARGETS, "mono3sat4", wrong)
    with pytest.raises(RuntimeError, match="blowup identity violated for mono3sat4"):
        blowup_rows(0, CnfFormula.from_ints([[1, -2, 3]]))


def test_csv_rows_match_header():
    rows = blowup_rows(7, CnfFormula.from_ints([[1, -2, 3]]))
    assert len(rows) == 4
    assert len(CSV_HEADER) == 10
    for row in rows:
        assert len(row) == len(CSV_HEADER)
        assert row[0] == "7"
    pipelines = [row[6] for row in rows]
    assert pipelines == ["mono23sat4", "mono3sat5", "mono3sat5-compact", "mono3sat4"]
