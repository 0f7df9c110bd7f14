"""Seeded generation and blowup accounting."""

import hashlib
from itertools import islice

import pytest

from monocnf import (
    CSV_HEADER,
    PROFILES,
    TARGETS,
    CnfFormula,
    DimacsDocument,
    GenConfig,
    GenerationError,
    Target,
    blowup_rows,
    check_profile,
    generate,
    occurrences,
    serialize,
)
from monocnf import bench
from naive import SplitMix64, reference_generate

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


# every state wraps past 2**64 within a batch, as the increment is 0.62 * 2**64;
# the last seed's state wraps to exactly 0 at the fifth step
@pytest.mark.parametrize("seed", [0, 1, 1234567, bench._U64, -5 * 0x9E3779B97F4A7C15 & bench._U64])
def test_batched_stream_matches_reference_across_batches(seed):
    rng = SplitMix64(seed)
    count = 3 * bench._LANES + 5
    assert list(islice(bench._draws(seed), count)) == [rng.next_u64() for _ in range(count)]


@pytest.mark.parametrize("seed,expected", sorted(SPLITMIX_VECTORS.items()))
def test_batched_stream_gives_the_reference_vectors(seed, expected):
    assert tuple(islice(bench._draws(seed), 3)) == expected


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


def _seed_whose_draw_is(value, nth=1):
    # the mix is a bijection: each xorshift is undone by iterating it, each
    # odd multiplier by its inverse mod 2**64; the nth draw mixes seed + nth*gamma
    def unshift(y, k):
        x = y
        for _ in range(64 // k):
            x = y ^ (x >> k)
        return x

    z = unshift(value, 31)
    z = unshift(z * pow(0x94D049BB133111EB, -1, 1 << 64) & bench._U64, 27)
    z = unshift(z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & bench._U64, 30)
    seed = (z - nth * 0x9E3779B97F4A7C15) & bench._U64
    rng = SplitMix64(seed)
    assert [rng.next_u64() for _ in range(nth)][-1] == value
    return seed


# 2**64 % bound is 1 for 3 and 5, so their limit is 2**64 - 1; 274177
# divides 2**64 + 1, so its limit is 2**64 - 274176, the least it can be
@pytest.mark.parametrize("bound", [3, 5, 274177])
def test_below_rejects_exactly_the_draws_at_or_above_its_limit(bound):
    limit = (1 << 64) - (1 << 64) % bound
    assert SplitMix64(_seed_whose_draw_is(limit - 1)).below(bound) == (limit - 1) % bound
    rng = SplitMix64(_seed_whose_draw_is(limit))
    rng.next_u64()
    assert SplitMix64(_seed_whose_draw_is(limit)).below(bound) == rng.next_u64() % bound


# 274177 divides 2**64 + 1, so a pick among 274177 entries has the least
# limit there is; n = 274177, 274178 and 274179 put it on the first,
# second and third pick of the first clause
@pytest.mark.parametrize("n,m", [(3, 1), (5, 6), (274177, 1), (274178, 1), (274179, 1)])
@pytest.mark.parametrize("position", [1, 2, 3])
def test_generate_matches_reference_when_a_pick_meets_the_rejection_test(n, m, position):
    # the pick's draw: _SAFE, the largest every pick accepts, and the next;
    # the largest this pick's exact test accepts at once and the next
    # (accepted by the limit, except where the limit is the least); 2**64 - 1
    last = n - position
    for value in (bench._SAFE, bench._SAFE + 1, bench._U64 - last, bench._U64 - last + 1, bench._U64):
        if value > bench._U64:
            continue  # the third pick at n = 3 has one entry: every draw passes at once
        seed = _seed_whose_draw_is(value, position)
        assert list(generate(GenConfig(n, m, seed)).clauses) == reference_generate(n, m, seed), value


def _swap_remove_case(i, j, k, last):
    """Which branch of ``generate``'s written-out swap-removes the first
    clause's indices take."""
    if j == i:
        return "j == i"
    if k == j:
        return "k == j, i == last - 1" if i == last - 1 else "k == j"
    return "k == i" if k == i else None


@pytest.mark.parametrize("case", ["j == i", "k == j, i == last - 1", "k == j", "k == i"])
@pytest.mark.parametrize("n", range(3, 7))
def test_generate_matches_reference_on_each_swap_remove_case(n, case):
    last = n - 1
    for seed in range(1000):
        rng = SplitMix64(seed)
        indices = rng.below(last + 1), rng.below(last), rng.below(last - 1)
        if _swap_remove_case(*indices, last) == case:
            break
    else:
        pytest.fail(f"no seed below 1000 meets {case!r} at n={n}")
    m = 4 * n // 3
    assert list(generate(GenConfig(n, m, seed)).clauses) == reference_generate(n, m, seed)


def _exhaustions(clauses, n):
    """For each clause a later one follows: how many of its variables it
    exhausts, and whether its highest variable, exhausted, was the last
    entry of the ascending list of variables with budget left."""
    budget = [4] * (n + 1)
    for clause in clauses[:-1]:
        top = max(v for v in range(1, n + 1) if budget[v])
        variables = [abs(lit) for lit in clause]
        for v in variables:
            budget[v] -= 1
        yield sum(not budget[v] for v in variables), max(variables) == top and not budget[top]


@pytest.mark.parametrize("at_last", [False, True], ids=["elsewhere", "at-last"])
@pytest.mark.parametrize("exhausted", [2, 3])
@pytest.mark.parametrize("n", range(6, 9))
def test_generate_matches_reference_when_a_clause_exhausts_several_variables(n, exhausted, at_last):
    # a clause's exhausted variables leave the list highest index first; in
    # any other order a later deletion hits the wrong entry or none
    m = 4 * n // 3
    for seed in range(1000):
        expected = reference_generate(n, m, seed)
        if (exhausted, at_last) in _exhaustions(expected, n):
            break
    else:
        pytest.fail(f"no seed below 1000 has a clause exhausting {exhausted} variables (at_last={at_last}) at n={n}")
    assert list(generate(GenConfig(n, m, seed)).clauses) == expected


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


def test_generate_matches_reference_across_batches_and_restarts(monkeypatch):
    # n=300, m=400 uses the whole budget; seed 12's first two attempts run
    # out of eligible variables, and each attempt draws over 2,000 words
    assert list(generate(GenConfig(300, 400, 12)).clauses) == reference_generate(300, 400, 12)
    monkeypatch.setattr(bench, "_MAX_ATTEMPTS", 2)
    with pytest.raises(GenerationError, match="after 2 attempts"):
        generate(GenConfig(300, 400, 12))


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


def test_blowup_rows_do_not_depend_on_the_order_of_the_targets(monkeypatch):
    formula = generate(GenConfig(12, 16, 5))
    by_name = {row[6]: row[:-1] for row in blowup_rows(5, formula)}  # millis aside
    monkeypatch.setattr(bench, "TARGETS", dict(reversed(TARGETS.items())))
    rows = blowup_rows(5, formula)
    assert [row[6] for row in rows] == list(reversed(by_name))
    assert {row[6]: row[:-1] for row in rows} == by_name


def _skew_size(monkeypatch, name: str, per_pair: tuple[int, int]) -> None:
    """Make ``Target.size`` of ``TARGETS[name]`` add ``per_pair`` more
    (variables, clauses) per 2-clause than the target's growth."""
    size = Target.size

    def skewed(self, num_vars, num_clauses, census):
        counts = size(self, num_vars, num_clauses, census)
        if self is not TARGETS[name]:
            return counts
        return counts[0] + per_pair[0] * census[1], counts[1] + per_pair[1] * census[1]

    monkeypatch.setattr(Target, "size", skewed)


def test_blowup_identity_violation_names_the_target(monkeypatch):
    # one clause too few per 2-clause: the measured gadget output breaks it
    _skew_size(monkeypatch, "mono3sat4", (0, -1))
    with pytest.raises(RuntimeError, match="blowup identity violated for mono3sat4"):
        blowup_rows(0, CnfFormula.from_ints([[1, -2, 3]]))


def test_blowup_measures_variables_from_the_output_clauses(monkeypatch):
    # one variable too many per 2-clause: the output's clauses use one fewer,
    # though its declared count follows the same closed form
    _skew_size(monkeypatch, "mono3sat4", (1, 0))
    with pytest.raises(RuntimeError, match="blowup identity violated for mono3sat4"):
        blowup_rows(0, CnfFormula.from_ints([[1, -2, 3], [-4, 5, 6]]))


def test_csv_rows_match_header():
    rows = blowup_rows(7, CnfFormula.from_ints([[1, -2, 3]]))
    assert len(rows) == 4
    assert len(CSV_HEADER) == 10
    for row in rows:
        assert len(row) == len(CSV_HEADER)
        assert row[0] == "7"
    pipelines = [row[6] for row in rows]
    assert pipelines == ["mono23sat4", "mono3sat5", "mono3sat5-compact", "mono3sat4"]
