"""Pinned SHA-256 digests of ``monocnf reduce`` output.

The output of every target, with and without ``--trace`` comments, must
stay byte-for-byte identical across refactors.  Each case generates a
few seeded 3-SAT-4 instances with ``monocnf gen``, reduces them file to
file, and compares the digest of each output with the pinned value.  The
monotone (2,3)-SAT-4 entry is covered too: the ``mono23sat4`` output of
each instance is reduced again to the two capped targets.
"""

import hashlib

import pytest

from monocnf.cli import run

# (variables, clauses, seed) of the generated inputs
INSTANCES = ((9, 12, 0), (20, 26, 1), (40, 53, 2))

REDUCE_ARGS = {
    "mono23sat4": ("--target", "mono23sat4"),
    "mono3sat5": ("--target", "mono3sat5"),
    "mono3sat5-compact": ("--target", "mono3sat5", "--compact-r3"),
    "mono3sat4": ("--target", "mono3sat4"),
}

# (target, trace) -> one digest per instance, from a 3-SAT-4 input
DIGESTS = {
    ("mono23sat4", False): (
        "72fed1e1616da259381c522a22dcb6a28880b8fd56c2bded78080a1ecaefe3e6",
        "b34674416545f5114b0955e6ade65b3920c4afba89b2ffc296218938b2c8558b",
        "f66efa717884a35c797366ab01f4ca4b30c9803bb1a7e0204d33a5bd586281c3",
    ),
    ("mono23sat4", True): (
        "eb3d09b9aa39f1685d596752c4b860178b40787c9d792c932d759f14affa7e81",
        "f40236c97d9729183f54e4f43a489322d0939b5b7f8eab7117eda5ac2114996d",
        "adaca0094ebd9efeb86fe251e64826a4cfbc90c5c70c95b652922f4a2d630df0",
    ),
    ("mono3sat5", False): (
        "0037179b8d1daf78cfb9ebf1ed293cd57b86d0351be466e637b2976d86b99841",
        "fb3e3c39e32d7c43e9dc844fef0b9877069cdebfcf6255221534d3b2e808538f",
        "78cd3a8b109bbc1334cacd886ecfbd6cfd814caf8205cc3641426966b9214844",
    ),
    ("mono3sat5", True): (
        "6f2efc361332a2390940b3f3db6417b0b47292b5189b124337d44d674404111c",
        "7225906d9ac4d462104d590a2a64ae03a5758ae39f1bf13bd3918944ef5a2df4",
        "83ed0670cd686271ac679a13da220d7224d87070df0228712d712b20b0fb58e4",
    ),
    ("mono3sat5-compact", False): (
        "08303034f1416a063ad51f1c3a029fed7fe4f323d7241a2f3a8372872cb9cde9",
        "ae26431c95f200624ab927c78465d66ace5657b33c232e08aa1556601bd9dba0",
        "6d832b2bafd0794115789e6ce50ba42fcbb476999e8f07c6dc3fa21954146f16",
    ),
    ("mono3sat5-compact", True): (
        "1b73b076cb7766659a38b852099179508bdad47b13859c03cfd50185f6d32539",
        "d573e9b9a309878a580a2ed6d0600b3297962a8959d1cd274d23799b8db0a252",
        "42165d2c6660eb73dd903075ecd01cf74e83a4507ccb8abc0c4b076fbea88199",
    ),
    ("mono3sat4", False): (
        "a8913d93a19860e3e2cebfaae90e5e514985991c66a52dbd2fab1c3e490cfc78",
        "25f45f82c847ee58bfeed5d5f2072eb70399eea6ec34b4845189cdb64e26d554",
        "3800054f302b32a58f24abef0467332e1e24b7d546b61584b80ab7aa57e661ad",
    ),
    ("mono3sat4", True): (
        "722be7beee0f4a0a1894b463fa40b8e3b73536d39b0d46ec5b32b9eace3433fc",
        "8ba2b76a93e378eb985912f509b97c03cb1d56bc844560327f2aa1ff8c621727",
        "6ebb6aaf265bd19a206d99ebf1aa1f10006bb55fa44ef6dd24959ee756746e18",
    ),
}

# target -> one digest per instance, from the mono23sat4 output as input
DIGESTS_FROM_MONO23 = {
    "mono3sat5": (
        "05f9cb23d5ba08f4b859cf91a365c575564f6c4f9bc0b6b270e1773f49c52307",
        "5ef3db24fdfc2cbdfb568678ea4105a773756a9f91f4b94cc23b9dc6094ae760",
        "9b41de3a7a3f21aa7f4a7fcebc4750c6fe7766ce8fa983757274aefb69e0dfbd",
    ),
    "mono3sat5-compact": (
        "94e8f3cd17e429ed42f5146ff499ec3fcc2882c4a06cc2c764a5b0c9723b8fca",
        "8b5a877738aef97e4ad00659c3f1ce0ae3bb4135a3b36e16d0b5905920d57574",
        "ef5722ab0b89b1b2bf80f957e366c3d5e4f939162486d901462fd875ec5160c8",
    ),
    "mono3sat4": (
        "d3d505721e1fbb57764837cc51aefbd214e399f8a8910a97802d0accc9492827",
        "52bce6cde5374d908eaf52a1ac37d9b167a27b5f58d0d68fd9ae891b505fbf6d",
        "eb113cbd35c5d96c458f4371f90e3ccc5d7027f29093482606b4092b87e18632",
    ),
}


def _reduce(tmp_path, source, target, trace, name):
    out = tmp_path / name
    args = ["reduce", *REDUCE_ARGS[target], *(("--trace",) if trace else ()), str(source), str(out)]
    assert run(args) == 0
    return out


def _generated(tmp_path):
    paths = []
    for variables, clauses, seed in INSTANCES:
        path = tmp_path / f"gen-{seed}.cnf"
        assert run(["gen", "--vars", str(variables), "--clauses", str(clauses), "--seed", str(seed), str(path)]) == 0
        paths.append(path)
    return paths


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("target,trace", sorted(DIGESTS))
def test_reduce_output_matches_pinned_digest(tmp_path, target, trace):
    digests = tuple(
        _digest(_reduce(tmp_path, source, target, trace, f"out-{index}.cnf"))
        for index, source in enumerate(_generated(tmp_path))
    )
    assert digests == DIGESTS[(target, trace)]


@pytest.mark.parametrize("target", sorted(DIGESTS_FROM_MONO23))
def test_reduce_from_mono23sat4_matches_pinned_digest(tmp_path, target):
    digests = []
    for index, source in enumerate(_generated(tmp_path)):
        mid = _reduce(tmp_path, source, "mono23sat4", False, f"mid-{index}.cnf")
        digests.append(_digest(_reduce(tmp_path, mid, target, True, f"out-{index}.cnf")))
    assert tuple(digests) == DIGESTS_FROM_MONO23[target]
