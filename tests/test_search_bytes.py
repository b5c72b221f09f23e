"""Byte guard for the End/Aut/grading point reports: the sha256 of whole
`--format json` CLI reports, pinned.  Points, their sorted order, the
identity index and every check line are part of the bytes, so a change in how
the monoid tables are formed or how Aut is read off End must leave every
digest as it is."""

import hashlib
import json

import pytest

from usym import GF, fixture_path
from conftest import algebra_file, full_matrices, report_digest, report_output


def fixture(tmp_path, name):
    return str(fixture_path(f"{name}.json"))


def m2_gf2(tmp_path, name):
    return algebra_file(tmp_path, name, full_matrices(GF(2)))


CASES = [
    ("dual_gf3", fixture, ["endo", "--oracle"],
     "8f095f1cabcaecb79fd7c7a7a9fcfba272bc875c992000f91cdedd96b3476000"),
    ("dual_gf3", fixture, ["aut", "--field-check", "--oracle"],
     "7f815f4d80f4b1b8fefa382ae606dc4974924ba08bc73fd704b7db752537cd09"),
    ("triangular_gf3", fixture, ["endo", "--oracle"],
     "210bf44a1dbd5426cbf6809dba148302dd9f149094b952739f443179851b9796"),
    ("triangular_gf3", fixture, ["aut", "--field-check", "--oracle"],
     "649a7779416e45157653d78573cb50a9d8642724e570e75742ce2ff99aa681e3"),
    ("m2_gf2", m2_gf2, ["endo", "--oracle"],
     "8d9148398d0df8b32b553389d317cd03fb372536d7326a677aab5049c54bdec2"),
    ("m2_gf2", m2_gf2, ["aut", "--field-check", "--oracle"],
     "95016d3c65eb0786cfef6179c15599ee2f3acaabde5eb7ba81280f87233bfbb9"),
    ("dual_gf3", fixture, ["gradings", "--group", "cyclic:2", "--classify", "--oracle"],
     "a06f2e4ef91b55430f6647fceeba489510f3162e58effdffb0fceb2fefff79be"),
    # classify without the decomposition oracle
    ("triangular_gf3", fixture,
     ["gradings", "--group", str(fixture_path("group_klein.json")), "--classify"],
     "7a0d5abfe131fd33493a6ae648b49e2669c58db054a91d4e997cd91d003f4e24"),
]


@pytest.mark.parametrize(
    "name, path_of, command, digest",
    CASES,
    ids=[f"{c[2][0]}-{c[0]}" for c in CASES],
)
def test_report_digest(tmp_path, name, path_of, command, digest):
    argv = [command[0], path_of(tmp_path, name), *command[1:], "--format", "json"]
    assert report_digest(argv) == digest


# classify reports whose point orbits are not all singletons: the orbits are
# part of the bytes, and are asserted on their own as well
CLASSIFY_CASES = [
    ("triangular_gf3", fixture, "group_c2.json",
     "080799a2ad8e369dc6be19db1770c1d7a329e36dfa8144dac0e100dca562e121",
     [[0, 1, 2], [3]]),
    ("m2_gf2", m2_gf2, "cyclic:2",
     "80b757e37a866539d2c4fc1f9597b3ba85c069c45c6bfc0b59f2fa593f87f397",
     [[0, 2, 3], [1], [4]]),
    ("triangular_gf3", fixture, "group_klein.json",
     "a7778fc1d6ab4678baf928ca2ecc3e75aca75bf5231078fe0e56635efa5e1a54",
     [[0, 3, 6], [1, 4, 7], [2, 5, 8], [9]]),
]


@pytest.mark.parametrize(
    "name, path_of, group, digest, orbits",
    CLASSIFY_CASES,
    ids=[f"{c[0]}-{c[2].removesuffix('.json')}" for c in CLASSIFY_CASES],
)
def test_classify_orbits_digest(tmp_path, name, path_of, group, digest, orbits):
    if group.endswith(".json"):
        group = str(fixture_path(group))
    out = report_output(
        ["gradings", path_of(tmp_path, name), "--group", group, "--classify", "--oracle",
         "--format", "json"]
    )
    assert json.loads(out)["result"]["classification"]["point_orbits"] == orbits
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
