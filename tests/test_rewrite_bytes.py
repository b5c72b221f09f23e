"""Byte guard for presentations large enough that the order in which a
reduction step picks its rule could show, and for the axiom checks run on
them: the sha256 of whole CLI reports, pinned.  The reduced basis is unique
(Bergman's diamond lemma), so a change of reduction or completion strategy,
or of how the checks compute Delta and eps, must leave every digest as it
is."""

import pytest

from usym import GF, QQ, build_presentation, fixture_path
from conftest import (
    algebra_file,
    cyclic_group_algebra,
    full_matrices,
    overlap_candidates,
    permuted,
    report_digest,
    rescaled,
    shifted,
    truncated_polynomial,
)


def generated(name, build):
    return lambda tmp_path: algebra_file(tmp_path, name, build())


def poly_permuted(n, perm):
    name = f"poly{n}_" + "".join(map(str, perm))
    return generated(name, lambda: permuted(truncated_polynomial(QQ, n), perm))


def poly4_rescaled():
    return rescaled(truncated_polynomial(QQ, 4), (1, "-3/2", "2/5", 7))


def fixture(name):
    return lambda tmp_path: str(fixture_path(f"{name}.json"))


CASES = [
    ("poly4", generated("poly4", lambda: truncated_polynomial(QQ, 4)), "present", "3", "json",
     "78797b241c83b7ab301bec734e656bfe45dae6c3ff741748f2107cb0d16e4bb4"),
    ("m2", generated("m2", lambda: full_matrices(QQ)), "present", "3", "json",
     "304cec94766babc6e4d82fceb1203f176c5e81bfb9e1237cb28d768d41a19aec"),
    ("m2_reversed", generated("m2_reversed", lambda: permuted(full_matrices(QQ), [0, 3, 2, 1])),
     "present", "3", "json",
     "8b1946e8b17e3a284b3d63a3c8d39eb6e28e5e55b929d2b97059f43b69cfba8a"),
    ("c4", generated("c4", lambda: cyclic_group_algebra(QQ, 4)), "present", "3", "json",
     "2d34fbc23a1b8f5f09bfa37e0ebbbf5e797ee45955662c02b0857cabe542b65e"),
    ("poly4", generated("poly4", lambda: truncated_polynomial(QQ, 4)), "check", "4", "json",
     "84a2fb84ae5b7364e3dcabf8847eeb10d0ac014cd1e77bae2f1336e4366bde66"),
    ("m2", generated("m2", lambda: full_matrices(QQ)), "check", "4", "json",
     "bf9457dd81dab3e7be3bd9a81ae9b73ade5d038cc6421f2d3a22cb2cd5336161"),
    ("c4", generated("c4", lambda: cyclic_group_algebra(QQ, 4)), "check", "4", "json",
     "6672693a89382c624824f53eeda335bee1fba9017e31e2cddc5beb5815230baa"),
    ("poly4_gf3", generated("poly4_gf3", lambda: truncated_polynomial(GF(3), 4)),
     "check", "4", "json",
     "e530f545985145ed5c94495b4e1be3210f4765a1d728da4dacb586f878a4d7b6"),
    ("triangular_q", fixture("triangular_q"), "check", "4", "text",
     "71db3b8ded62e5cf321227ceb9b811f87644f6716ac781d9ce824729909f456d"),
    # two bases of k[x]/(x^4) whose completion takes 28 rounds, where every
    # case above completes in one
    ("poly4_0213", poly_permuted(4, [0, 2, 1, 3]), "present", "3", "json",
     "69a39621ff8ba9f97d688ce5adb2f6c991743dfc4baf5015ee40552208188f2f"),
    ("poly4_0213", poly_permuted(4, [0, 2, 1, 3]), "check", "4", "json",
     "c70b2b4d73cffb5794b64467c94bcc6cf13449ec32a4ca28687b2603c8ba93d5"),
    ("poly4_0321", poly_permuted(4, [0, 3, 2, 1]), "present", "3", "json",
     "9bf064383d82c22938b491d9ab50552ce4cf0e92306de36e4e90270d89482912"),
    ("poly4_0321", poly_permuted(4, [0, 3, 2, 1]), "check", "4", "json",
     "7036261b5c8dd837f2d4ae39e63c99eda95cf81671eac29d9302c2434b74cbc3"),
    # two bases of k[x]/(x^5) whose completion took 129 rounds when each
    # round resolved one S-polynomial and re-interreduced every rule
    ("poly5_01432", poly_permuted(5, [0, 1, 4, 3, 2]), "present", "3", "json",
     "1b3d9b99f0afa4d73dcdf5b38b715b5eb21629452078baf12cd72dcf683f6073"),
    ("poly5_03421", poly_permuted(5, [0, 3, 4, 2, 1]), "present", "3", "json",
     "098630e65472d87c6f1c2ea0f04b6858041e3c836ac92fade7ad8814d9adcb08"),
    # the substitutions' residues over GF(p), and their denominators over QQ
    # on a basis rescaled by non-unit scalars
    ("poly5_gf5", generated("poly5_gf5", lambda: truncated_polynomial(GF(5), 5)),
     "present", "3", "json",
     "f36e734b6820cba9bb903e2b7884a98886442346083a16fed557be8c89af4321"),
    ("triangular_gf3", fixture("triangular_gf3"), "present", "3", "text",
     "f31b62be8524b1a88a0b392616083f6ca72dab376e1470156c0055ca20ea411d"),
    ("poly4_rescaled_D3", generated("poly4_rescaled", poly4_rescaled), "present", "3", "json",
     "ac1eae5704c91bef43efca7d44a6bfa3969eba94ef10f8ca8591b92deabb0d57"),
    ("poly4_rescaled_D4", generated("poly4_rescaled", poly4_rescaled), "present", "4", "json",
     "7c0b1be2173b642b0eba218d684733fc6e64f6066ce638a951314e2778be7e6b"),
    ("poly4_rescaled_D3", generated("poly4_rescaled", poly4_rescaled), "check", "3", "json",
     "7af21e00c8edcdec8f558f9e6acaf750fa578b990442528e7b06fa6fde8d8fb9"),
    ("poly4_rescaled_D4", generated("poly4_rescaled", poly4_rescaled), "check", "4", "json",
     "3c428b1929206709f7a2d105ea26daf4dcc444cdbf1cb0d6fcf2f339b581cae7"),
]


@pytest.mark.parametrize(
    "name, path, command, degree, fmt, digest",
    CASES,
    ids=[f"{c[2]}-{c[0]}" for c in CASES],
)
def test_report_digest(tmp_path, name, path, command, degree, fmt, digest):
    argv = [command, path(tmp_path), "--format", fmt, "--max-degree", degree]
    assert report_digest(argv) == digest


@pytest.mark.parametrize("perm", [[0, 1, 4, 3, 2], [0, 3, 4, 2, 1]], ids=["01432", "03421"])
def test_permuted_poly5_overlaps_resolve(perm):
    # every overlap of degree <= 3 of the completed rules, found by the
    # reference scan, rewrites both ways to one normal form
    system = build_presentation(permuted(truncated_polynomial(QQ, 5), perm), 3).system
    overlaps = overlap_candidates(list(system.rules), 3)
    assert len(overlaps) > 100
    for _, u, v, k, ri, rj in overlaps:
        left = shifted(ri.rest, (), v[k:])
        right = shifted(rj.rest, u[: len(u) - k], ())
        assert system.normal_form(left - right).is_zero()
