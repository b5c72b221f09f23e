"""Byte guard for presentations large enough that the order in which a
reduction step picks its rule could show: the sha256 of whole CLI reports,
pinned.  The reduced basis is unique (Bergman's diamond lemma), so a change
of reduction or completion strategy must leave every digest as it is."""

import pytest

from usym import QQ
from conftest import (
    algebra_file,
    cyclic_group_algebra,
    full_matrices,
    permuted,
    report_digest,
    truncated_polynomial,
)


CASES = [
    ("poly4", lambda: truncated_polynomial(QQ, 4), "present", "3",
     "78797b241c83b7ab301bec734e656bfe45dae6c3ff741748f2107cb0d16e4bb4"),
    ("m2", lambda: full_matrices(QQ), "present", "3",
     "304cec94766babc6e4d82fceb1203f176c5e81bfb9e1237cb28d768d41a19aec"),
    ("m2_reversed", lambda: permuted(full_matrices(QQ), [0, 3, 2, 1]), "present", "3",
     "8b1946e8b17e3a284b3d63a3c8d39eb6e28e5e55b929d2b97059f43b69cfba8a"),
    ("c4", lambda: cyclic_group_algebra(QQ, 4), "present", "3",
     "2d34fbc23a1b8f5f09bfa37e0ebbbf5e797ee45955662c02b0857cabe542b65e"),
    ("poly4", lambda: truncated_polynomial(QQ, 4), "check", "4",
     "84a2fb84ae5b7364e3dcabf8847eeb10d0ac014cd1e77bae2f1336e4366bde66"),
]


@pytest.mark.parametrize(
    "name, build, command, degree, digest",
    CASES,
    ids=[f"{c[2]}-{c[0]}" for c in CASES],
)
def test_report_digest(tmp_path, name, build, command, degree, digest):
    path = algebra_file(tmp_path, name, build())
    argv = [command, path, "--format", "json", "--max-degree", degree]
    assert report_digest(argv) == digest
