import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from usym import GF, InputError, fixture_path
from usym.io import (
    Report,
    _write_json,
    algebra_from_dict,
    digest_bytes,
    grading_point_json,
    group_from_dict,
    load_algebra,
    load_group,
)
from conftest import dual_numbers, trivial_point


def dual_dict(**overrides):
    data = {
        "name": "dual-numbers",
        "field": "QQ",
        "dimension": 2,
        "basis": ["1", "t"],
        "unit_index": 1,
        "tau": [[1, 1, 1, "1"], [1, 2, 2, "1"], [2, 1, 2, "1"]],
    }
    data.update(overrides)
    return data


def test_load_all_packaged_fixtures():
    for name in (
        "dual_q.json",
        "dual_gf2.json",
        "dual_gf3.json",
        "dual_gf5.json",
        "dual_gf7.json",
        "triangular_q.json",
        "triangular_gf2.json",
        "triangular_gf3.json",
        "ground_field_q.json",
    ):
        algebra, meta = load_algebra(fixture_path(name))
        assert meta.name == name
        assert meta.digest.startswith("sha256:")
    for name in ("group_c2.json", "group_c3.json", "group_klein.json"):
        group, meta = load_group(str(fixture_path(name)))
        assert group.order in (2, 3, 4)


def test_algebra_dict_ok():
    a = algebra_from_dict(dual_dict())
    assert a.n == 2
    assert a.labels == ("1", "t")


def test_rational_scalars_in_files():
    # t*t = (3/2) t: still commutative, unital, associative
    data = dual_dict(
        tau=[[1, 1, 1, "1"], [1, 2, 2, "1"], [2, 1, 2, "1"], [2, 2, 2, "3/2"]]
    )
    a = algebra_from_dict(data)
    from fractions import Fraction

    assert a.tau[(1, 1, 1)] == Fraction(3, 2)


def test_unit_index_must_be_one():
    for bad in (2, True, 1.0):
        with pytest.raises(InputError, match="unit_index"):
            algebra_from_dict(dual_dict(unit_index=bad))


def test_dimension_must_be_positive_integer():
    for bad in (True, 0, 2.0, "2"):
        with pytest.raises(InputError, match="dimension"):
            algebra_from_dict(dual_dict(dimension=bad))


def test_missing_key_rejected():
    bad = dual_dict()
    del bad["tau"]
    with pytest.raises(InputError, match="tau"):
        algebra_from_dict(bad)


def test_duplicate_tau_rejected():
    with pytest.raises(InputError, match="duplicate"):
        algebra_from_dict(
            dual_dict(tau=[[1, 1, 1, "1"], [1, 1, 1, "1"], [1, 2, 2, "1"], [2, 1, 2, "1"]])
        )


def test_bad_scalar_rejected():
    with pytest.raises(InputError, match="scalar"):
        algebra_from_dict(dual_dict(tau=[[1, 1, 1, "one"], [1, 2, 2, "1"], [2, 1, 2, "1"]]))


def test_index_out_of_range_rejected():
    with pytest.raises(InputError, match="out of range"):
        algebra_from_dict(dual_dict(tau=[[1, 1, 3, "1"]]))
    with pytest.raises(InputError, match="out of range"):
        algebra_from_dict(dual_dict(tau=[[True, 1, 1, "1"], [1, 2, 2, "1"], [2, 1, 2, "1"]]))


def test_invalid_algebra_rejected():
    # drop a unit relation: t*1 undefined
    with pytest.raises(InputError, match="unit"):
        algebra_from_dict(dual_dict(tau=[[1, 1, 1, "1"], [1, 2, 2, "1"]]))


def test_basis_label_count_rejected():
    with pytest.raises(InputError, match="basis"):
        algebra_from_dict(dual_dict(basis=["1"]))


def test_field_spec_rejected():
    with pytest.raises(InputError, match="not prime"):
        algebra_from_dict(dual_dict(field="GF(6)"))
    with pytest.raises(InputError, match="field spec"):
        algebra_from_dict(dual_dict(field="R"))


def test_load_algebra_file_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(InputError, match="cannot read"):
        load_algebra(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputError, match="JSON"):
        load_algebra(bad)


def test_group_dict_ok():
    g = group_from_dict(
        {
            "elements": ["e", "g"],
            "identity": "e",
            "table": [["e", "g"], ["g", "e"]],
        }
    )
    assert g.order == 2


def test_group_errors():
    with pytest.raises(InputError, match="identity"):
        group_from_dict({"elements": ["e"], "identity": "x", "table": [["e"]]})
    with pytest.raises(InputError, match="unknown label"):
        group_from_dict(
            {"elements": ["e", "g"], "identity": "e", "table": [["e", "q"], ["g", "e"]]}
        )
    with pytest.raises(InputError, match="not a group"):
        group_from_dict(
            {
                "elements": ["e", "g"],
                "identity": "e",
                "table": [["e", "g"], ["g", "g"]],
            }
        )
    # JSON lists are unhashable and cannot be labels
    with pytest.raises(InputError, match="elements"):
        group_from_dict(
            {"elements": [[1], [2]], "identity": [1], "table": [[[1], [2]], [[2], [1]]]}
        )
    with pytest.raises(InputError, match="identity"):
        group_from_dict(
            {"elements": ["e", "g"], "identity": ["e"], "table": [["e", "g"], ["g", "e"]]}
        )
    with pytest.raises(InputError, match="unknown label"):
        group_from_dict(
            {"elements": ["e", "g"], "identity": "e", "table": [["e", ["g"]], ["g", "e"]]}
        )
    with pytest.raises(InputError, match="declared identity"):
        group_from_dict(
            {
                "elements": ["a", "b"],
                "identity": "a",
                "table": [["b", "a"], ["a", "b"]],
            }
        )


@pytest.mark.parametrize(
    "labels, keys",
    [
        ([2, 10], ["10", "2"]),  # numbers too sort by their key texts
        (["b", "a"], ["a", "b"]),
        ([10, "a"], ["10", "a"]),
    ],
)
def test_grading_point_json_keys(labels, keys):
    # each element is keyed by its label's key text, and the writer sorts
    # the keys as text
    e, g = labels
    group = group_from_dict({"elements": labels, "identity": e, "table": [[e, g], [g, e]]})
    point = grading_point_json(group, trivial_point(dual_numbers(GF(3)), group))
    assert all(isinstance(key, str) for key in point)
    assert list(json.loads(written(point))) == keys
    assert written(point) == json.dumps(point, indent=2, sort_keys=True)


def test_group_labels_with_one_key_text_refused():
    for labels in (["1", 1], ["null", None]):
        e, g = labels
        doc = {"elements": labels, "identity": e, "table": [[e, g], [g, e]]}
        with pytest.raises(InputError, match="distinct labels"):
            group_from_dict(doc)


@pytest.mark.parametrize(
    "elements, identity, table, message",
    [
        ([1, "g"], True, [[1, "g"], ["g", 1]], "identity label not among elements"),
        ([1, "g"], 1.0, [[1, "g"], ["g", 1]], "identity label not among elements"),
        ([1.0, "g"], 1, [[1.0, "g"], ["g", 1.0]], "identity label not among elements"),
        ([1, "g"], 1, [[True, "g"], ["g", 1]], "unknown label True in table row 1"),
        ([1, "g"], 1, [[1, "g"], ["g", 1.0]], "unknown label 1.0 in table row 2"),
        ([0, "g"], 0, [[False, "g"], ["g", 0]], "unknown label False in table row 1"),
    ],
)
def test_group_labels_of_another_json_type_are_unknown(elements, identity, table, message):
    # JSON true and 1.0 hash and compare equal to 1, yet name no element 1
    doc = {"elements": elements, "identity": identity, "table": table}
    with pytest.raises(InputError, match=message):
        group_from_dict(doc)
    doc = {"elements": elements, "identity": elements[0], "table": [elements, elements[::-1]]}
    assert group_from_dict(doc).labels == tuple(elements)


def test_load_group_cyclic_shorthand():
    g, meta = load_group("cyclic:4")
    assert g.order == 4
    assert meta.name == "cyclic:4"
    with pytest.raises(InputError):
        load_group("cyclic:0")
    with pytest.raises(InputError):
        load_group("cyclic:x")


def test_digest_stability():
    assert digest_bytes(b"abc") == (
        "sha256:ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )


# JSON values, kept small: the loaders must answer every one of them with an
# algebra or group, or with InputError, and never with another exception
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-2, 5)
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=5)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=5), kids, max_size=4),
    max_leaves=10,
)
SMALL = st.integers(-1, 4)
SCALAR_TEXTS = st.sampled_from(["0", "1", "-1", "2", "1/2", "3/-2", "1/0", "x", "", " 1 "])
ALGEBRA_FIELDS = {
    "field": st.sampled_from(["QQ", "GF(2)", "GF(3)", "GF(4)", "GF(0)", "GF(x)", "gf(2)"]) | JSON_VALUES,
    "dimension": SMALL | JSON_VALUES,
    "basis": st.lists(st.text(max_size=3) | JSON_SCALARS, max_size=4) | JSON_VALUES,
    "unit_index": SMALL | JSON_VALUES,
    "tau": st.lists(
        st.lists(SMALL | SCALAR_TEXTS | JSON_SCALARS, min_size=3, max_size=5) | JSON_VALUES,
        max_size=10,
    )
    | JSON_VALUES,
}
LABELS = st.sampled_from(["e", "a", "b", 0, 1, True, 1.0]) | JSON_SCALARS
GROUP_FIELDS = {
    "elements": st.lists(LABELS, max_size=4) | JSON_VALUES,
    "identity": LABELS | JSON_VALUES,
    "table": st.lists(st.lists(LABELS | JSON_VALUES, max_size=4), max_size=4) | JSON_VALUES,
}


def near(doc: dict, fields: dict):
    """doc with the value of one of the fields redrawn, or that key dropped."""

    def redraw(key):
        dropped = {k: v for k, v in doc.items() if k != key}
        return st.just(dropped) | fields[key].map(lambda value: {**doc, key: value})

    return st.sampled_from(sorted(fields)).flatmap(redraw)


def json_documents(fields: dict, valid: dict):
    return (
        JSON_VALUES
        | st.fixed_dictionaries(fields)
        | st.fixed_dictionaries({}, optional=fields)
        | near(valid, fields)
    )


KLEIN = json.loads(fixture_path("group_klein.json").read_text(encoding="utf-8"))


@settings(max_examples=100, deadline=None)
@given(json_documents(ALGEBRA_FIELDS, dual_dict(field="GF(3)")))
def test_algebra_from_dict_fuzz(doc):
    try:
        algebra_from_dict(doc)
    except InputError:
        pass


@settings(max_examples=100, deadline=None)
@given(json_documents(GROUP_FIELDS, KLEIN))
def test_group_from_dict_fuzz(doc):
    try:
        group_from_dict(doc)
    except InputError:
        pass


# Report-shaped documents for the JSON writer: str keys in any order, the
# only keys it accepts; text with non-ASCII characters, lone surrogates,
# control characters, quotes and backslashes; ints of any size; and bools
# and None at every level
REPORT_TEXT = st.text(
    st.characters(exclude_categories=()) | st.sampled_from('"\\/\x00\x1f\x7f\u00e9\u2028\ud800\udfff'),
    max_size=6,
)
REPORT_LEAVES = (
    REPORT_TEXT
    | st.integers()
    | st.integers(-(10**400), 10**400)
    | st.booleans()
    | st.none()
)
REPORT_DOCS = st.recursive(
    REPORT_LEAVES,
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(REPORT_TEXT, kids, max_size=4),
    max_leaves=25,
)


def written(doc) -> str:
    return "".join(_write_json(doc, "\n", []))


@settings(deadline=None)
@given(REPORT_DOCS)
def test_json_writer_matches_json_dumps(doc):
    assert written(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_report_json_is_the_json_dumps_text_and_a_newline():
    report = Report("present x.json", [("algebra", "x.json", "sha256:0")], [("unit", True)])
    report.payload = {"z": [], "a": {}, "m": ("\u00e9", -3, None, [[1, 2]], {"k": False})}
    doc = json.loads(report.to_json())
    assert report.to_json() == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert list(doc["result"]) == ["a", "m", "z"]


@pytest.mark.parametrize(
    "doc",
    [
        0.5,
        Fraction(1, 2),
        {1, 2},
        [1, {"a": [0.0]}],
        {(1, 2): 0},
        {frozenset(): 0},
        {Fraction(1, 2): 0},
        {2: "a"},
        {"a": {10: [], 2: []}},
        {None: 0},
        {True: 0},
        {0.5: 0},
    ],
)
def test_json_writer_refuses_what_a_report_does_not_hold(doc):
    # floats too, which json.dumps writes: a report holds no float; and any
    # key but a str, which json.dumps turns into text: a group-keyed object
    # holds its labels' key texts
    with pytest.raises(TypeError):
        written(doc)

