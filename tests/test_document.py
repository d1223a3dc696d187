import pytest

from pmcat.document import parse_document, serialize_document, DocumentError
from pmcat.pmc import PartialModelStructure, verify_partial_model
from pmcat.relcat import RelCategory
from pmcat.fixtures import FIXTURES, build, fixture_path


def test_fixture_files_parse_and_verify():
    for name in FIXTURES:
        value = parse_document(fixture_path(name).read_text())
        if name == "P4":
            assert isinstance(value, RelCategory)
        else:
            assert isinstance(value, PartialModelStructure)
            assert verify_partial_model(value).passed, name


def test_fixture_files_are_canonical_serializer_output():
    for name in FIXTURES:
        assert fixture_path(name).read_text() == serialize_document(build(name))


def test_round_trip_is_idempotent():
    # parse . serialize . parse == parse, and serializer output is a
    # fixed point byte for byte
    for name in FIXTURES:
        text = fixture_path(name).read_text()
        once = serialize_document(parse_document(text))
        twice = serialize_document(parse_document(once))
        assert once == twice == text


def test_missing_weq_defaults_to_identities():
    doc = """relcat-version 1
object 0
object 1
morphism f 0 1
"""
    rc = parse_document(doc)
    assert isinstance(rc, RelCategory)
    assert set(rc.weq) == {"id:0", "id:1"}


def test_missing_composite_reports_location():
    doc = """relcat-version 1
object 0
object 1
object 2
morphism f 0 1
morphism g 1 2
"""
    with pytest.raises(DocumentError) as err:
        parse_document(doc)
    assert "no composite" in str(err.value)


def test_unknown_object_reference_has_line():
    doc = """relcat-version 1
object 0
morphism f 0 ghost
"""
    with pytest.raises(DocumentError) as err:
        parse_document(doc)
    assert err.value.line == 3
    assert "ghost" in str(err.value)


def test_unknown_weq_id_has_line():
    doc = """relcat-version 1
object 0
weq phantom
"""
    with pytest.raises(DocumentError) as err:
        parse_document(doc)
    assert err.value.line == 3


def test_unknown_directive_rejected():
    with pytest.raises(DocumentError):
        parse_document("relcat-version 1\nfrobnicate yes\n")


def test_missing_header_rejected():
    with pytest.raises(DocumentError):
        parse_document("object 0\n")


def test_reserved_identity_ids_rejected():
    doc = """relcat-version 1
object 0
morphism id:0 0 0
"""
    with pytest.raises(DocumentError):
        parse_document(doc)


def test_comments_and_blanks_ignored():
    doc = """# header comment
relcat-version 1

object 0   # trailing comment
"""
    rc = parse_document(doc)
    assert rc.cat.objects == ("0",)


def test_calculus_data_triggers_structure():
    doc = """relcat-version 1
object 0
u id:0
factor id:0 id:0 0 id:0
middle id:0 id:0 id:0 id:0 id:0
"""
    value = parse_document(doc)
    assert isinstance(value, PartialModelStructure)


INTERVAL_CALCULUS = """relcat-version 1
object 0
object 1
morphism f 0 1
weq f
u f
factor f f 1 id:1
middle f f id:0 id:1 id:1
"""


@pytest.mark.parametrize("extra, line, message", [
    ("factor f id:0 0 f\n", 9, "conflicting factorization for f"),
    ("middle f f id:0 id:1 f\n", 9, "conflicting middle map"),
])
def test_conflicting_calculus_duplicate_names_its_line(extra, line, message):
    with pytest.raises(DocumentError) as err:
        parse_document(INTERVAL_CALCULUS + extra)
    assert err.value.line == line
    assert message in str(err.value)


def test_repeated_calculus_lines_that_agree_are_accepted():
    doc = INTERVAL_CALCULUS + "factor f f 1 id:1\nmiddle f f id:0 id:1 id:1\n"
    pms = parse_document(doc)
    assert pms.factorization == {"f": ("f", "1", "id:1")}
    assert pms.middle == {("f", "f", "id:0", "id:1"): "id:1"}


@pytest.mark.parametrize("extra, message", [
    ("u nope\n", "unknown morphism nope in u block"),
    ("v nope\n", "unknown morphism nope in v block"),
    ("factor f nope 1 id:1\n", "unknown morphism nope in factor block"),
    ("factor id:0 id:0 ghost id:0\n", "unknown object ghost in factor block"),
    ("middle id:0 id:0 id:0 id:0 nope\n", "unknown morphism nope in middle block"),
])
def test_unknown_calculus_id_reports_its_line(extra, message):
    # the offending directive is the document's line 9, after the header
    # and the eight lines of INTERVAL_CALCULUS, with one line of padding
    doc = INTERVAL_CALCULUS.replace("factor f f 1 id:1\n", "") + "# padding\n" + extra
    with pytest.raises(DocumentError) as err:
        parse_document(doc)
    assert err.value.line == 9
    assert message in str(err.value)
