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
    # every packaged file, not only the named ones, is what its builder
    # serializes to: the homology workload builds fixtures in code while
    # certify and corpus read the files
    packaged = sorted(fixture_path(FIXTURES[0]).parent.glob("*.relcat"))
    assert [path.stem for path in packaged] == sorted(FIXTURES)
    for path in packaged:
        assert path.read_text(encoding="utf-8") == serialize_document(build(path.stem))


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


# -- every parse error pinned to its line and message ----------------------------

HEAD = "relcat-version 1\nobject 0\nobject 1\nmorphism f 0 1\n"   # lines 1-4

PARSE_ERRORS = [
    # a wrong word count names the directive's usage
    ("relcat-version\n", 1, "expected 'relcat-version 1'"),
    ("relcat-version 1 2\n", 1, "expected 'relcat-version 1'"),
    ("relcat-version 1\nobject\n", 2, "expected 'object <id>'"),
    ("relcat-version 1\nobject a b\n", 2, "expected 'object <id>'"),
    (HEAD + "morphism g 0\n", 5, "expected 'morphism <id> <src> <tgt>'"),
    (HEAD + "compose f id:1\n", 5, "expected 'compose <f> <g> <h>'"),
    (HEAD + "weq f f\n", 5, "expected 'weq <morphism>'"),
    (HEAD + "u\n", 5, "expected 'u <morphism>'"),
    (HEAD + "v f f\n", 5, "expected 'v <morphism>'"),
    (HEAD + "factor f f 1\n", 5, "expected 'factor <w> <u> <mid> <v>'"),
    (HEAD + "middle f f id:0 id:1\n", 5, "expected 'middle <w> <w2> <a> <b> <m>'"),
    # a comment in the middle of a line cuts the line short
    (HEAD + "morphism g 0 # 1\n", 5, "expected 'morphism <id> <src> <tgt>'"),
    # unknown directives, before the header too
    (HEAD + "frobnicate yes\n", 5, "unknown directive 'frobnicate'"),
    ("frobnicate\nrelcat-version 1\n", 1, "unknown directive 'frobnicate'"),
    # declarations
    ("relcat-version 2\n", 1, "unsupported version 2"),
    ("object 0\n", 1, "missing 'relcat-version 1' header"),
    ("relcat-version 1\nobject 0\nobject 0\n", 3, "object 0 declared twice"),
    (HEAD + "morphism f 1 0\n", 5, "morphism f declared twice"),
    (HEAD + "morphism id:x 0 1\n", 5, "id: ids are reserved for identities"),
    (HEAD + "morphism g 0 ghost\n", 5, "unknown object ghost"),
    # an unknown id in a repeated entry names the entry's first line,
    # whatever its directive
    (HEAD + "compose f ghost f\n# x\ncompose f ghost f\n", 5, "unknown morphism ghost"),
    (HEAD + "weq ghost\nweq f\nweq ghost\n", 5, "unknown morphism ghost"),
    (HEAD + "u ghost\nu f\nu ghost\n", 5, "unknown morphism ghost in u block"),
    (HEAD + "v ghost\nv f\nv ghost\n", 5, "unknown morphism ghost in v block"),
    (HEAD + "factor f ghost 1 id:1\nfactor f ghost 1 id:1\n", 5,
     "unknown morphism ghost in factor block"),
    (HEAD + "factor f f ghost id:1\nfactor f f ghost id:1\n", 5,
     "unknown object ghost in factor block"),
    (HEAD + "middle f f id:0 id:1 ghost\nmiddle f f id:0 id:1 ghost\n", 5,
     "unknown morphism ghost in middle block"),
    # conflicting entries name the second line
    (HEAD + "morphism g 1 1\ncompose f g f\ncompose f g g\n", 7,
     "conflicting composite for (f, g)"),
    (HEAD + "factor f f 1 id:1\nfactor f id:0 0 f\n", 6, "conflicting factorization for f"),
    (HEAD + "middle f f id:0 id:1 id:1\nmiddle f f id:0 id:1 f\n", 6,
     "conflicting middle map for ('f', 'f', 'id:0', 'id:1')"),
]


@pytest.mark.parametrize("doc, line, message", PARSE_ERRORS)
def test_parse_errors_are_pinned(doc, line, message):
    with pytest.raises(DocumentError) as err:
        parse_document(doc)
    assert (err.value.line, err.value.message) == (line, message)


def test_comments_inside_words_end_the_line():
    rc = parse_document("relcat-version 1\nobject 0#1\nobject 1 # c\n"
                        "morphism f 0 1#x\nweq f  # c\n")
    assert rc.cat.objects == ("0", "1")
    assert "f" in rc.weq


def test_a_morphism_named_like_a_directive_keeps_its_lines():
    # the compose line's unknown id is on line 5, whatever the later weq
    # line of the same two words says
    doc = HEAD.replace("morphism f", "morphism weq") + "compose weq ghost weq\nweq ghost\n"
    with pytest.raises(DocumentError) as err:
        parse_document(doc)
    assert (err.value.line, err.value.message) == (5, "unknown morphism ghost")
