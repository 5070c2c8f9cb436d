"""The pin file and its writer (``conftest.Pins``), on a file of their own."""

import json

import pytest

import conftest


def pin_file(tmp_path, monkeypatch, host):
    monkeypatch.setattr(conftest, "host_class", lambda: host)
    doc = {"host": "SkylakeX/X86_V4", "pins": {"a/one": "1.5", "b": 350, "c": "ff"}}
    (tmp_path / "pins.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return tmp_path / "pins.json"


def test_a_mismatch_is_one_line_naming_both_values_and_classes(tmp_path, monkeypatch):
    pins = conftest.Pins(pin_file(tmp_path, monkeypatch, "Haswell/X86_V4"))
    pins.check("b", 350)
    with pytest.raises(AssertionError) as err:
        pins.check("a/one", "1.75")
    assert str(err.value) == (
        "pin a/one: recorded '1.5' -> computed '1.75' (written on "
        "SkylakeX/X86_V4, running on Haswell/X86_V4); rewrite with: pytest "
        "tests/test_pins.py --write-pins a/one")
    with pytest.raises(pytest.UsageError, match="^--write-pins: pins.json holds pins "
                       "of SkylakeX/X86_V4; this host is Haswell/X86_V4, so nothing"):
        conftest.Pins(pins.path, write=["b"])


@pytest.mark.parametrize("write", [[], ["b"], ["a/one", "c"]])
def test_a_write_changes_the_named_pins_alone_or_nothing(tmp_path, monkeypatch, write):
    path = pin_file(tmp_path, monkeypatch, "SkylakeX/X86_V4")
    before, pins = path.read_text().splitlines(), conftest.Pins(path, write)
    pins.check("b", 150 if "b" in write else 350)
    pins.check("a/one", "1.5")
    if "c" in write:  # computed by no test
        with pytest.raises(ValueError, match="^--write-pins: no test computed c; "):
            pins.save()
    else:
        pins.save()
    after = path.read_text().splitlines()
    assert len(after) == len(before)
    assert [(x, y) for x, y in zip(before, after) if x != y] == \
        ([('  "b": 350,', '  "b": 150,')] if write == ["b"] else [])


def test_the_pin_file_is_in_its_written_form():
    # so that a write of an unchanged pin leaves the file's bytes as they are
    text = conftest.PIN_FILE.read_text(encoding="utf-8")
    assert json.dumps(json.loads(text), indent=1, sort_keys=True) + "\n" == text
