"""The package surface: probanet.__all__ lists only what the program runs."""

import io
import tokenize
from pathlib import Path

import probanet

SRC = Path(probanet.__file__).parent


def names_read(source: str) -> set[str]:
    """Every name a module's code reads: the NAME tokens outside comments,
    strings and import statements, less those inside the def or class
    that defines the name itself."""
    names, owners = set(), []  # owners: (name, indent) of each open def
    indent, importing, prev = 0, False, tokenize.NEWLINE
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.INDENT:
            indent += 1
        elif tok.type == tokenize.DEDENT:
            indent -= 1
            while owners and owners[-1][1] >= indent:
                owners.pop()
        elif tok.type == tokenize.NEWLINE:
            importing = False
        elif tok.type == tokenize.NAME:
            if prev in (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT):
                importing = tok.string in ("import", "from")
            if prev in ("def", "class"):
                owners.append((tok.string, indent))
            elif not importing and all(tok.string != name for name, _ in owners):
                names.add(tok.string)
        if tok.type not in (tokenize.NL, tokenize.COMMENT):
            prev = tok.string if tok.type == tokenize.NAME else tok.type
    return names


def test_names_read_skips_definitions_imports_and_text():
    source = (
        "from .sim import gone, kept  # gone\n"
        "def gone():\n"
        "    '''gone'''\n"
        "    return gone()\n"
        "class Used:\n"
        "    def method(self):\n"
        "        return kept\n"
        "def caller():\n"
        "    return Used, method\n"
    )
    names = names_read(source)
    assert {"kept", "Used", "method"} <= names
    assert "gone" not in names and "caller" not in names


def test_every_public_name_is_read_by_another_module():
    # A name only __init__.py re-exports, or only its own definition
    # mentions, is a name the program does not run.
    read = set().union(
        *(
            names_read(path.read_text(encoding="utf-8"))
            for path in SRC.glob("*.py")
            if path.name != "__init__.py"
        )
    )
    assert sorted(set(probanet.__all__) - read) == []
