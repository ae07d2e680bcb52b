"""Fuzz the whole command line: edited copies of the bundled machines,
scenarios and refinement manifests go through `cli.main` with small
bounds, and every command must end in exit 0, 1 or 2 with no exception
escaping; exit 2 prints one `error:` line on stderr and nothing on stdout.
The run is derandomized, so it is the same on every machine."""
import re
import shutil

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import MODELS
from asmweave import cli

# whitespace runs are kept as pieces, so an edit leaves the line structure
# that scenarios and manifests read
_PIECE = re.compile(r'\s+|//[^\n]*|"(?:\\.|[^"\\\n])*"?|\'?\w+|:=|!=|<=|>=|\.\.|\S')

_VOCAB = (
    "machine static controlled monitored abstract rule init main agent runs par endpar "
    "if then else let in forall choose with do skip undef true false and or not "
    "implies div mod scenario steps seed assert final step schedule refined observe "
    "bounds x self Main Step out 'm0 0 1 2 -1 := = ( ) { } , : ; ~ .. + * /"
).split() + ["\n"]

_COMMANDS = {
    ".asm": [["fmt", "--stdout"], ["run", "--steps", "3"],
             ["run", "--steps", "3", "--agents", "interleave"],
             ["explore", "--depth", "3", "--budget", "50"], ["normalize"], ["skeleton"]],
    ".scn": [["scenario"]],
    ".refine": [["check-refine"]],
}

_SOURCES = sorted(p.relative_to(MODELS) for p in MODELS.rglob("*")
                  if p.suffix in _COMMANDS)

_EDIT = st.tuples(st.sampled_from("dirsu"), st.integers(0, 10_000), st.sampled_from(_VOCAB))


def _edit(text, edits):
    pieces = _PIECE.findall(text)
    words = [i for i, p in enumerate(pieces) if not p.isspace()]
    for kind, at, token in edits:
        i = words[at % len(words)]
        if kind == "d":
            pieces[i] = ""
        elif kind == "i":
            pieces[i] = f"{token} {pieces[i]}"
        elif kind == "r":
            pieces[i] = token
        elif kind == "u":
            pieces[i] = f"{pieces[i]} {pieces[i]}"
        else:  # swap with the next word
            j = words[(at + 1) % len(words)]
            pieces[i], pieces[j] = pieces[j], pieces[i]
    return "".join(pieces)


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz") / "models"
    shutil.copytree(MODELS, root)
    return root


@settings(derandomize=True, database=None, deadline=None, max_examples=600,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(source=st.sampled_from(_SOURCES), edits=st.lists(_EDIT, min_size=1, max_size=3),
       pick=st.integers(0, 5))
def test_edited_inputs_never_escape(models, capsys, source, edits, pick):
    original = models / source
    # a sibling file, so the relative paths inside scenarios and manifests resolve
    target = original.with_name("fuzzed" + original.suffix)
    target.write_text(_edit(original.read_text(encoding="utf-8"), edits), encoding="utf-8")
    commands = _COMMANDS[original.suffix]
    status = cli.main([*commands[pick % len(commands)], str(target)])
    out, err = capsys.readouterr()
    assert status in (0, 1, 2)
    if status == 2:  # an input error: one line on stderr and nothing on stdout
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
