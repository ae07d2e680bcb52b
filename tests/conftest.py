import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from asmweave import interp
from asmweave.parser import MachineDef, parse_machine

SRC = Path(__file__).resolve().parent.parent / "src"
MODELS = SRC / "asmweave" / "models"


def load_model(name: str) -> MachineDef:
    return parse_machine((MODELS / name).read_text(encoding="utf-8"))


def model_path(name: str) -> Path:
    return MODELS / name


def content_key(state) -> frozenset:
    """The items of a state's content: equal exactly when the contents are
    equal, so a test can deduplicate states on it as the searches do."""
    return frozenset(state.content.items())


def cli_env(extra=None) -> dict:
    """Environment for `python -m asmweave` from a checkout that is not installed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(extra or {})
    return env


def under_hash_seeds(code: str, seeds=("1", "2", "3")) -> set:
    """The distinct stdouts of `python -c code` (dedented) under each
    PYTHONHASHSEED."""
    return {subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                           env=cli_env({"PYTHONHASHSEED": seed}),
                           capture_output=True, text=True, check=True).stdout
            for seed in seeds}


@pytest.fixture
def call_depth(monkeypatch):
    """`call_depth(n)` bounds nested rule calls at `n` for the rest of the
    test, through `interp.MAX_CALL_DEPTH`, which every call reads."""
    def bound(n: int) -> None:
        monkeypatch.setattr(interp, "MAX_CALL_DEPTH", n)
    return bound
