"""A seeded corpus of parser inputs and one line per parse result.

The corpus holds the bundled models, machines from `tests/rulegen.py`,
token mutations of both, and random terms, each term parsed with and
without a signature. A result line is the repr of what the parser
returned, positions and choose labels included, or the error class and
message. Hashing the lines pins the parser's behaviour, so a rewrite of
the parser can be checked against the one it replaces.
"""
from __future__ import annotations

import random
import re
from typing import Iterator, List

from conftest import MODELS
from rulegen import random_machine, random_par_machine
from asmweave.parser import parse_machine, parse_term, pretty_print

_TOKEN = re.compile(r'//[^\n]*|\n|"(?:\\.|[^"\\\n])*"?|\'?\w+|:=|!=|<=|>=|\.\.|\S')

_KEYWORDS = (
    "machine static controlled monitored abstract rule init main agent runs par "
    "endpar if then else let in forall choose with do skip undef true false and "
    "or not implies div mod").split()
_PUNCT = [":=", "!=", "<=", ">=", "..", "(", ")", "{", "}", ",", "/", ":",
          "=", "<", ">", "+", "-", "*"]
_EXTRA = ["x", "self", "f", "mem", "card", "0", "1", "7", "'a", '"s"', "\n"]

_TERM_SOURCE = """
machine T
  static k, f/1, g/2
  controlled a, b, h/1
  monitored m
  abstract p : {1, 2}
  rule R = skip
  main R
"""
_TERM_NAMES = ["a", "b", "k", "m", "p", "f", "g", "h", "zz", "self",
               "mem", "card", "union", "subset", "mkset"]
_TERM_ATOMS = _TERM_NAMES + ["0", "1", "12", "'a", '"s"', "true", "false", "undef"]
_BINARY = ["+", "-", "*", "div", "mod", "=", "!=", "<", "<=", ">", ">=",
           "and", "or", "implies"]
_TERM_TOKENS = _TERM_ATOMS + _BINARY + ["not", "(", ")", "{", "}", ",", "..", ":=", "if"]


def _tokens(text: str) -> List[str]:
    return [t for t in _TOKEN.findall(text) if not t.startswith("//")]


def _mutate(rng: random.Random, tokens: List[str]) -> str:
    toks = list(tokens)
    vocab = _KEYWORDS + _PUNCT + _EXTRA
    for _ in range(rng.randrange(1, 4)):
        i = rng.randrange(len(toks))
        kind = rng.randrange(6)
        if kind == 5:  # a name for a name: mostly a resolution error
            names = [k for k, t in enumerate(toks) if t.isidentifier() and t not in _KEYWORDS]
            if names:
                toks[rng.choice(names)] = rng.choice(_TERM_NAMES + [t for t in toks
                                                                   if t.isidentifier()])
        elif kind == 0 and len(toks) > 1:
            del toks[i]
        elif kind == 1:
            toks.insert(i, rng.choice(vocab))
        elif kind == 2:
            toks[i] = rng.choice(vocab if rng.random() < 0.7 else toks)
        elif kind == 3:
            toks.insert(i, toks[i])
        elif i + 1 < len(toks):
            toks[i], toks[i + 1] = toks[i + 1], toks[i]
    return " ".join(toks)


def _random_term(rng: random.Random, depth: int) -> str:
    """A term text that is mostly well formed, with operators mixed freely."""
    roll = rng.random()
    if depth <= 0 or roll < 0.25:
        return rng.choice(_TERM_ATOMS)
    if roll < 0.55:
        left, right = _random_term(rng, depth - 1), _random_term(rng, depth - 1)
        return f"{left} {rng.choice(_BINARY)} {right}"
    if roll < 0.65:
        return f"{rng.choice(['not ', '-'])}{_random_term(rng, depth - 1)}"
    if roll < 0.75:
        return f"({_random_term(rng, depth - 1)})"
    if roll < 0.85:
        args = ", ".join(_random_term(rng, depth - 1) for _ in range(rng.randrange(4)))
        return f"{rng.choice(_TERM_NAMES)}({args})"
    if roll < 0.92:
        return f"{{{_random_term(rng, depth - 1)} .. {_random_term(rng, depth - 1)}}}"
    elems = ", ".join(_random_term(rng, depth - 1) for _ in range(rng.randrange(3)))
    return f"{{{elems}}}"


def _result(parse, *args) -> str:
    try:
        return repr(parse(*args))
    except Exception as e:  # the class is part of the pinned result
        return f"{type(e).__name__}: {e}"


def machine_texts(seed: int, generated: int, mutations: int) -> List[str]:
    rng = random.Random(seed)
    texts = [p.read_text(encoding="utf-8") for p in sorted(MODELS.glob("*.asm"))]
    for i in range(generated):
        make = random_machine if i % 2 else random_par_machine
        texts.append(pretty_print(make(rng, f"G{i}")))
    bases = [_tokens(t) for t in texts]
    for _ in range(mutations):
        texts.append(_mutate(rng, rng.choice(bases)))
    return texts


def term_texts(seed: int, count: int) -> List[str]:
    rng = random.Random(seed)
    texts = []
    for i in range(count):
        if i % 2:
            texts.append(" ".join(rng.choice(_TERM_TOKENS)
                                  for _ in range(rng.randrange(1, 12))))
        else:
            texts.append(_random_term(rng, rng.randrange(1, 5)))
    return texts


def results(seed: int = 2024, generated: int = 300, mutations: int = 20_000,
            terms: int = 50_000) -> Iterator[str]:
    """One line per input, machines first, then each term without and with a signature."""
    for text in machine_texts(seed, generated, mutations):
        yield _result(parse_machine, text)
    sig = parse_machine(_TERM_SOURCE).sig
    for text in term_texts(seed, terms):
        yield _result(parse_term, text)
        yield _result(parse_term, text, sig)
