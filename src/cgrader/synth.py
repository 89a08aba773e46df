"""Rubric-driven dataset synthesis by injecting faults into correct programs.

Each synthesized row starts from a full-marks seed program, receives a plan
of zero or more faults (missing output, broken logic, broken syntax, or a
half-completed truncation), and is scored by the deduction rubric.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate

import numpy as np

from .clex import INSIGNIFICANT, Token, TokenKind, tokenize
from .corpus import Dataset, Submission
from .metrics import SCORE_MAX


class NotMutableError(ValueError):
    """The code offers no site for the requested mutation."""


class MutationKind(Enum):
    NO_OUTPUT = "no_output"
    SYNTAX_ERROR = "syntax_error"
    LOGIC_ERROR = "logic_error"
    HALF_COMPLETED = "half_completed"


# Kind multisets a plan may carry.  The syntax+logic pair without a missing
# output is deliberately absent: the attainable score set under the default
# rubric is {10, 9, 8, 7, 5, 4, 3}, with no 6.
VALID_KIND_SETS: tuple[frozenset[MutationKind], ...] = (
    frozenset(),
    frozenset({MutationKind.SYNTAX_ERROR}),
    frozenset({MutationKind.NO_OUTPUT}),
    frozenset({MutationKind.LOGIC_ERROR}),
    frozenset({MutationKind.NO_OUTPUT, MutationKind.SYNTAX_ERROR}),
    frozenset({MutationKind.NO_OUTPUT, MutationKind.LOGIC_ERROR}),
    frozenset(
        {MutationKind.NO_OUTPUT, MutationKind.SYNTAX_ERROR, MutationKind.LOGIC_ERROR}
    ),
    frozenset({MutationKind.HALF_COMPLETED}),
)


@dataclass(frozen=True)
class MutationPlan:
    kinds: frozenset[MutationKind]

    def __post_init__(self):
        if frozenset(self.kinds) not in VALID_KIND_SETS:
            raise ValueError(f"invalid mutation plan {sorted(k.value for k in self.kinds)}")


@dataclass(frozen=True)
class Rubric:
    full_marks: float = SCORE_MAX
    deductions: dict[MutationKind, float] = field(
        default_factory=lambda: {
            MutationKind.NO_OUTPUT: 2.0,
            MutationKind.SYNTAX_ERROR: 1.0,
            MutationKind.LOGIC_ERROR: 3.0,
        }
    )
    half_completed_score: float = 3.0
    floor: float = 3.0

    def __post_init__(self):
        if not 0 <= self.floor <= self.half_completed_score <= self.full_marks:
            raise ValueError("rubric ordering violated")
        if any(d <= 0 for d in self.deductions.values()):
            raise ValueError("deductions must be positive")


def score_for(plan: MutationPlan, rubric: Rubric = Rubric()) -> float:
    if MutationKind.HALF_COMPLETED in plan.kinds:
        return rubric.half_completed_score
    total = sum(rubric.deductions[k] for k in plan.kinds)
    return max(rubric.floor, rubric.full_marks - total)


_RELATIONAL_SWAP = {
    "<": ">", ">": "<", "<=": ">=", ">=": "<=", "==": "!=", "!=": "==",
    "+": "-", "-": "+",
}
_OUTPUT_CALLS = {"printf", "puts", "putchar"}
_CONTROL = {"if", "for", "while", "switch"}  # keywords whose `(...)` a statement follows


class FaultSites:
    """Where each fault can strike one program text, found in one pass over its
    tokens. It holds offsets into the text, not tokens. Each fault draws from
    `rng` and returns the text with one span replaced."""

    __slots__ = ("code", "syntax", "logic", "outputs")

    def __init__(self, code: str, tokens: Sequence[Token]):
        starts = [0, *accumulate(len(tok.text) for tok in tokens)]
        semis, braces, keywords = [], [], []  # offset of the character each deletes
        logic = []  # (start, end, swapped operator or loop literal's value)
        outputs = []  # (start, end) of each output statement
        # One entry per `(` that no `)` has closed yet: True while a literal at
        # its depth sits in a for/while header, that is, the `(` follows `for` or
        # `while` and no `;`, `{` or `}` has come since at that depth.
        headers: list[bool] = []
        controls: list[bool] = []  # per unclosed `(`: it opens a _CONTROL header
        # The start of the output call whose statement has not ended. A statement
        # lies outside every `(`, so only a call at depth 0 that is the first token
        # of a statement starts one; the next `;` at depth 0 ends it, and a `{` or
        # `}` at depth 0 first drops it, for the statement then lacks its own `;`.
        pending = None
        prev = None  # index of the last significant token
        # A statement starts at the first significant token, and at the one after
        # a `;`, `{`, `}`, `else`, `do` or a `)` that closes a _CONTROL header;
        # `first` is the index of the latest such start.
        first, opens = None, True
        for i, (kind, text) in enumerate(tokens):
            closes_header = False
            if kind is TokenKind.PUNCTUATOR:
                if text == "(":
                    before_kind, before_text = tokens[i if prev is None else prev]
                    if (not headers and prev == first
                            and before_kind is TokenKind.IDENTIFIER
                            and before_text in _OUTPUT_CALLS):
                        pending = starts[prev]
                    is_keyword = before_kind is TokenKind.KEYWORD
                    headers.append(is_keyword and before_text in ("for", "while"))
                    controls.append(is_keyword and before_text in _CONTROL)
                elif text == ")":
                    if headers:
                        headers.pop()
                        closes_header = controls.pop()
                    else:  # a `)` that closes no `(` ends no statement
                        pending = None
                elif text in (";", "{", "}"):
                    if headers:
                        headers[-1] = False
                    elif pending is not None:
                        if text == ";":
                            outputs.append((pending, starts[i + 1]))
                        pending = None
                    if text == ";":
                        semis.append(starts[i])
                    elif text == "}":
                        braces.append(starts[i])
                elif text in _RELATIONAL_SWAP:
                    logic.append((starts[i], starts[i + 1], _RELATIONAL_SWAP[text]))
            elif kind is TokenKind.KEYWORD and len(text) >= 2:
                keywords.append(starts[i + 1] - 1)
            elif (kind is TokenKind.INT_LITERAL and text.isdigit()
                  and headers and headers[-1]):
                logic.append((starts[i], starts[i + 1], int(text)))
            if kind not in INSIGNIFICANT:
                if opens:
                    first = i
                opens = closes_header or text in (";", "{", "}", "else", "do")
                prev = i
        self.code = code
        self.syntax = tuple(tuple(sites) for sites in (semis, braces, keywords) if sites)
        self.logic = tuple(logic)
        self.outputs = tuple(outputs)

    def _splice(self, start: int, end: int, new: str = "") -> str:
        return self.code[:start] + new + self.code[end:]

    def inject_syntax_error(self, rng: np.random.Generator) -> str:
        """Delete a `;` or `}`, or drop the last character of a keyword."""
        if not self.syntax:
            raise NotMutableError("no semicolon, closing brace, or keyword to break")
        sites = self.syntax[rng.integers(len(self.syntax))]
        at = sites[rng.integers(len(sites))]
        return self._splice(at, at + 1)

    def inject_logic_error(self, rng: np.random.Generator) -> str:
        """Swap a relational/arithmetic operator or nudge a loop-bound literal."""
        candidates = []
        for start, end, new in self.logic:
            if isinstance(new, int):  # one draw per nonzero literal, in token order
                new = str(new + (1 if new == 0 else (-1, 1)[rng.integers(2)]))
            candidates.append((start, end, new))
        if not candidates:
            raise NotMutableError("no operator or loop-bound literal to mutate")
        return self._splice(*candidates[rng.integers(len(candidates))])

    def remove_output(self, rng: np.random.Generator) -> str:
        """Delete one printf/puts/putchar statement through its semicolon."""
        if not self.outputs:
            raise NotMutableError("no output call to remove")
        return self._splice(*self.outputs[rng.integers(len(self.outputs))])


def truncate_half(code: str) -> str:
    """Keep the first ceil(L/2) lines."""
    lines = code.splitlines()
    if len(lines) < 2:
        raise NotMutableError("need at least 2 lines to truncate")
    kept = lines[: math.ceil(len(lines) / 2)]
    return "\n".join(kept) + "\n"


# Plan mix, each entry the bound under which `rng.random()` draws it and the
# kind sets it picks from uniformly: 20% clean, 20% syntax, 20% logic, 15%
# no-output, 15% one of the three multi-fault sets, 10% half-completed. The
# bounds are written out, as summed shares round: 0.2 + 0.2 + 0.2 > 0.6.
_PLAN_MIX = ((0.20, VALID_KIND_SETS[0:1]), (0.40, VALID_KIND_SETS[1:2]),
             (0.60, VALID_KIND_SETS[3:4]), (0.75, VALID_KIND_SETS[2:3]),
             (0.90, VALID_KIND_SETS[4:7]), (1.0, VALID_KIND_SETS[7:8]))


def draw_plan(rng: np.random.Generator) -> frozenset[MutationKind]:
    r = rng.random()
    sets = next(sets for bound, sets in _PLAN_MIX if r < bound)
    return sets[0] if len(sets) == 1 else sets[rng.integers(len(sets))]


# The faults in the order a plan applies them.
_FAULTS = ((MutationKind.NO_OUTPUT, FaultSites.remove_output),
           (MutationKind.LOGIC_ERROR, FaultSites.inject_logic_error),
           (MutationKind.SYNTAX_ERROR, FaultSites.inject_syntax_error))


def apply_plan(code: str, kinds: frozenset[MutationKind], rng: np.random.Generator,
               indexed: dict[str, FaultSites]) -> str:
    """Apply faults in the fixed order no-output, logic, syntax. `indexed` maps
    program texts to their sites; a text that is not in it is lexed and added."""
    if MutationKind.HALF_COMPLETED in kinds:
        return truncate_half(code)
    for kind, fault in _FAULTS:
        if kind in kinds:
            if code not in indexed:
                indexed[code] = FaultSites(code, tokenize(code).tokens)
            code = fault(indexed[code], rng)
    return code


_MAX_ATTEMPTS = 50


def synthesize_with_plans(
    seeds: list[Submission],
    count: int,
    rubric: Rubric,
    rng: np.random.Generator,
) -> tuple[Dataset, list[frozenset[MutationKind]]]:
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if not seeds:
        raise ValueError("need at least one seed program")
    indexed: dict[str, FaultSites] = {}  # each text lexed once, for this call
    for seed in seeds:
        if seed.score != rubric.full_marks:
            raise ValueError(f"seed {seed.id!r} is not a full-marks program")
        tokens = tokenize(seed.code).tokens
        if any(t.kind is TokenKind.ERROR for t in tokens):
            raise ValueError(f"seed {seed.id!r} does not lex cleanly")
        indexed[seed.code] = FaultSites(seed.code, tokens)
    rows = []
    plans = []
    for i in range(count):
        pick = rng.integers(len(seeds))
        seed = seeds[pick]
        for _ in range(_MAX_ATTEMPTS):
            kinds = draw_plan(rng)
            try:
                mutated = apply_plan(seed.code, kinds, rng, indexed)
            except NotMutableError:
                continue
            break
        else:
            raise NotMutableError(
                f"seed {seed.id!r}: no drawn plan was applicable "
                f"after {_MAX_ATTEMPTS} attempts"
            )
        score = score_for(MutationPlan(kinds), rubric)
        rows.append(Submission(f"{seed.id}_{i:05d}", mutated, score))
        plans.append(kinds)
    return Dataset(tuple(rows)), plans
