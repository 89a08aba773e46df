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

import numpy as np

from .clex import Token, TokenKind, tokenize
from .corpus import Dataset, Submission


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
    full_marks: float = 10.0
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


# Each mutator takes the tokens of its input (`tokenize(code).tokens`), so a
# caller that holds them does not lex the text again, and returns the new text.


def _rebuild(tokens: Sequence[Token], replace: dict[int, str]) -> str:
    return "".join(replace.get(i, tok.text) for i, tok in enumerate(tokens))  # "" deletes


def inject_syntax_error(tokens: Sequence[Token], rng: np.random.Generator) -> str:
    """Delete a `;` or `}`, or drop the last character of a keyword."""
    sites: dict[str, list[int]] = {"semi": [], "brace": [], "keyword": []}
    for i, tok in enumerate(tokens):
        if tok.kind is TokenKind.PUNCTUATOR and tok.text == ";":
            sites["semi"].append(i)
        elif tok.kind is TokenKind.PUNCTUATOR and tok.text == "}":
            sites["brace"].append(i)
        elif tok.kind is TokenKind.KEYWORD and len(tok.text) >= 2:
            sites["keyword"].append(i)
    applicable = [name for name in ("semi", "brace", "keyword") if sites[name]]
    if not applicable:
        raise NotMutableError("no semicolon, closing brace, or keyword to break")
    action = applicable[rng.integers(len(applicable))]
    idx = int(sites[action][rng.integers(len(sites[action]))])
    if action == "keyword":
        return _rebuild(tokens, {idx: tokens[idx].text[:-1]})
    return _rebuild(tokens, {idx: ""})


def inject_logic_error(tokens: Sequence[Token], rng: np.random.Generator) -> str:
    """Swap a relational/arithmetic operator or nudge a loop-bound literal."""
    candidates: list[tuple[int, str]] = []
    for i, tok in enumerate(tokens):
        if tok.kind is TokenKind.PUNCTUATOR and tok.text in _RELATIONAL_SWAP:
            candidates.append((i, _RELATIONAL_SWAP[tok.text]))
        elif (
            tok.kind is TokenKind.INT_LITERAL
            and tok.text.isdigit()
            and _inside_loop_header(tokens, i)
        ):
            value = int(tok.text)
            delta = 1 if value == 0 else int(rng.choice([-1, 1]))
            candidates.append((i, str(value + delta)))
    if not candidates:
        raise NotMutableError("no operator or loop-bound literal to mutate")
    idx, new_text = candidates[rng.integers(len(candidates))]
    return _rebuild(tokens, {idx: new_text})


def _inside_loop_header(tokens: Sequence[Token], i: int) -> bool:
    """True if token i sits inside the parentheses of a for/while header."""
    depth = 0
    for j in range(i - 1, -1, -1):
        tok = tokens[j]
        if tok.kind is TokenKind.PUNCTUATOR:
            if tok.text == ")":
                depth += 1
            elif tok.text == "(":
                if depth == 0:
                    k = _first_significant(tokens, range(j - 1, -1, -1))
                    return (
                        k is not None
                        and tokens[k].kind is TokenKind.KEYWORD
                        and tokens[k].text in ("for", "while")
                    )
                depth -= 1
            elif tok.text in (";", "{", "}") and depth == 0:
                return False
    return False


def _first_significant(tokens: Sequence[Token], indices) -> int | None:
    """The first of `indices` whose token is neither whitespace nor a comment."""
    return next((k for k in indices
                 if tokens[k].kind not in (TokenKind.WHITESPACE, TokenKind.COMMENT)), None)


def remove_output(tokens: Sequence[Token], rng: np.random.Generator) -> str:
    """Delete one printf/puts/putchar statement through its semicolon."""
    calls: list[tuple[int, int]] = []  # (identifier index, semicolon index)
    for i, tok in enumerate(tokens):
        if tok.kind is TokenKind.IDENTIFIER and tok.text in _OUTPUT_CALLS:
            nxt = _first_significant(tokens, range(i + 1, len(tokens)))
            if nxt is None or tokens[nxt].text != "(":
                continue
            end = _statement_end(tokens, nxt)
            if end is not None:
                calls.append((i, end))
    if not calls:
        raise NotMutableError("no output call to remove")
    start, end = calls[rng.integers(len(calls))]
    return _rebuild(tokens, {i: "" for i in range(start, end + 1)})


def _statement_end(tokens: Sequence[Token], open_paren: int) -> int | None:
    """Index of the `;` terminating the call whose `(` is at open_paren."""
    depth = 0
    for k in range(open_paren, len(tokens)):
        text = tokens[k].text
        if tokens[k].kind is TokenKind.PUNCTUATOR:
            if text == "(":
                depth += 1
            elif text == ")":
                depth -= 1
            elif text == ";" and depth == 0:
                return k
    return None


def truncate_half(code: str) -> str:
    """Keep the first ceil(L/2) lines."""
    lines = code.splitlines()
    if len(lines) < 2:
        raise NotMutableError("need at least 2 lines to truncate")
    kept = lines[: math.ceil(len(lines) / 2)]
    return "\n".join(kept) + "\n"


# Plan mix: 20% clean, 20% syntax, 20% logic, 15% no-output, 15% multi-fault
# (one of the valid two/three-kind combinations), 10% half-completed.
_MULTI_FAULT_SETS = VALID_KIND_SETS[4:7]


def draw_plan(rng: np.random.Generator) -> frozenset[MutationKind]:
    r = rng.random()
    if r < 0.20:
        return frozenset()
    if r < 0.40:
        return frozenset({MutationKind.SYNTAX_ERROR})
    if r < 0.60:
        return frozenset({MutationKind.LOGIC_ERROR})
    if r < 0.75:
        return frozenset({MutationKind.NO_OUTPUT})
    if r < 0.90:
        return _MULTI_FAULT_SETS[rng.integers(len(_MULTI_FAULT_SETS))]
    return frozenset({MutationKind.HALF_COMPLETED})


# The token mutators in the order a plan applies them.
_FAULTS = ((MutationKind.NO_OUTPUT, remove_output),
           (MutationKind.LOGIC_ERROR, inject_logic_error),
           (MutationKind.SYNTAX_ERROR, inject_syntax_error))


def apply_plan(code: str, tokens: Sequence[Token], kinds: frozenset[MutationKind],
               rng: np.random.Generator) -> str:
    """Apply faults in the fixed order no-output, logic, syntax. `tokens` are
    those of `code`; only a text between two faults is lexed."""
    if MutationKind.HALF_COMPLETED in kinds:
        return truncate_half(code)
    faults = [fault for kind, fault in _FAULTS if kind in kinds]
    for n, fault in enumerate(faults):
        code = fault(tokens if n == 0 else tokenize(code).tokens, rng)
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
    seed_tokens = []  # each seed lexed once, for this call
    for seed in seeds:
        if seed.score != rubric.full_marks:
            raise ValueError(f"seed {seed.id!r} is not a full-marks program")
        seed_tokens.append(tokenize(seed.code).tokens)
        if any(t.kind is TokenKind.ERROR for t in seed_tokens[-1]):
            raise ValueError(f"seed {seed.id!r} does not lex cleanly")
    rows = []
    plans = []
    for i in range(count):
        pick = rng.integers(len(seeds))
        seed = seeds[pick]
        for _ in range(_MAX_ATTEMPTS):
            kinds = draw_plan(rng)
            try:
                mutated = apply_plan(seed.code, seed_tokens[pick], kinds, rng)
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
