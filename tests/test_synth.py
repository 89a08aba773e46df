import hashlib
from itertools import accumulate
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from cgrader.cli import main
from cgrader.clex import TokenKind, tokenize
from cgrader.corpus import Submission
from cgrader.synth import (
    VALID_KIND_SETS,
    FaultSites,
    MutationKind,
    MutationPlan,
    NotMutableError,
    Rubric,
    apply_plan,
    score_for,
    synthesize_with_plans,
    truncate_half,
)

SEED_DIR = Path(__file__).resolve().parent.parent / "seeds"


def sites(code):
    return FaultSites(code, tokenize(code).tokens)


def mutate(code, kinds, rng):
    return apply_plan(code, kinds, rng, {})


def lexes_cleanly(code):
    return all(t.kind is not TokenKind.ERROR for t in tokenize(code).tokens)


class TestScoreFor:
    def test_empty_plan(self):
        assert score_for(MutationPlan(frozenset())) == 10.0

    def test_syntax_only(self):
        assert score_for(MutationPlan(frozenset({MutationKind.SYNTAX_ERROR}))) == 9.0

    def test_no_output_plus_logic(self):
        plan = MutationPlan(
            frozenset({MutationKind.NO_OUTPUT, MutationKind.LOGIC_ERROR})
        )
        assert score_for(plan) == 5.0

    def test_half_completed(self):
        assert score_for(MutationPlan(frozenset({MutationKind.HALF_COMPLETED}))) == 3.0

    def test_attainable_scores(self):
        scores = {score_for(MutationPlan(kinds)) for kinds in VALID_KIND_SETS}
        assert scores == {3.0, 4.0, 5.0, 7.0, 8.0, 9.0, 10.0}

    def test_syntax_logic_pair_is_invalid(self):
        with pytest.raises(ValueError):
            MutationPlan(
                frozenset({MutationKind.SYNTAX_ERROR, MutationKind.LOGIC_ERROR})
            )

    def test_floor_applies(self):
        rubric = Rubric(
            deductions={
                MutationKind.NO_OUTPUT: 4.0,
                MutationKind.SYNTAX_ERROR: 4.0,
                MutationKind.LOGIC_ERROR: 4.0,
            }
        )
        plan = MutationPlan(
            frozenset({MutationKind.NO_OUTPUT, MutationKind.SYNTAX_ERROR})
        )
        assert score_for(plan, rubric) == 3.0


class TestSyntaxError:
    def test_semicolon_only_site(self):
        assert sites("x;").inject_syntax_error(np.random.default_rng(0)) == "x"

    def test_known_outcomes(self):
        # "int x;" offers a semicolon deletion or a keyword misspelling.
        seen = {
            sites("int x;").inject_syntax_error(np.random.default_rng(s)) for s in range(30)
        }
        assert seen == {"int x", "in x;"}

    def test_empty_code(self):
        with pytest.raises(NotMutableError):
            sites("").inject_syntax_error(np.random.default_rng(0))

    def test_output_differs(self):
        code = "int main() { return 0; }"
        for s in range(20):
            assert sites(code).inject_syntax_error(np.random.default_rng(s)) != code


class TestLogicError:
    def test_operator_swap(self):
        assert sites("i<n").inject_logic_error(np.random.default_rng(0)) == "i>n"

    def test_no_sites(self):
        with pytest.raises(NotMutableError):
            sites("puts(s);").inject_logic_error(np.random.default_rng(0))

    def test_swap_preserves_token_count_and_lexes(self):
        code = "for (i = 0; i < 10; i++) { x += i; }"
        n_before = len(tokenize(code).tokens)
        for s in range(20):
            mutated = sites(code).inject_logic_error(np.random.default_rng(s))
            assert mutated != code
            assert lexes_cleanly(mutated)
            # Swaps replace one token; literal nudges keep the count too.
            assert len(tokenize(mutated).tokens) == n_before

    def test_loop_bound_perturbation(self):
        code = "while (i < 10) i++;"
        seen = {sites(code).inject_logic_error(np.random.default_rng(s)) for s in range(40)}
        assert any("9" in m or "11" in m for m in seen)


class TestRemoveOutput:
    def test_statement_removed(self):
        code = 'int main(){printf("hi");return 0;}'
        out = sites(code).remove_output(np.random.default_rng(0))
        assert out == "int main(){return 0;}"

    def test_no_output_call(self):
        with pytest.raises(NotMutableError):
            sites("int main(){return 0;}").remove_output(np.random.default_rng(0))

    def test_result_lexes_cleanly(self):
        code = 'int main(){int x=1;printf("%d\\n", f(x));puts("done");return 0;}'
        for s in range(10):
            assert lexes_cleanly(sites(code).remove_output(np.random.default_rng(s)))


class TestOutputSites:
    """Each output site is one whole statement: an output call through the first
    `;` at the call's depth, and never a call inside another call's arguments."""

    # Fragments that put output calls in, around and after other calls' arguments
    C_LIKE = st.lists(st.sampled_from(
        ["printf(", "puts (", "putchar", "f(", "for (", "x", "(", ")", ";", ",", "{",
         "}", '"a)"', "/*(*/", " "]), max_size=40).map("".join)

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(st.one_of(C_LIKE, st.text(max_size=60)))
    def test_each_site_is_a_call_through_its_semicolon_with_balanced_parentheses(
            self, code):
        tokens = tokenize(code).tokens
        starts = list(accumulate((len(tok.text) for tok in tokens), initial=0))
        for start, end in sites(code).outputs:
            span = [tok for at, tok in zip(starts, tokens) if start <= at < end]
            assert "".join(tok.text for tok in span) == code[start:end]  # whole tokens
            assert span[0].kind is TokenKind.IDENTIFIER
            assert span[0].text in ("printf", "puts", "putchar")
            assert span[-1].kind is TokenKind.PUNCTUATOR and span[-1].text == ";"
            depth = 0
            for tok in span:
                if tok.kind is TokenKind.PUNCTUATOR and tok.text in ("(", ")"):
                    depth += 1 if tok.text == "(" else -1
                    assert depth >= 0, code[start:end]
                elif tok.kind is TokenKind.PUNCTUATOR and tok.text in ("{", "}"):
                    assert depth > 0, code[start:end]  # no brace between statements
            assert depth == 0, code[start:end]

    def test_a_call_in_another_calls_arguments_is_no_site(self):
        code = 'int main(){printf("%d", putchar(c)); for (i = 0; i < n; i++) x++; return 0;}'
        removed = 'int main(){ for (i = 0; i < n; i++) x++; return 0;}'
        assert [code[start:end] for start, end in sites(code).outputs] == [
            'printf("%d", putchar(c));']
        assert sites(code).remove_output(np.random.default_rng(0)) == removed

    def test_a_call_in_a_for_header_is_no_site(self):
        code = ('int main(void){ for (printf("a"); i < 1; i++) x++; '
                'for (i = 0; printf("b"); ) x++; for (;; putchar(c)) puts("c"); }')
        assert [code[start:end] for start, end in sites(code).outputs] == ['puts("c");']
        assert sites(code).remove_output(np.random.default_rng(0)) == code.replace(
            'puts("c");', "")

    def test_a_call_without_its_own_semicolon_is_no_site(self):
        code = 'int main(void){ if (x) { printf("a") } y = 1; return 0; }'
        assert sites(code).outputs == ()
        with pytest.raises(NotMutableError):
            sites(code).remove_output(np.random.default_rng(0))


class TestTruncateHalf:
    def test_four_lines(self):
        assert truncate_half("a\nb\nc\nd\n") == "a\nb\n"

    def test_three_lines(self):
        assert truncate_half("a\nb\nc\n") == "a\nb\n"

    def test_one_line(self):
        with pytest.raises(NotMutableError):
            truncate_half("int main(){}")


def load_seeds():
    return [
        Submission(p.stem, p.read_text(encoding="utf-8"), 10.0)
        for p in sorted(SEED_DIR.glob("*.c"))
    ]


class TestSynthesize:
    def test_count_zero_rejected(self):
        with pytest.raises(ValueError):
            synthesize_with_plans(load_seeds(), 0, Rubric(), np.random.default_rng(0))

    def test_determinism(self):
        seeds = load_seeds()
        a = synthesize_with_plans(seeds, 40, Rubric(), np.random.default_rng(7))[0]
        b = synthesize_with_plans(seeds, 40, Rubric(), np.random.default_rng(7))[0]
        assert a == b

    def test_scores_and_plans_consistent(self):
        ds, plans = synthesize_with_plans(
            load_seeds(), 120, Rubric(), np.random.default_rng(3)
        )
        allowed = {3.0, 4.0, 5.0, 7.0, 8.0, 9.0, 10.0}
        for row, kinds in zip(ds.rows, plans):
            assert row.score == score_for(MutationPlan(kinds))
            assert row.score in allowed

    def test_clean_and_mutated_rows_present(self):
        ds, plans = synthesize_with_plans(
            load_seeds(), 200, Rubric(), np.random.default_rng(5)
        )
        assert any(not kinds for kinds in plans)
        assert any(kinds for kinds in plans)

    def test_non_full_marks_seed_rejected(self):
        bad = [Submission("s", "int main(){return 0;}", 8.0)]
        with pytest.raises(ValueError, match="full-marks"):
            synthesize_with_plans(bad, 5, Rubric(), np.random.default_rng(0))


class TestLexOnce:
    def test_seeds_and_texts_between_two_faults_are_lexed_once(self, lexed):
        seeds = load_seeds()
        _, plans = synthesize_with_plans(seeds, 400, Rubric(), np.random.default_rng(0))
        between = sum(len(kinds) - 1 for kinds in plans if len(kinds) > 1)
        assert lexed[: len(seeds)] == [seed.code for seed in seeds]
        # then each distinct text between two faults, once: 37 of the 99 such texts
        assert between == 99
        assert len(lexed) == len(set(lexed)) == len(seeds) + 37

    # sha256 of `cgrader synth --count 400` corpus and plans over the bundled
    # seeds, from the version that lexed a seed for every fault it took.
    SHA256 = {
        0: ("2e3ba4d39823182c7d1bf1fd64aedd0966ab59673d89e0e97ad2b60f6be0e863",
            "e34fbe6bd370f9f655c7827e8e443521960567faf97f0f8fe0bf48d48f502cef"),
        1: ("ab0b723b17b40293ce43058e5e49f30f4d31c1f55c1409448a4bc42f84702512",
            "2e80615788cb6e85e789488dd7bafc91927deadfead03c9f459c0811ada0b4fa"),
        2: ("86ef9dc36978e499f7b72abaa525158e41fe9c635fca95e3712efa982ab5faba",
            "c042318c18d6b69e8825cd9afb77caa617a00c26177f3e8db4171439bba5f7ad"),
    }

    @pytest.mark.parametrize("seed", sorted(SHA256))
    def test_corpus_and_plans_are_unchanged(self, seed, tmp_path, capsys):
        corpus, plans = tmp_path / "corpus.csv", tmp_path / "plans.csv"
        assert main(["synth", "--seeds", str(SEED_DIR), "--count", "400",
                     "--seed", str(seed), "--out", str(corpus), "--plans", str(plans)]) == 0
        digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest()
                        for path in (corpus, plans))
        assert digests == self.SHA256[seed]

    # `--count 600 --seed 1000004` is perfbench's fresh-submission set-up at seed 1
    # (its 400-row corpus is SHA256[1] above); pinned at the version that indexed
    # no text.
    HELDOUT_SHA256 = ("9d7e3cba7020408b55a8d538a4e2c35e178862c7f2d3350e66cdd3a73301e3ce",
                      "b5b457a29b5c32263f435a094ef2765e04194b31c965573a0771934fcead0a0c")

    def test_heldout_corpus_and_plans_are_unchanged(self, tmp_path, capsys):
        corpus, plans = tmp_path / "corpus.csv", tmp_path / "plans.csv"
        assert main(["synth", "--seeds", str(SEED_DIR), "--count", "600",
                     "--seed", "1000004", "--out", str(corpus), "--plans", str(plans)]) == 0
        assert tuple(hashlib.sha256(path.read_bytes()).hexdigest()
                     for path in (corpus, plans)) == self.HELDOUT_SHA256


# The header's `printf("a")` is no statement, so no fault removes it: each outcome
# removes the loop body's output statement, then swaps an operator.
LOOP_HEADER_SEED = """\
#include <stdio.h>

int main(void)
{
    int i = 0;
    for (printf("a"); i < 10; i++)
        printf("%d\\n", i);
    return 0;
}
"""


class TestTextBetweenTwoFaults:
    # Each outcome as the edits it makes to LOOP_HEADER_SEED, and the outcome of
    # each rng seed 0-49, pinned at the version that took only a call outside
    # every `(` as an output statement.
    EDITS = [
        {'printf("%d\\n", i);': "", "i < 10": "i > 10"},
        {'printf("%d\\n", i);': "", "<stdio.h>": "<stdio.h<"},
        {'printf("%d\\n", i);': "", "#include <": "#include >"},
    ]
    OUTCOMES = [0, 1, 0, 0, 0, 0, 1, 0, 0, 1, 0, 2, 1, 0, 2, 0, 1, 0, 0, 1, 0, 2, 0, 2, 1,
                1, 0, 2, 1, 0, 2, 1, 0, 0, 2, 2, 1, 2, 2, 0, 1, 1, 2, 1, 0, 0, 1, 2, 2, 2]

    def edited(self, n):
        code = LOOP_HEADER_SEED
        for old, new in self.EDITS[n].items():
            assert code.count(old) == 1
            code = code.replace(old, new)
        return code

    def test_no_output_then_logic_outcomes_are_unchanged(self):
        kinds = frozenset({MutationKind.NO_OUTPUT, MutationKind.LOGIC_ERROR})
        assert [mutate(LOOP_HEADER_SEED, kinds, np.random.default_rng(s))
                for s in range(50)] == [self.edited(n) for n in self.OUTCOMES]
