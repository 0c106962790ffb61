"""Unit tests for the daemon wire protocol (no sockets needed)."""

import io
import json

import pytest

from repro.errors import SpecError
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    decode_line,
    decode_submission,
    encode_line,
    error_response,
    evaluator_context,
    read_frame,
    split_results,
)
from repro.spec.registry import SPACES


class TestLineCodec:
    def test_round_trip(self):
        message = {"op": "ping", "n": 3}
        assert dict(decode_line(encode_line(message))) == message

    def test_encoding_is_one_compact_line(self):
        raw = encode_line({"op": "stats", "a": [1, 2]})
        assert raw.endswith(b"\n")
        assert raw.count(b"\n") == 1
        assert b" " not in raw

    def test_non_json_rejected(self):
        with pytest.raises(SpecError, match="not a JSON line"):
            decode_line(b"{nope\n")

    def test_non_mapping_rejected(self):
        with pytest.raises(SpecError):
            decode_line(b"[1, 2]\n")

    def test_unknown_op_rejected(self):
        with pytest.raises(SpecError, match="unknown operation"):
            decode_line(encode_line({"op": "frobnicate"}))

    def test_missing_op_rejected(self):
        with pytest.raises(SpecError, match="op"):
            decode_line(b"{}\n")


class TestErrorResponse:
    def test_shape(self):
        envelope = error_response("submit", "overloaded", "busy",
                                  retry_after_ms=50.0)
        assert envelope == {"ok": False, "op": "submit",
                            "error": "overloaded", "detail": "busy",
                            "retry_after_ms": 50.0}


class TestEvaluatorContext:
    def test_matches_cli_dse_context(self):
        # The serve equivalence contract hinges on this exact value —
        # it is what ``repro dse`` / ``repro run`` hash into keys.
        assert evaluator_context("suite_objective") == {
            "task": "dse-codesign",
            "objective": "suite_objective",
        }


class TestDecodeSubmission:
    def test_inline_candidates(self):
        submission = decode_submission({
            "op": "submit",
            "candidates": [{"peak_gflops": 200.0}],
            "tenant": "t1",
        })
        assert submission.objective == "suite_objective"
        assert submission.candidates == [{"peak_gflops": 200.0}]
        assert submission.tenant == "t1"
        assert submission.no_coalesce is False

    def test_space_indices_decode_through_registry(self):
        space = SPACES.build("codesign", "$")
        submission = decode_submission({
            "op": "submit", "space": "codesign", "indices": [0, 5],
        })
        assert submission.candidates == [space.config_at(0),
                                         space.config_at(5)]

    def test_unknown_objective_rejected(self):
        with pytest.raises(SpecError, match="objective"):
            decode_submission({"op": "submit", "objective": "nope",
                               "candidates": [{}]})

    def test_both_forms_rejected(self):
        with pytest.raises(SpecError, match="not both"):
            decode_submission({"op": "submit", "candidates": [{}],
                               "space": "codesign", "indices": [0]})

    def test_neither_form_rejected(self):
        with pytest.raises(SpecError, match="neither"):
            decode_submission({"op": "submit"})

    def test_empty_candidates_rejected(self):
        with pytest.raises(SpecError, match="at least one"):
            decode_submission({"op": "submit", "candidates": []})

    def test_out_of_range_index_rejected(self):
        with pytest.raises(SpecError, match="outside space"):
            decode_submission({"op": "submit", "space": "codesign",
                               "indices": [10**9]})

    @pytest.mark.parametrize("indices, message", [
        ([3, 256, -1], "$.indices[1]: index 256 outside space 'codesign'"
                       " (size 256)"),
        ([0, -1, 10**9], "$.indices[1]: index -1 outside space 'codesign'"
                         " (size 256)"),
        ([10**30], f"$.indices[0]: index {10**30} outside space"
                   " 'codesign' (size 256)"),
        # An out-of-range index ahead of a non-integer is reported first.
        ([1, 999, "7"], "$.indices[1]: index 999 outside space 'codesign'"
                        " (size 256)"),
        ([1, True, 999], "$.indices[1]: expected an integer, got bool"),
        ([1, 2.0], "$.indices[1]: expected an integer, got float"),
    ])
    def test_first_bad_index_is_named(self, indices, message):
        with pytest.raises(SpecError) as raised:
            decode_submission({"op": "submit", "space": "codesign",
                               "indices": indices})
        assert str(raised.value) == message

    def test_space_indices_decode_as_a_population(self):
        from repro.dse.space import Population

        indices = [255, 0, 7, 7]
        submission = decode_submission({
            "op": "submit", "space": "codesign_xl", "indices": indices})
        assert isinstance(submission.candidates, Population)
        space = submission.candidates.space
        assert submission.candidates == [space.config_at(i)
                                         for i in indices]
        again = decode_submission({
            "op": "submit", "space": "codesign_xl", "indices": [1]})
        assert again.candidates.space is space  # built once per process

    def test_unknown_key_rejected(self):
        with pytest.raises(SpecError, match="unknown"):
            decode_submission({"op": "submit", "candidates": [{}],
                               "sneaky": 1})


class TestReadFrame:
    def test_reads_one_line(self):
        handle = io.BytesIO(b'{"op":"ping"}\n{"op":"stats"}\n')
        assert read_frame(handle) == b'{"op":"ping"}\n'
        assert read_frame(handle) == b'{"op":"stats"}\n'

    def test_eof_is_none(self):
        assert read_frame(io.BytesIO(b"")) is None

    def test_oversized_line_rejected(self):
        blob = b"x" * (MAX_LINE_BYTES + 16)
        with pytest.raises(SpecError, match="exceeds"):
            read_frame(io.BytesIO(blob))

    def test_max_line_bound_fits_large_submissions(self):
        # ~10k candidates must fit on one line with headroom.
        candidates = [{"peak_gflops": 3200.0, "onchip_kb": 8192.0,
                       "offchip_gbs": 150.0,
                       "static_power_w": 20.0}] * 10_000
        line = encode_line({"op": "submit", "candidates": candidates})
        assert len(line) < MAX_LINE_BYTES


class TestSplitResults:
    def test_counts_hits_and_fresh(self):
        results = [{"cached": True}, {"cached": False},
                   {"cached": True}]
        assert split_results(results) == (2, 1)
