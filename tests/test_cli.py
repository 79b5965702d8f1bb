import json
import os
import random
import re
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from hskernel import cli
from hskernel.cli import main, parse_instance, write_instance
from hskernel.core import Hypergraph, Instance, normalize
from hskernel.errors import FormatError, UnsupportedParameterError
from hskernel.oracle import GenSpec, generate
from hskernel.reductions import ReduceResult, vertex_bound

SHOWCASE_TEXT = "p hs 5 4 3 1\n1 2 4\n1 2 5\n2 3 4\n2 3 5\n"

# (id, text, expected): expected is (exception type, message) or the parsed
# (n, edges, d, k, labels, comments).
PARSE_CASES = [
    ("empty", "", (FormatError, "missing 'p hs' header line")),
    ("comment-only", "c only a comment\n", (FormatError, "missing 'p hs' header line")),
    ("edge-first", "1 2\n", (FormatError, "line 1: expected header 'p hs <n> <m> <d> <k>'")),
    (
        "short-header",
        "p hs 2 1 3\n1 2\n",
        (FormatError, "line 1: expected header 'p hs <n> <m> <d> <k>'"),
    ),
    ("non-integer-header", "p hs 2 1 3 x\n1 2\n", (FormatError, "line 1: non-integer field in header")),
    ("negative-n", "p hs -1 0 3 1\n", (FormatError, "header counts must be non-negative")),
    ("negative-m", "p hs 2 -1 3 1\n", (FormatError, "header counts must be non-negative")),
    ("too-few-edges", "p hs 2 2 3 1\n1 2\n", (FormatError, "expected 2 edge lines, found 1")),
    ("too-many-edges", "p hs 2 1 3 1\n1 2\n2 1\n", (FormatError, "expected 1 edge lines, found 2")),
    (
        "second-header",
        "p hs 2 1 3 1\np hs 2 1 3 1\n1 2\n",
        (FormatError, "line 2: second 'p hs' header line"),
    ),
    (
        "second-header-after-edges",
        "p hs 2 1 3 1\n1 2\np hs 2 1 3 1\n",
        (FormatError, "line 3: second 'p hs' header line"),
    ),
    ("p-edge-line", "p hs 2 1 3 1\np 1 2\n", (FormatError, "line 2: non-integer vertex index")),
    # Only CR LF, CR and LF end a line; other line breaks are whitespace.
    (
        "unicode-line-break",
        "p hs 2 1 3 1\nc note\u2028x\n1 2\n",
        (2, ((0, 1),), 3, 1, (1, 2), ("note\u2028x",)),
    ),
    ("form-feed-edge", "p hs 3 1 3 1\n1 2\f3\n", (3, ((0, 1, 2),), 3, 1, (1, 2, 3), ())),
    ("vertical-tab-edge", "p hs 3 1 3 1\n1\v2 3\n", (3, ((0, 1, 2),), 3, 1, (1, 2, 3), ())),
    (
        "form-feed-is-no-line-end",
        "p hs 3 2 3 1\n1 2\f3\n",
        (FormatError, "expected 2 edge lines, found 1"),
    ),
    ("cr", "p hs 2 1 3 1\r1 2\r", (2, ((0, 1),), 3, 1, (1, 2), ())),
    (
        "two-byte-order-marks",
        "\ufeff\ufeffp hs 2 1 3 1\n1 2\n",
        (FormatError, "line 1: expected header 'p hs <n> <m> <d> <k>'"),
    ),
    ("non-integer-index", "p hs 2 1 3 1\n1 x\n", (FormatError, "line 2: non-integer vertex index")),
    ("index-zero", "p hs 2 1 3 1\n0 2\n", (FormatError, "line 2: vertex index 0 outside 1..2")),
    ("negative-index", "p hs 2 1 3 1\n1 -1\n", (FormatError, "line 2: vertex index -1 outside 1..2")),
    ("index-above-n", "p hs 2 1 3 1\n1 3\n", (FormatError, "line 2: vertex index 3 outside 1..2")),
    (
        "range-before-size",
        "p hs 3 2 3 1\n1 2\n4 1 2 3\n",
        (FormatError, "line 3: vertex index 4 outside 1..3"),
    ),
    (
        "oversized-edge",
        "p hs 4 1 3 1\n1 2 3 4\n",
        (FormatError, "line 2: edge has 4 distinct vertices, bound is 3"),
    ),
    (
        "d0-with-edge",
        "p hs 3 1 0 1\n1 2\n",
        (FormatError, "line 2: edge has 2 distinct vertices, bound is 0"),
    ),
    (
        "d0-without-edges",
        "p hs 3 0 0 1\n",
        (UnsupportedParameterError, "d=0 unsupported: the engine requires d >= 3"),
    ),
    (
        "d2-oversized-edge",
        "p hs 3 1 2 1\n1 2 3\n",
        (FormatError, "line 2: edge has 3 distinct vertices, bound is 2"),
    ),
    (
        "d2-with-edge",
        "p hs 3 1 2 1\n1 2\n",
        (UnsupportedParameterError, "d=2 unsupported: the engine requires d >= 3"),
    ),
    (
        "d2-without-edges",
        "p hs 3 0 2 1\n",
        (UnsupportedParameterError, "d=2 unsupported: the engine requires d >= 3"),
    ),
    ("duplicate-index", "p hs 3 1 3 1\n1 1 2\n", (3, ((0, 1),), 3, 1, (1, 2, 3), ())),
    (
        "duplicates-within-bound",
        "p hs 4 1 3 1\n3 3 2 1 2\n",
        (4, ((0, 1, 2),), 3, 1, (1, 2, 3, 4), ()),
    ),
    ("duplicate-edge", "p hs 3 2 3 1\n1 2\n2 1\n", (3, ((0, 1),), 3, 1, (1, 2, 3), ())),
    ("no-vertices", "p hs 0 0 3 0\n", (0, (), 3, 0, (), ())),
    ("negative-k", "p hs 4 1 3 -1\n2 4\n", (4, ((1, 3),), 3, -1, (1, 2, 3, 4), ())),
    ("crlf", "p hs 2 1 3 1\r\n1 2\r\n", (2, ((0, 1),), 3, 1, (1, 2), ())),
    (
        "blanks-and-comments",
        "\n  c  spaced comment \nc\np hs 3 2 3 2\n\n  2 3  \ncall\n1 2\n",
        (3, ((0, 1), (1, 2)), 3, 2, (1, 2, 3), ("spaced comment", "", "all")),
    ),
]

# Every --report-json key, and the values of four runs (all but wall_time_s).
REPORT_KEYS = [
    "d", "k_final", "k_input", "k_override", "lp_pivots", "lp_solves", "m_final", "m_input",
    "n_final", "n_input", "passes",
    "rule1_applications", "rule1_attempts", "rule2_applications", "rule2_attempts",
    "rule3_applications", "rule3_attempts", "rule4_applications", "rule4_attempts",
    "rule5_applications", "rule5_attempts", "rule5_noops",
    "rule6_applications", "rule6_attempts",
    "verdict", "vertex_bound", "wall_time_s",
]
_NO_RULES = {f"rule{r}_{kind}": 0 for r in range(1, 7) for kind in ("applications", "attempts")}
PINNED_REPORTS = {
    "showcase": {
        **_NO_RULES, "verdict": "yes", "d": 3, "n_input": 5, "m_input": 4, "k_input": 1,
        "k_override": False, "n_final": 0, "m_final": 0, "k_final": 0, "vertex_bound": 0,
        "rule1_applications": 4, "rule1_attempts": 5, "rule2_attempts": 1,
        "rule3_applications": 1, "rule3_attempts": 1,
        "rule5_noops": 0, "lp_solves": 0, "lp_pivots": 0, "passes": 5,
    },
    "blob": {
        **_NO_RULES, "verdict": "no", "d": 3, "n_input": 8, "m_input": 8, "k_input": 1,
        "k_override": False, "n_final": 8, "m_final": 8, "k_final": 1, "vertex_bound": 5,
        "rule1_attempts": 1, "rule2_attempts": 1, "rule3_attempts": 1, "rule4_attempts": 1,
        "rule5_applications": 1, "rule5_attempts": 1,
        "rule6_applications": 1, "rule6_attempts": 1,
        "rule5_noops": 1, "lp_solves": 1, "lp_pivots": 8, "passes": 2,
    },
    "petal": {
        **_NO_RULES, "verdict": "kernel", "d": 3, "n_input": 22, "m_input": 36, "k_input": 2,
        "k_override": False, "n_final": 4, "m_final": 4, "k_final": 2, "vertex_bound": 18,
        "rule1_attempts": 2, "rule2_attempts": 2, "rule3_attempts": 2, "rule4_attempts": 2,
        "rule5_applications": 2, "rule5_attempts": 2,
        "rule6_applications": 1, "rule6_attempts": 2,
        "rule5_noops": 2, "lp_solves": 1, "lp_pivots": 22, "passes": 3,
    },
    "showcase-k0": {
        **_NO_RULES, "verdict": "no", "d": 3, "n_input": 5, "m_input": 4, "k_input": 1,
        "k_override": True, "n_final": 5, "m_final": 4, "k_final": 0, "vertex_bound": 0,
        "rule5_noops": 0, "lp_solves": 0, "lp_pivots": 0, "passes": 0,
    },
}


class TestParse:
    def test_showcase_file(self):
        inst = parse_instance(SHOWCASE_TEXT)
        assert inst.n == 5 and inst.m == 4 and inst.d == 3 and inst.k == 1
        assert inst.edges == ((0, 1, 3), (0, 1, 4), (1, 2, 3), (1, 2, 4))

    def test_single_edge(self):
        inst = parse_instance("p hs 2 1 3 1\n1 2\n")
        assert inst.edges == ((0, 1),)

    def test_index_out_of_range_reports_line(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_instance("p hs 2 1 3 1\n1 3\n")

    def test_missing_header(self):
        with pytest.raises(FormatError, match="header"):
            parse_instance("1 2\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(FormatError, match="edge lines"):
            parse_instance("p hs 2 2 3 1\n1 2\n")

    def test_oversized_edge_reports_line(self):
        with pytest.raises(FormatError, match="line 3"):
            parse_instance("p hs 4 1 3 1\nc note\n1 2 3 4\n")

    def test_comments_preserved(self):
        inst = parse_instance("p hs 2 1 3 1\nc provenance here\n1 2\n")
        assert inst.comments == ("provenance here",)

    def test_byte_order_mark_is_dropped(self, tmp_path, capsys):
        plain = parse_instance(SHOWCASE_TEXT)
        marked = parse_instance("\ufeff" + SHOWCASE_TEXT)
        assert (marked, marked.labels, marked.comments) == (plain, plain.labels, plain.comments)
        runs = []
        for name, data in (("plain.hs", b""), ("marked.hs", b"\xef\xbb\xbf")):
            path = tmp_path / name
            path.write_bytes(data + SHOWCASE_TEXT.encode())
            runs.append((main(["solve", str(path)]), capsys.readouterr()))
        assert runs[0] == runs[1]
        assert runs[0][0] == 10

    @pytest.mark.parametrize(
        "text, expected", [case[1:] for case in PARSE_CASES], ids=[case[0] for case in PARSE_CASES]
    )
    def test_pinned_result(self, text, expected):
        if isinstance(expected[0], type):
            with pytest.raises(expected[0]) as caught:
                parse_instance(text)
            assert type(caught.value) is expected[0]
            assert str(caught.value) == expected[1]
        else:
            inst = parse_instance(text)
            assert (inst.n, inst.edges, inst.d, inst.k, inst.labels, inst.comments) == expected


class TestWrite:
    def test_showcase_kernel_serialization(self):
        kernel = normalize([["v1", "v2"], ["v2", "v3"]], 3, 1)
        assert write_instance(kernel) == "p hs 3 2 3 1\n1 2\n2 3\n"

    def test_empty_instance(self):
        inst = normalize([], 3, 0)
        assert write_instance(inst) == "p hs 0 0 3 0\n"

    def test_round_trip_on_generated_instances(self):
        rng = random.Random(55)
        for trial in range(100):
            spec = GenSpec(
                seed=trial, n=rng.randint(3, 15), m=rng.randint(1, 20), d=3, k=rng.randint(1, 4)
            )
            inst = generate(spec)
            text = write_instance(inst)
            again = parse_instance(text)
            assert (again.n, again.edges, again.d, again.k) == (
                inst.n,
                inst.edges,
                inst.d,
                inst.k,
            )
            assert write_instance(again) == text  # canonical and idempotent

    def test_empty_edge_is_refused(self):
        # A blank edge line would be skipped on reading, so it is not written.
        inst = normalize([[], ["a", "b"]], 3, 2)
        with pytest.raises(FormatError, match="empty edge"):
            write_instance(inst)

    @pytest.mark.parametrize("comment", ["note\n1 2", "note\rx"])
    def test_comment_with_a_line_break_is_refused(self, comment):
        # Each part would read back as a line of its own.
        inst = Instance(Hypergraph(2, ((0, 1),), 3), 1, comments=(comment,))
        with pytest.raises(FormatError, match="line break"):
            write_instance(inst)

    @pytest.mark.parametrize("comment", [" padded ", "padded ", "\tpadded", "\u2028"])
    def test_padded_comment_is_refused(self, comment):
        # Reading strips the line, so the comment would come back trimmed.
        inst = Instance(Hypergraph(2, ((0, 1),), 3), 1, comments=(comment,))
        with pytest.raises(FormatError, match="outer whitespace"):
            write_instance(inst)

    def test_comments_round_trip(self):
        # Only CR and LF end a line: the other line separators stay inside.
        comments = (
            "gen seed=1 n=2", "", "tab\there", "ünïcode · note",
            "note\u2028x", "sep\u2029para", "next\x85line", "form\ffeed", "v\vtab",
        )
        inst = Instance(Hypergraph(2, ((0, 1),), 3), 1, comments=comments)
        assert parse_instance(write_instance(inst)).comments == comments


class TestKernelizeCommand:
    def test_kernel_goes_to_stdout_with_exit_zero(self, tmp_path, capsys):
        # All triples of four vertices at budget 2: no rule applies, so the
        # instance is its own kernel and must be emitted verbatim.
        path = tmp_path / "in.hs"
        path.write_text("p hs 4 4 3 2\n1 2 3\n1 2 4\n1 3 4\n2 3 4\n")
        code = main(["kernelize", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert out == "p hs 4 4 3 2\n1 2 3\n1 2 4\n1 3 4\n2 3 4\n"

    def test_yes_verdict_exit_ten_no_stdout(self, tmp_path, capsys):
        path = tmp_path / "in.hs"
        path.write_text(SHOWCASE_TEXT)
        code = main(["kernelize", str(path)])
        captured = capsys.readouterr()
        assert code == 10
        assert captured.out == ""

    def test_no_verdict_exit_twenty(self, tmp_path, capsys):
        path = tmp_path / "in.hs"
        path.write_text("p hs 6 3 3 1\n1 2\n3 4\n5 6\n")
        code = main(["kernelize", str(path)])
        assert code == 20
        assert capsys.readouterr().out == ""

    def test_report_json_flat_and_complete(self, tmp_path, capsys):
        path = tmp_path / "in.hs"
        report = tmp_path / "report.json"
        path.write_text(SHOWCASE_TEXT)
        code = main(["kernelize", str(path), "--report-json", str(report)])
        capsys.readouterr()
        data = json.loads(report.read_text())
        assert code == 10
        assert data["verdict"] == "yes"
        assert data["n_input"] == 5 and data["m_input"] == 4
        assert data["k_override"] is False
        assert all(f"rule{r}_applications" in data for r in range(1, 7))
        assert data["wall_time_s"] >= 0
        assert all(not isinstance(v, (dict, list)) for v in data.values())

    @pytest.mark.parametrize("case", sorted(PINNED_REPORTS))
    def test_report_json_pinned(self, tmp_path, capsys, case):
        from helpers import blob_instance, petal_cycle_instance

        text, extra, exit_code = {
            "showcase": (SHOWCASE_TEXT, [], 10),
            "blob": (write_instance(blob_instance(1, 1)), [], 20),
            "petal": (write_instance(petal_cycle_instance(11, 2)), [], 0),
            "showcase-k0": (SHOWCASE_TEXT, ["--k", "0"], 20),
        }[case]
        path = tmp_path / "in.hs"
        report = tmp_path / "report.json"
        path.write_text(text)
        code = main(["kernelize", str(path), "--report-json", str(report), *extra])
        capsys.readouterr()
        assert code == exit_code
        data = json.loads(report.read_text())
        assert sorted(data) == REPORT_KEYS
        assert data.pop("wall_time_s") >= 0
        assert data == PINNED_REPORTS[case]

    def test_report_counts_rule5_noops(self, tmp_path, capsys):
        from helpers import blob_instance

        path = tmp_path / "in.hs"
        report = tmp_path / "report.json"
        path.write_text(write_instance(blob_instance(1, 1)))
        code = main(["kernelize", str(path), "--report-json", str(report)])
        capsys.readouterr()
        data = json.loads(report.read_text())
        assert code == 20
        assert data["rule5_noops"] == 1
        assert data["rule5_applications"] >= data["rule5_noops"]

    def test_report_counts_rule_attempts(self, tmp_path, capsys):
        from helpers import blob_instance

        path = tmp_path / "in.hs"
        report = tmp_path / "report.json"
        path.write_text(write_instance(blob_instance(1, 1)))
        code = main(["kernelize", str(path), "--report-json", str(report)])
        capsys.readouterr()
        data = json.loads(report.read_text())
        assert code == 20
        # Rules 1-5 run once; after the rule-5 no-op the next pass is rule 6.
        assert [data[f"rule{r}_attempts"] for r in range(1, 7)] == [1] * 6

    def test_report_and_trace_count_lp_pivots_without_crown(self, tmp_path, capsys):
        from helpers import blob_instance

        path = tmp_path / "in.hs"
        report = tmp_path / "report.json"
        path.write_text(write_instance(blob_instance(1, 1)))
        code = main(["kernelize", str(path), "--trace", "--report-json", str(report)])
        err = capsys.readouterr().err.splitlines()
        data = json.loads(report.read_text())
        assert code == 20
        # Two blobs of four triples, no cap rows: the LP keeps eight rows.
        assert data["lp_solves"] == 1 and data["lp_pivots"] > 0
        lp_line = f"  lp: 8 rows, {data['lp_pivots']} pivots"
        assert err[err.index("rule6: concluded no") + 1] == lp_line

    def test_report_and_trace_count_lp_pivots_with_crown(self, tmp_path, capsys):
        from helpers import petal_cycle_instance

        inst = petal_cycle_instance(11, 2)
        path = tmp_path / "in.hs"
        report = tmp_path / "report.json"
        path.write_text(write_instance(inst))
        code = main(["kernelize", str(path), "--trace", "--report-json", str(report)])
        err = capsys.readouterr().err.splitlines()
        data = json.loads(report.read_text())
        assert code == 0
        assert data["lp_solves"] == data["rule6_applications"] >= 1
        lp_lines = [err[i + 1] for i, line in enumerate(err) if line.startswith("rule6: ")]
        assert len(lp_lines) == data["lp_solves"]
        parsed = [re.fullmatch(r"  lp: (\d+) rows, (\d+) pivots", line) for line in lp_lines]
        assert all(parsed)
        assert int(parsed[0][1]) == inst.m  # every edge is a triple: one row each
        assert sum(int(match[2]) for match in parsed) == data["lp_pivots"] > 0

    def test_report_json_writes_a_vertex_bound_past_the_digit_limit(self, tmp_path, capsys):
        # The final bound (2d-2)*k**(d-1) + k has 4393 digits here, above
        # the interpreter's default int-to-str limit of 4300.
        path = tmp_path / "in.hs"
        report = tmp_path / "report.json"
        path.write_text("p hs 3 1 2200 100\n1 2 3\n")
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)
        before = limit()
        code = main(["kernelize", str(path), "--report-json", str(report)])
        assert capsys.readouterr().err == "decided yes\n"
        assert code == 10
        assert limit() == before
        # Decimal parses the digits without the int-from-str limit. The bound
        # is the final instance's: rule 3 spent one unit of the budget.
        data = json.loads(report.read_text(), parse_int=Decimal)
        assert data["k_final"] == 99
        assert int(data["vertex_bound"]) == vertex_bound(2200, 99)

    def test_k_override_recorded(self, tmp_path, capsys):
        path = tmp_path / "in.hs"
        report = tmp_path / "report.json"
        path.write_text(SHOWCASE_TEXT)
        code = main(["kernelize", str(path), "--k", "0", "--report-json", str(report)])
        capsys.readouterr()
        data = json.loads(report.read_text())
        assert code == 20  # k=0 with edges present is an immediate no
        assert data["k_override"] is True
        assert data["k_input"] == 1

    def test_trace_goes_to_stderr(self, tmp_path, capsys):
        path = tmp_path / "in.hs"
        path.write_text(SHOWCASE_TEXT)
        main(["kernelize", str(path), "--trace"])
        captured = capsys.readouterr()
        assert "rule1" in captured.err

    def test_dump_lp_emits_model(self, tmp_path, capsys, monkeypatch):
        from helpers import blob_instance

        path = tmp_path / "in.hs"
        path.write_text(write_instance(blob_instance(1, 1)))
        code = main(["kernelize", str(path), "--dump-lp"])
        captured = capsys.readouterr()
        assert code == 20
        assert "minimize" in captured.err

    def test_trace_shows_the_rule6_verdict_no(self, tmp_path, capsys):
        from helpers import blob_instance

        path = tmp_path / "in.hs"
        path.write_text(write_instance(blob_instance(1, 1)))
        code = main(["kernelize", str(path), "--trace"])
        err = capsys.readouterr().err
        rule_lines = [line for line in err.splitlines() if line.startswith("rule")]
        assert code == 20
        assert rule_lines[-2:] == ["rule5: -0 vertices, -0/+0 edges, k+0", "rule6: concluded no"]

    def test_format_error_exit_one(self, tmp_path, capsys):
        path = tmp_path / "in.hs"
        path.write_text("p hs 2 1 3 1\n1 9\n")
        assert main(["kernelize", str(path)]) == 1

    def test_missing_file_exit_one(self, capsys):
        assert main(["kernelize", "/nonexistent/path.hs"]) == 1

    def test_usage_error_exit_one(self, capsys):
        assert main(["kernelize", "--bogus-flag"]) == 1

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(SHOWCASE_TEXT))
        assert main(["kernelize"]) == 10

    @pytest.mark.parametrize("error", [RecursionError, MemoryError])
    def test_resource_exhaustion_exit_two(self, tmp_path, capsys, monkeypatch, error):
        def exhausted(inst, observer=None):
            raise error("exhausted")

        monkeypatch.setattr("hskernel.cli.kernelize", exhausted)
        path = tmp_path / "in.hs"
        path.write_text(SHOWCASE_TEXT)
        code = main(["kernelize", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"internal error: {error.__name__}")


class TestSolveCommand:
    def test_yes(self, tmp_path, capsys):
        path = tmp_path / "in.hs"
        path.write_text(SHOWCASE_TEXT)
        assert main(["solve", str(path)]) == 10
        assert capsys.readouterr().out.strip() == "yes"

    def test_no(self, tmp_path, capsys):
        path = tmp_path / "in.hs"
        path.write_text("p hs 4 2 3 1\n1 2\n3 4\n")
        assert main(["solve", str(path)]) == 20
        assert capsys.readouterr().out.strip() == "no"

    def test_ceiling_violation_is_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("HSK_ORACLE_CEILING", "3")
        path = tmp_path / "in.hs"
        path.write_text(SHOWCASE_TEXT)
        assert main(["solve", str(path)]) == 1

    @pytest.mark.parametrize("value", ["abc", ""])
    def test_non_integer_ceiling_names_the_variable(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("HSK_ORACLE_CEILING", value)
        path = tmp_path / "in.hs"
        path.write_text(SHOWCASE_TEXT)
        assert main(["solve", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: HSK_ORACLE_CEILING={value!r} is not an integer\n"


class TestGenCommand:
    def test_deterministic_output(self, capsys):
        args = ["gen", "--seed", "1", "--n", "10", "--m", "15", "--d", "3", "--k", "2"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        assert first.startswith("p hs 10")

    def test_gen_pipes_into_solve(self, capsys, monkeypatch):
        import io

        args = [
            "gen", "--seed", "1", "--n", "10", "--m", "15", "--d", "3", "--k", "2",
            "--plant", "2",
        ]
        main(args)
        text = capsys.readouterr().out
        answers = []
        for _ in range(2):
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            code = main(["solve"])
            answers.append((code, capsys.readouterr().out))
        assert answers[0] == answers[1]
        assert answers[0][0] == 10  # planted instances are yes-instances


class TestVerifyCommand:
    def test_full_run_agrees(self, capsys):
        code = main(
            ["verify", "--trials", "500", "--seed", "7", "--n", "16", "--d", "3", "--kmax", "4"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "500/500 agree" in captured.out

    def test_trials_above_the_oracle_ceiling_are_skipped(self, capsys):
        code = main(
            ["verify", "--trials", "50", "--seed", "3", "--n", "30", "--d", "3", "--kmax", "3"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == "44/50 agree, 6 skipped above the oracle ceiling\n"

    def test_every_trial_skipped_is_an_error(self, capsys, monkeypatch):
        monkeypatch.setenv("HSK_ORACLE_CEILING", "3")  # every trial has n >= 4
        code = main(
            ["verify", "--trials", "5", "--seed", "3", "--n", "8", "--d", "3", "--kmax", "3"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == "0/5 agree, 5 skipped above the oracle ceiling\n"

    @pytest.mark.parametrize(
        "flag, value",
        [("--trials", "-5"), ("--trials", "0"), ("--kmax", "0"), ("--n", "3")],
    )
    def test_out_of_range_argument_is_usage_error(self, capsys, flag, value):
        args = {"--trials": "5", "--seed": "1", "--n": "16", "--d": "3", "--kmax": "4"}
        args[flag] = value
        code = main(["verify", *(token for pair in args.items() for token in pair)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(f"usage error: {flag} must be at least")

    def test_disagreement_prints_the_trace_and_exits_two(self, capsys, monkeypatch):
        real = cli.kernelize

        def flipped(inst, observer=None):
            result = real(inst, observer)
            if result.verdict == "kernel":
                return result
            wrong = "no" if result.verdict == "yes" else "yes"
            return ReduceResult(wrong, result.instance, result.trace)

        monkeypatch.setattr(cli, "kernelize", flipped)
        code = main(
            ["verify", "--trials", "1", "--seed", "2", "--n", "8", "--d", "3", "--kmax", "2"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "0/1 agree\n"
        spec = "GenSpec(seed=1559521054175740196, n=4, m=2, d=3, k=1, planted=None)"
        steps = [
            "rule1: -1 vertices, -1/+1 edges, k+0",
            "rule1: -1 vertices, -1/+1 edges, k+0",
            "rule1: -1 vertices, -1/+0 edges, k+0",
            "rule3: -1 vertices, -1/+0 edges, k-1",
        ]
        assert captured.err == (
            f"DISAGREE seed=1559521054175740196 spec={spec} kernelizer=verdict no "
            f"ORACLE yes trace[{'; '.join(steps)}]\n"
        )


def test_console_script_entry_exits_with_mains_code(tmp_path, capsys, monkeypatch):
    # entry() is the target of the installed `hskernel` script.
    path = tmp_path / "in.hs"
    path.write_text(SHOWCASE_TEXT)
    monkeypatch.setattr(sys, "argv", ["hskernel", "solve", str(path)])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert capsys.readouterr().out == "yes\n"
    assert exc.value.code == 10


def test_module_entry_point_runs_commands():
    # Runs `python -m hskernel.cli`, which needs the module's __main__ guard.
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    args = ["verify", "--trials", "1", "--seed", "1", "--n", "8", "--d", "2", "--kmax", "2"]
    done = subprocess.run(
        [sys.executable, "-m", "hskernel.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 1
    assert done.stdout == ""
    assert "error: d=2 unsupported" in done.stderr
