import json
import sys

import click
import pytest
from click.testing import CliRunner

from mvvand.cli import cli, main
from mvvand.errors import BadRingError, ShapeError
from mvvand.matrix import ExactMatrix, dumps_doc, seeded_rng
from mvvand.rings import ZZ

WORKED_DOC = {"ring": "int", "rows": [["1", "0"], ["0", "1"], ["1", "1"]]}
SQUARE_DOC = {"ring": "int", "rows": [["2", "1"], ["1", "3"]]}
COLLINEAR_DOC = {
    "ring": "int",
    "rows": [["1", "0", "0"], ["0", "1", "0"], ["1", "1", "0"], ["0", "0", "1"]],
}


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def worked_file(tmp_path):
    path = tmp_path / "worked.json"
    path.write_text(json.dumps(WORKED_DOC))
    return str(path)


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps(SQUARE_DOC))
    return str(path)


def run_json(runner, args):
    result = runner.invoke(cli, args, standalone_mode=False, catch_exceptions=False)
    return result, json.loads(result.output) if result.output else None


class TestConstructors:
    def test_basis(self, runner):
        result, doc = run_json(runner, ["basis", "--n", "1", "--d", "2"])
        assert doc["exponents"] == [[2, 0], [1, 1], [0, 2]]

    def test_basis_many_variables(self, runner):
        # the enumerator used to recurse once per variable
        result, doc = run_json(runner, ["basis", "--n", "1200", "--d", "1"])
        assert result.exit_code == 0
        assert len(doc["exponents"]) == 1201

    def test_mu(self, runner, worked_file):
        result, doc = run_json(runner, ["mu", "--input", worked_file])
        assert doc["rows"] == [["1", "1"], ["1", "0"], ["0", "1"]]

    def test_eta_degree_one_echoes(self, runner, tmp_path):
        path = tmp_path / "sq.json"
        path.write_text(dumps_doc(ExactMatrix.from_rows(ZZ, [[1, 2], [3, 4]]).to_doc()))
        result, doc = run_json(runner, ["eta", "--input", str(path)])
        assert doc["rows"] == [["1", "2"], ["3", "4"]]

    def test_veronese(self, runner, worked_file):
        result, doc = run_json(
            runner, ["veronese", "--input", worked_file, "--d", "2"]
        )
        assert doc["rows"][0] == ["1", "0", "0"]

    def test_sym(self, runner, tmp_path):
        path = tmp_path / "u.json"
        path.write_text(dumps_doc(ExactMatrix.from_rows(ZZ, [[2, 0], [0, 3]]).to_doc()))
        result, doc = run_json(runner, ["sym", "--input", str(path), "--d", "2"])
        assert doc["rows"] == [["4", "0", "0"], ["0", "6", "0"], ["0", "0", "9"]]

    def test_output_file(self, runner, tmp_path):
        out = tmp_path / "basis.json"
        runner.invoke(
            cli,
            ["basis", "--n", "2", "--d", "1", "--output", str(out)],
            standalone_mode=False,
        )
        assert json.loads(out.read_text())["exponents"] == [
            [1, 0, 0],
            [0, 1, 0],
            [0, 0, 1],
        ]


# the run kinds of verify, each accepted as it stands
RUN_KINDS = {
    "numeric": ["verify", "hdv", "--n", "1", "--d", "1"],
    "symbolic": ["verify", "lemma", "--n", "1", "--d", "1", "--symbolic"],
    "input": ["verify", "lemma", "--input", "{worked}"],
    "sym-input": ["verify", "sym", "--input", "{square}", "--d", "2"],
    "naive": ["verify", "naive", "--n", "2", "--d", "2"],
}
# whether each run kind, in the order above, reads a flag: R read, . not read
SCOPE = {
    "--n 1":                    "R R . . R",
    "--d 1":                    "R R . R R",
    "--ring int":               "R . . . .",
    "--ring mod_p --modulus 7": "R . . . .",
    "--seed 3":                 "R . . . R",
    "--symbolic":               "R R . . .",
    "--symbolic-cap 5":         ". R . . .",
    "--alpha 3":                ". R R . .",
    "--src-col 0":              ". R R . .",
    "--dst-col 1":              ". R R . .",
    "--output {out}":           "R R R R R",
}
RING_FLAGS = {"--ring int", "--ring mod_p --modulus 7", "--symbolic"}


class TestVerify:
    def test_hdv_on_worked_file(self, runner, worked_file):
        result = runner.invoke(cli, ["verify", "hdv", "--input", worked_file])
        doc = json.loads(result.output)
        assert doc["lhs"] == doc["rhs"] == "-1"
        assert result.exit_code == 0

    def test_hdv_symbolic(self, runner):
        result = runner.invoke(
            cli, ["verify", "hdv", "--n", "2", "--d", "2", "--symbolic"]
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["verdict"] == "equal"

    def test_naive_expected_unequal(self, runner):
        result = runner.invoke(
            cli, ["verify", "naive", "--n", "2", "--d", "2", "--seed", "1"]
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["verdict"] == "unequal"

    @pytest.mark.parametrize("n,d", [(2, 0), (2, 1), (3, 1)])
    def test_naive_low_degree_expected_equal(self, runner, n, d):
        # nu^1 X = X, so mu' X = det X; at d = 0 both sides are one.  These
        # used to expect "unequal" (exit 1), and (2,0) was a shape error
        result = runner.invoke(cli, ["verify", "naive", "--n", str(n), "--d", str(d)])
        doc = json.loads(result.output)
        assert doc["verdict"] == doc["expected"] == "equal"
        assert result.exit_code == 0

    def test_naive_document_is_unchanged(self, runner):
        # the seed travels in the report's detail; the document keeps its
        # keys sorted, so it reads as when the seed was a field of its own
        result = runner.invoke(cli, ["verify", "naive", "--n", "2", "--d", "2", "--seed", "5"])
        assert result.exit_code == 0
        assert result.output == (
            '{\n  "d": 2,\n  "expected": "unequal",\n  "identity": "naive",\n'
            '  "lhs": "20182365560",\n  "n": 2,\n'
            '  "rhs": "5545154276095105711515244292026427821562265600000",\n'
            '  "ring": "int",\n  "seed": 5,\n  "verdict": "unequal"\n}\n'
        )

    def test_dual_reports_sign(self, runner, worked_file):
        result = runner.invoke(cli, ["verify", "dual", "--input", worked_file])
        doc = json.loads(result.output)
        assert doc["sign"] == 1
        assert result.exit_code == 0

    def test_lemma_and_sym_and_abstract(self, runner):
        for identity in ("lemma", "sym", "abstract"):
            result = runner.invoke(
                cli,
                ["verify", identity, "--n", "2", "--d", "2", "--seed", "5"],
            )
            assert result.exit_code == 0, (identity, result.output)

    @pytest.mark.parametrize(
        "args,expect",
        [
            pytest.param(
                ["verify", "hdv", "--input", "{worked}"],
                {"identity": "hdv", "n": 1, "d": 2, "ring": "int", "lhs": "-1", "rhs": "-1",
                 "verdict": "equal", "expected": "equal"},
                id="hdv",
            ),
            pytest.param(
                ["verify", "dual", "--input", "{worked}"],
                {"identity": "dual", "n": 1, "d": 2, "ring": "int", "lhs": "-1", "rhs": "-1",
                 "verdict": "equal-up-to-sign", "expected": "equal-up-to-sign", "sign": 1},
                id="dual",
            ),
            pytest.param(
                ["verify", "lemma", "--input", "{worked}"],
                {"identity": "lemma", "n": 1, "d": 2, "ring": "int", "lhs": "-8", "rhs": "-8",
                 "verdict": "equal", "expected": "equal", "alpha": "2", "src": 0, "dst": 1},
                id="lemma",
            ),
            pytest.param(
                ["verify", "abstract", "--input", "{worked}"],
                {"identity": "abstract", "n": 1, "d": 2, "ring": "int", "lhs": "-1", "rhs": "1",
                 "verdict": "equal-up-to-sign", "expected": "equal-up-to-sign", "sign": -1,
                 "diagonal": True},
                id="abstract",
            ),
            pytest.param(
                ["verify", "sym", "--input", "{square}", "--d", "2"],
                {"identity": "sym", "n": 2, "d": 2, "ring": "int", "lhs": "125", "rhs": "125",
                 "verdict": "equal", "expected": "equal"},
                id="sym",
            ),
            pytest.param(
                ["verify", "naive", "--n", "2", "--d", "1"],
                {"identity": "naive", "n": 2, "d": 1, "ring": "int", "lhs": "-96", "rhs": "-96",
                 "verdict": "equal", "expected": "equal", "seed": 0},
                id="naive",
            ),
        ],
    )
    def test_full_document(self, runner, worked_file, square_file, args, expect):
        args = [a.format(worked=worked_file, square=square_file) for a in args]
        result = runner.invoke(cli, args)
        assert json.loads(result.output) == expect
        assert result.exit_code == 0

    def test_symbolic_cap(self, runner):
        result = runner.invoke(
            cli,
            ["verify", "hdv", "--n", "3", "--d", "3", "--symbolic"],
            standalone_mode=False,
        )
        assert result.exception is not None  # order 20 exceeds the default cap

    def test_mod_p_ring(self, runner):
        result = runner.invoke(
            cli,
            ["verify", "hdv", "--n", "2", "--d", "3", "--ring", "mod_p", "--seed", "7"],
        )
        assert result.exit_code == 0

    def test_symbolic_output_bytes(self):
        # formal (1,6): both sides have 5,040 terms in 14 variables
        import hashlib, subprocess, sys

        proc = subprocess.run(
            [sys.executable, "-m", "mvvand.cli", "verify", "hdv", "--n", "1", "--d", "6", "--symbolic"],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert hashlib.sha256(proc.stdout).hexdigest() == (
            "7ed3ac2d5a5e7068f970bca7d49f1531a5017a63bcf80213e2cb7dfe3fa5a669"
        )

    @pytest.mark.parametrize("flag", SCOPE)
    @pytest.mark.parametrize("kind", RUN_KINDS)
    def test_scope_table(self, runner, worked_file, square_file, tmp_path, kind, flag):
        out = str(tmp_path / "out.json")
        args = [
            a.format(worked=worked_file, square=square_file, out=out)
            for a in RUN_KINDS[kind] + flag.split()
        ]
        result = runner.invoke(cli, args)
        if SCOPE[flag].split()[list(RUN_KINDS).index(kind)] == "R":
            assert result.exit_code == 0, (result.output, result.exception)
        else:
            error = BadRingError if flag in RING_FLAGS else ShapeError
            assert type(result.exception) is error

    def test_deterministic_output(self, runner):
        args = ["verify", "hdv", "--n", "2", "--d", "2", "--seed", "9"]
        first = runner.invoke(cli, args).output
        second = runner.invoke(cli, args).output
        assert first == second


class TestGenposAndBench:
    def test_genpos_collinear(self, runner, tmp_path):
        path = tmp_path / "pts.json"
        path.write_text(json.dumps(COLLINEAR_DOC))
        result, doc = run_json(runner, ["genpos", "--input", str(path)])
        assert doc["verdict"] is False
        assert doc["witness"] == [0, 1, 2]

    def test_genpos_eta_method(self, runner, tmp_path):
        path = tmp_path / "pts.json"
        path.write_text(json.dumps(COLLINEAR_DOC))
        result, doc = run_json(
            runner, ["genpos", "--input", str(path), "--method", "eta"]
        )
        assert doc["verdict"] is False and doc["method"] == "eta"


def run_main(args, timeout=None):
    import subprocess, sys

    return subprocess.run(
        [sys.executable, "-m", "mvvand.cli", *args], capture_output=True, text=True,
        timeout=timeout,
    )


NINES = "9" * 3000


class TestErrors:
    @pytest.mark.parametrize(
        "text,code",
        [
            ('{"ring": "int", "rows": [[1, 2', "parse-error"),  # malformed JSON
            ('[["1", "0"], ["0", "1"]]', "parse-error"),  # top-level list
            ('{"ring": "int", "rows": [1, 2]}', "shape-error"),  # rows not lists
            ('{"ring": "poly", "variables": 5, "rows": [["1"]]}', "parse-error"),
            ('{"ring": "poly", "variables": [1], "rows": [["1"]]}', "bad-ring"),
            # int() used to truncate these to Z/7 and Z/1
            ('{"ring": "mod_p", "modulus": 7.5, "rows": [["1", "0"], ["0", "1"]]}', "parse-error"),
            ('{"ring": "mod_p", "modulus": true, "rows": [["1", "0"], ["0", "1"]]}', "parse-error"),
            # int() took underscores, which polynomial text refuses; mu ran
            pytest.param(
                '{"ring": "int", "rows": [["1_0", "0"], ["0", "1"], ["1", "1"]]}',
                "parse-error",
                id="int-entry-1_0",
            ),
            pytest.param(
                '{"ring": "mod_p", "modulus": "7", "rows": [["1_0", "0"], ["0", "1"], ["1", "1"]]}',
                "parse-error",
                id="mod-p-entry-1_0",
            ),
            pytest.param(
                '{"ring": "mod_p", "modulus": "1_000_003", "rows": [["1", "0"], ["0", "1"], ["1", "1"]]}',
                "parse-error",
                id="modulus-1_000_003",
            ),
            # the JSON reader raised RecursionError
            pytest.param("[" * 200_000 + "]" * 200_000, "parse-error", id="nested-200000-deep"),
            # the primality bound's message once held all 5,000 digits
            pytest.param(
                json.dumps({"ring": "mod_p", "modulus": "7" * 5000, "rows": [["1"]]}),
                "bad-ring",
                id="modulus-5000-digits",
            ),
            # each of these once echoed the whole of its long text or list
            pytest.param(
                json.dumps({"ring": "int", "rows": [["a" * 100_000]]}),
                "parse-error",
                id="int-entry-100000-letters",
            ),
            pytest.param(
                json.dumps({"ring": "poly", "variables": ["x"], "rows": [["x + " + "y" * 100_000]]}),
                "parse-error",
                id="unknown-variable-100000-characters",
            ),
            pytest.param(
                json.dumps({"ring": "poly", "variables": ["!" * 100_000], "rows": [["1"]]}),
                "bad-ring",
                id="variable-name-100000-bangs",
            ),
            pytest.param(
                json.dumps({"ring": "poly", "variables": ["x" * 100_000] * 2, "rows": [["1"]]}),
                "bad-ring",
                id="duplicate-variable-100000-characters",
            ),
            pytest.param(
                json.dumps({"ring": "r" * 100_000, "rows": [["1"]]}),
                "parse-error",
                id="ring-kind-100000-characters",
            ),
            pytest.param(
                json.dumps({"ring": "mod_p", "modulus": list(range(50_000)), "rows": [["1"]]}),
                "parse-error",
                id="modulus-list-50000-items",
            ),
            pytest.param(
                json.dumps({"ring": "mod_p", "modulus": "-" + "7" * 100_000, "rows": [["1"]]}),
                "bad-ring",
                id="negative-modulus-100000-digits",
            ),
            pytest.param(
                json.dumps({"ring": "int", "rows": [[list(range(30_000))]]}),
                "parse-error",
                id="list-as-entry-30000-items",
            ),
        ],
    )
    def test_malformed_file(self, tmp_path, text, code):
        path = tmp_path / "bad.json"
        path.write_text(text)
        proc = run_main(["mu", "--input", str(path)])
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error:{code}:")
        assert len(proc.stderr.splitlines()) == 1
        assert len(proc.stderr) < 200, proc.stderr[:200]

    def test_results_past_the_digit_limit_are_written(self, tmp_path):
        # main() lifts the interpreter's 4,300-digit limit on integer text:
        # the square of a 2,200-digit entry once ended in a traceback, exit 1
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"ring": "int", "rows": [["9" * 2200, "1"]]}))
        proc = run_main(["veronese", "--input", str(path), "--d", "2"])
        assert proc.returncode == 0, proc.stderr
        # (10^2200 - 1)^2, written out without int-to-text conversion
        square = "9" * 2199 + "8" + "0" * 2199 + "1"
        assert square in json.loads(proc.stdout)["rows"][0]

    @pytest.mark.parametrize(
        "entry,code",
        [("7" * 5000 + "*x", 0), ("x^" + "7" * 5000, 2)],
        ids=["coefficient", "exponent"],
    )
    def test_long_numbers_in_polynomial_text(self, tmp_path, entry, code):
        path = tmp_path / "poly.json"
        doc = {"ring": "poly", "variables": ["x"], "rows": [[entry, "0"], ["0", "1"], ["1", "1"]]}
        path.write_text(json.dumps(doc))
        proc = run_main(["mu", "--input", str(path)])
        assert proc.returncode == code, proc.stderr
        if code:
            assert proc.stderr.startswith("error:exponent-overflow:")

    def test_lemma_same_column_is_usage_error(self):
        proc = run_main(
            ["verify", "lemma", "--n", "2", "--d", "2", "--src-col", "1", "--dst-col", "1"]
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:bad-index:")

    @pytest.mark.parametrize(
        "args",
        [
            ["verify", "hdv", "--n", "1", "--d", "1", "--ring", "mod_p", "--modulus", "0"],
            ["verify", "hdv", "--n", "1", "--d", "1", "--ring", "int", "--modulus", "7"],
            ["verify", "hdv", "--n", "1", "--d", "1", "--symbolic", "--modulus", "7"],
            ["verify", "hdv", "--input", "{worked}", "--modulus", "7"],
            ["verify", "naive", "--n", "2", "--d", "1", "--modulus", "7"],
            ["verify", "hdv", "--input", "{worked}", "--ring", "mod_p"],
            ["verify", "hdv", "--input", "{worked}", "--ring", "int"],
            ["verify", "hdv", "--input", "{worked}", "--symbolic"],
            ["verify", "naive", "--n", "2", "--d", "1", "--ring", "mod_p"],
            ["verify", "naive", "--n", "2", "--d", "1", "--symbolic"],
            ["verify", "hdv", "--n", "1", "--d", "1", "--symbolic", "--ring", "int"],
        ],
    )
    def test_modulus_misuse_is_bad_ring(self, worked_file, args):
        # --modulus 0 used to run over the default prime, and a modulus, ring
        # or --symbolic that the input file or naive demo does not use used to
        # be ignored
        proc = run_main([a.format(worked=worked_file) for a in args])
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:bad-ring:")
        assert len(proc.stderr.splitlines()) == 1

    @pytest.mark.parametrize(
        "args,error,option",
        [
            # det() picks its kernel by ring; the verifiers take no algorithm
            pytest.param(
                ["verify", "hdv", "--n", "2", "--d", "2", "--algorithm", "bareiss"],
                "No such option", "--algorithm",
                id="algorithm",
            ),
            # the shape of the input fixes d
            pytest.param(
                ["eta", "--input", "{worked}", "--d", "2"],
                "No such option", "--d",
                id="eta-d",
            ),
            # --symbolic alone asks for Z[x]
            pytest.param(
                ["verify", "hdv", "--n", "1", "--d", "1", "--symbolic", "--ring", "poly"],
                "Invalid value", "--ring",
                id="ring-poly",
            ),
            # the benchmark harness times both general-position routes
            pytest.param(["bench", "--n", "2", "--d", "2"], "No such command", "bench", id="bench"),
        ],
    )
    def test_removed_option_is_usage_error(self, worked_file, args, error, option):
        proc = run_main([a.format(worked=worked_file) for a in args])
        assert proc.returncode == 2
        assert error in proc.stderr and option in proc.stderr

    @pytest.mark.parametrize(
        "args",
        [
            # each used to be ignored: the report took its shape from the
            # file, or naive built its own matrix
            pytest.param(["verify", "hdv", "--input", "{worked}", "--n", "3", "--d", "3"], id="hdv-n-d"),
            pytest.param(["verify", "hdv", "--input", "{worked}", "--n", "1"], id="hdv-n"),
            pytest.param(["verify", "dual", "--input", "{worked}", "--d", "2"], id="dual-d"),
            pytest.param(["verify", "lemma", "--input", "{worked}", "--d", "3"], id="lemma-d"),
            pytest.param(["verify", "abstract", "--input", "{worked}", "--n", "1"], id="abstract-n"),
            # for sym, --d is the power and --n is the only shape flag
            pytest.param(["verify", "sym", "--input", "{square}", "--n", "2", "--d", "2"], id="sym-n"),
            pytest.param(["verify", "naive", "--input", "{worked}", "--n", "2", "--d", "2"], id="naive-input"),
        ],
    )
    def test_shape_flag_with_input_is_shape_error(self, worked_file, square_file, args):
        proc = run_main([a.format(worked=worked_file, square=square_file) for a in args])
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:shape-error:")
        assert len(proc.stderr.splitlines()) == 1

    @pytest.mark.parametrize(
        "args",
        [
            # each used to be ignored: the run read no seed, column or cap
            pytest.param(["verify", "hdv", "--input", "{worked}", "--seed", "5"], id="input-seed"),
            pytest.param(["verify", "hdv", "--n", "1", "--d", "1", "--symbolic", "--seed", "0"], id="symbolic-seed"),
            pytest.param(["verify", "dual", "--input", "{worked}", "--alpha", "7"], id="dual-alpha"),
            pytest.param(["verify", "hdv", "--n", "1", "--d", "1", "--src-col", "1"], id="hdv-src-col"),
            pytest.param(["verify", "abstract", "--input", "{worked}", "--dst-col", "0"], id="abstract-dst-col"),
            pytest.param(["verify", "naive", "--n", "2", "--d", "2", "--alpha", "3"], id="naive-alpha"),
            pytest.param(["verify", "hdv", "--n", "1", "--d", "1", "--symbolic-cap", "1"], id="cap-numeric"),
            pytest.param(["verify", "lemma", "--input", "{worked}", "--symbolic-cap", "50"], id="cap-input"),
        ],
    )
    def test_unused_option_is_shape_error(self, worked_file, args):
        proc = run_main([a.format(worked=worked_file) for a in args])
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:shape-error:")
        assert len(proc.stderr.splitlines()) == 1

    @pytest.mark.parametrize(
        "args,code",
        [
            # a given option the run does not read comes first; --n and --d
            # used to be asked for before --modulus was refused
            pytest.param(["verify", "hdv", "--modulus", "7"], "bad-ring", id="unread-then-missing"),
            pytest.param(
                ["verify", "hdv", "--n", "0", "--d", "1", "--ring", "int", "--modulus", "7"],
                "bad-ring",
                id="unread-then-range",
            ),
            # then missing values, then values out of range
            pytest.param(
                ["verify", "lemma", "--n", "1", "--src-col", "1"], "shape-error", id="missing-then-range"
            ),
            pytest.param(
                ["verify", "hdv", "--n", "1", "--d", "1", "--symbolic", "--symbolic-cap", "1",
                 "--seed", "3"],
                "shape-error",
                id="unread-seed-then-cap",
            ),
            pytest.param(
                ["verify", "lemma", "--n", "1", "--d", "1", "--ring", "mod_p", "--modulus", "8",
                 "--symbolic-cap", "5"],
                "shape-error",
                id="unread-cap-then-composite",
            ),
        ],
    )
    def test_error_order(self, args, code):
        proc = run_main(args)
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error:{code}:")
        assert len(proc.stderr.splitlines()) == 1

    @pytest.mark.parametrize(
        "args",
        [
            # each used to end in a traceback from comb(), or in bad-ring
            pytest.param(["verify", "hdv", "--n", "-1", "--d", "1"], id="hdv-n"),
            pytest.param(["verify", "hdv", "--n", "1", "--d", "-2"], id="hdv-d"),
            pytest.param(["verify", "sym", "--n", "2", "--d", "-1"], id="sym-d"),
            pytest.param(["verify", "sym", "--n", "0", "--d", "1", "--symbolic"], id="sym-n-symbolic"),
        ],
    )
    def test_bad_generated_shape_is_shape_error(self, args):
        proc = run_main(args)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:shape-error:")
        assert len(proc.stderr.splitlines()) == 1

    @pytest.mark.parametrize(
        "args,code",
        [
            # each message once quoted its 3,000-digit number whole
            pytest.param(["verify", "hdv", "--n", "0", "--d", NINES], "shape-error", id="hdv-d"),
            pytest.param(
                ["verify", "lemma", "--n", "2", "--d", "2", "--src-col", NINES, "--dst-col", "1"],
                "bad-index",
                id="lemma-src-col",
            ),
            pytest.param(
                ["verify", "lemma", "--n", "2", "--d", "2", "--src-col", NINES, "--dst-col", NINES],
                "bad-index",
                id="lemma-same-col",
            ),
            pytest.param(
                ["verify", "hdv", "--n", NINES, "--d", "2", "--symbolic"],
                "symbolic-cap",
                id="cap-n",
            ),
            # the cap check multiplied out C(n + d, n) first: 44 s at n = d = 10^6
            pytest.param(
                ["verify", "hdv", "--n", "1000000", "--d", "1000000", "--symbolic"],
                "symbolic-cap",
                id="cap-1e6",
            ),
            pytest.param(
                ["verify", "hdv", "--n", str(10**100), "--d", str(10**100), "--symbolic"],
                "symbolic-cap",
                id="cap-1e100",
            ),
        ],
    )
    def test_huge_number_is_named_by_size(self, args, code):
        proc = run_main(args, timeout=5)
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error:{code}:")
        assert len(proc.stderr.splitlines()) == 1
        assert len(proc.stderr) < 200, proc.stderr[:200]

    def test_symbolic_sym_power_past_packed_degree(self):
        # order 1, so under the cap: the run listed the 10^8 exponents of
        # x^(10^8) before any product could overflow
        proc = run_main(["verify", "sym", "--n", "1", "--d", "100000000", "--symbolic"], timeout=5)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:exponent-overflow:")
        assert len(proc.stderr.splitlines()) == 1
        proc = run_main(["verify", "sym", "--n", "1", "--d", "60000", "--symbolic"], timeout=30)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["verdict"] == "equal"

    @pytest.mark.parametrize(
        "args",
        [
            pytest.param(["mu", "--input", "{tmp}"], id="input-dir"),
            pytest.param(["basis", "--n", "1", "--d", "1", "--output", "{tmp}"], id="output-dir"),
            pytest.param(
                ["basis", "--n", "1", "--d", "1", "--output", "{tmp}/missing/x.json"],
                id="output-missing-dir",
            ),
        ],
    )
    def test_unusable_path_is_io_error(self, tmp_path, args):
        proc = run_main([a.format(tmp=tmp_path) for a in args])
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:io-error:")
        assert len(proc.stderr.splitlines()) == 1

    def test_version_from_source_checkout(self):
        proc = run_main(["--version"])
        assert proc.returncode == 0
        assert "0.1.0" in proc.stdout

    def test_error_line_is_single_and_coded(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"ring": "int", "rows": [["1", "x"]]}))
        import subprocess, sys

        proc = subprocess.run(
            [sys.executable, "-m", "mvvand.cli", "mu", "--input", str(bad)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        lines = [l for l in proc.stderr.splitlines() if l]
        assert len(lines) == 1
        assert lines[0].startswith("error:parse-error:")

    def test_shape_error_exit(self, runner, tmp_path):
        import subprocess, sys

        path = tmp_path / "thin.json"
        path.write_text(json.dumps({"ring": "int", "rows": [["1"], ["2"]]}))
        proc = subprocess.run(
            [sys.executable, "-m", "mvvand.cli", "veronese", "--input", str(path), "--d", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:shape-error:")


@pytest.fixture
def call_main(monkeypatch, capsys):
    """Run ``main()`` in this process on the given arguments and return
    (exit code, stdout, stderr); the interpreter's limit on integer text,
    which main() lifts for the whole process, is put back afterwards."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None

    def call(args):
        monkeypatch.setattr(sys, "argv", ["mvvand", *args])
        code = 0
        try:
            main()
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err

    yield call
    if limit is not None:
        sys.set_int_max_str_digits(limit)


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


class TestMain:
    """Each exit of ``cli.main``, run in process."""

    def test_success_exits_zero(self, call_main):
        code, out, err = call_main(["basis", "--n", "1", "--d", "2"])
        assert (code, err) == (0, "")
        assert json.loads(out)["exponents"] == [[2, 0], [1, 1], [0, 2]]

    def test_os_error_is_io_error(self, call_main, tmp_path):
        code, out, err = call_main(["basis", "--n", "1", "--d", "1", "--output", str(tmp_path)])
        assert (code, out) == (2, "")
        assert err.startswith("error:io-error:") and err.count("\n") == 1

    def test_usage_error_keeps_click_exit_code(self, call_main):
        code, out, err = call_main(["verify", "nope"])
        assert code == click.UsageError.exit_code == 2
        assert out == "" and "Usage:" in err and not err.startswith("error:")

    @pytest.mark.parametrize("nrows,ncols", [(4, 3), (7, 6)])
    def test_constant_poly_file_verifies_as_its_int_file(self, call_main, tmp_path, nrows, ncols):
        # a poly matrix of constants takes Bareiss over Z: the 7x6 file's
        # order-21 Veronese determinant by cofactor expansion ran past 20 s
        rng = seeded_rng("constant-poly", nrows, ncols)
        rows = [[str(rng.randint(-9, 9)) for _ in range(ncols)] for _ in range(nrows)]
        docs = []
        for ring in ({"ring": "int"}, {"ring": "poly", "variables": ["x", "y"]}):
            path = _write(tmp_path, "in.json", {**ring, "rows": rows})
            code, out, err = call_main(["verify", "hdv", "--input", path])
            assert (code, err) == (0, "")
            docs.append(json.loads(out))
        ints, polys = docs
        assert ints["verdict"] == "equal" and ints["lhs"] != "0"
        assert (ints.pop("ring"), polys.pop("ring")) == ("int", "poly(x,y)")
        assert ints == polys

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no limit on integer text"
    )
    def test_lifts_the_digit_limit(self, call_main, tmp_path):
        sys.set_int_max_str_digits(4300)
        path = _write(tmp_path, "big.json", {"ring": "int", "rows": [["9" * 2200, "1"]]})
        code, out, err = call_main(["veronese", "--input", path, "--d", "2"])
        assert (code, err) == (0, "")
        # (10^2200 - 1)^2 has 4,400 digits
        assert "9" * 2199 + "8" + "0" * 2199 + "1" in json.loads(out)["rows"][0]
        assert sys.get_int_max_str_digits() == 0

    @pytest.mark.parametrize(
        "args,doc,code",
        [
            # a negative degree would read as the empty product of degree 0
            pytest.param(["veronese", "--d", "-1"], WORKED_DOC, "shape-error", id="veronese-d"),
            pytest.param(["sym", "--d", "-1"], SQUARE_DOC, "shape-error", id="sym-d"),
            pytest.param(["basis", "--n", "1", "--d", "-1"], None, "shape-error", id="basis-d"),
            pytest.param(
                ["mu"], {"ring": "int", "rows": [["1", "2", "3"]]}, "shape-error", id="mu-1x3"
            ),
            pytest.param(["verify", "hdv", "--d", "2"], None, "shape-error", id="hdv-no-n"),
            pytest.param(["verify", "hdv", "--n", "0", "--d", "2"], None, "shape-error", id="hdv-n0"),
            pytest.param(
                ["verify", "naive", "--n", "0", "--d", "2"], None, "shape-error", id="naive-n0"
            ),
            pytest.param(
                ["mu"], {"ring": "int", "rows": [["1", "2"], ["3"]]}, "shape-error", id="ragged"
            ),
            pytest.param(["mu"], '"rows"', "parse-error", id="not-an-object"),
            pytest.param(
                ["mu"], {"ring": "int", "rows": "abc"}, "shape-error", id="rows-not-lists"
            ),
            # an empty list reaches PolynomialRing's own check; it used to be
            # refused as no list at all
            pytest.param(
                ["mu"], {"ring": "poly", "variables": [], "rows": [["1"]]}, "bad-ring",
                id="poly-no-variables",
            ),
            pytest.param(
                ["mu"], {"ring": "poly", "variables": "xy", "rows": [["1"]]}, "parse-error",
                id="poly-variables-not-list",
            ),
            pytest.param(
                ["mu"], {"ring": "poly", "rows": [["1"]]}, "parse-error",
                id="poly-variables-missing",
            ),
            pytest.param(
                ["mu"], {"ring": "poly", "variables": ["x", "x"], "rows": [["1"]]}, "bad-ring",
                id="poly-duplicate-variable",
            ),
            pytest.param(
                ["mu"], {"ring": "mod_p", "modulus": 7.0, "rows": [["1"]]}, "parse-error",
                id="float-modulus",
            ),
            pytest.param(
                ["genpos"], {"ring": "int", "rows": [["1"]]}, "zero-point", id="genpos-1x1"
            ),
            # JSON null was read as the text "None", here a variable: "equal"
            pytest.param(
                ["verify", "hdv"],
                {"ring": "poly", "variables": ["None"], "rows": [[None, 1], [1, 0], [0, 1]]},
                "parse-error",
                id="null-entry",
            ),
            pytest.param(
                ["mu"], {"ring": "int", "rows": [[True, 1], [1, 0], [0, 1]]}, "parse-error",
                id="bool-entry",
            ),
            pytest.param(
                ["mu"], {"ring": "poly", "variables": ["x"], "rows": [["x^65536", "1"]]},
                "exponent-overflow", id="exponent-past-limit",
            ),
            pytest.param(
                ["mu"],
                {"ring": "poly", "variables": ["x", "y"], "rows": [["x^40000*y^40000", "1"]]},
                "exponent-overflow",
                id="total-degree-past-limit",
            ),
            pytest.param(
                ["mu"], {"ring": "poly", "variables": ["1x"], "rows": [["1"]]}, "bad-ring",
                id="poly-variable-not-a-name",
            ),
            pytest.param(
                ["mu"], {"ring": "poly", "variables": [3], "rows": [["1"]]}, "bad-ring",
                id="poly-variable-not-text",
            ),
            pytest.param(
                ["sym", "--d", "2"], {"ring": "int", "rows": []}, "shape-error", id="sym-0x0"
            ),
        ],
    )
    def test_error_guard(self, call_main, tmp_path, args, doc, code):
        if doc is not None:
            args = [*args, "--input", _write(tmp_path, "in.json", doc)]
        status, out, err = call_main(args)
        assert (status, out) == (2, "")
        assert err.startswith(f"error:{code}:") and err.count("\n") == 1, err
