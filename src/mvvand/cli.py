"""Command-line front end.

Everything reads and writes the shared JSON matrix format; verifiers write
report documents and use the exit status to signal whether the verdict
matched the identity's expected outcome (0 = expected), so CI can consume
them directly.  Errors exit nonzero with a single machine-parsable line
``error:<code>: <message>`` on stderr.
"""
from __future__ import annotations

import sys

import click
from click.core import ParameterSource

from . import __version__
from .errors import BadRingError, MvvandError, ShapeError, SymbolicCapError
from .genpos import (
    METHOD_ETA,
    METHOD_MINORS,
    PointConfiguration,
    in_general_position,
    in_general_position_via_eta,
)
from .matrix import ExactMatrix, dumps_doc, random_matrix, seeded_rng
from .rings import DEFAULT_PRIME, PrimeField, ZZ, _show
from .selftest import run_all
from .vandermonde import (
    demo_naive_failure,
    eta_matrix,
    monomial_basis,
    mu_matrix,
    symbolic_matrix,
    sym_power_matrix,
    verify_column_lemma,
    verify_dual,
    verify_hdv,
    verify_pairing,
    verify_sym_power,
    veronese_matrix,
)

SYMBOLIC_CAP = 10  # default bound on C(n+d, n) for symbolic verification


def _wide(n, d):
    return (n + d, n + 1), (n + d, n)


def _square(n, d):
    return (n, n), (n + d - 1, d)


# identity -> (shape of a generated matrix and the (top, k) of its determinant
# order C(top, k), verifier); naive builds its own matrix from --n, --d and --seed
VERIFIERS = {
    "hdv": (_wide, lambda X, o: verify_hdv(X)),
    "dual": (_wide, lambda X, o: verify_dual(X)),
    "lemma": (_wide, lambda X, o: verify_column_lemma(X, o["alpha"], o["src_col"], o["dst_col"])),
    "sym": (_square, lambda X, o: verify_sym_power(X, o["d"])),
    "abstract": (_wide, lambda X, o: verify_pairing(X)),
    "naive": (None, lambda X, o: demo_naive_failure(o["n"], o["d"], o["seed"])),
}


def _emit(doc: dict, output: str | None) -> None:
    text = dumps_doc(doc)
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


@click.group()
@click.version_option(version=__version__)
def cli():
    """Exact constructions and verifiers for multivariate Vandermonde-type
    determinant identities."""


@cli.command()
@click.option("--n", type=int, required=True, help="Projective dimension.")
@click.option("--d", type=int, required=True, help="Degree.")
@click.option("--output", type=click.Path(), default=None)
def basis(n, d, output):
    """List the degree-d monomial exponent vectors in n+1 variables."""
    exps = monomial_basis(n, d)
    _emit({"n": n, "d": d, "exponents": [list(e) for e in exps]}, output)


@cli.command()
@click.option("--input", "input_", type=click.Path(exists=True), required=True)
@click.option("--d", type=int, required=True, help="Degree of the Veronese map.")
@click.option("--output", type=click.Path(), default=None)
def veronese(input_, d, output):
    """Apply the degree-d Veronese map to each row of a matrix."""
    _emit(veronese_matrix(ExactMatrix.load(input_), d).to_doc(), output)


@cli.command()
@click.option("--input", "input_", type=click.Path(exists=True), required=True)
@click.option("--output", type=click.Path(), default=None)
def mu(input_, output):
    """Matrix of order-n minors of an m x (n+1) matrix."""
    _emit(mu_matrix(ExactMatrix.load(input_)).to_doc(), output)


@cli.command()
@click.option("--input", "input_", type=click.Path(exists=True), required=True)
@click.option("--output", type=click.Path(), default=None)
def eta(input_, output):
    """Dual matrix: coefficient rows of products of d rows as linear forms."""
    _emit(eta_matrix(ExactMatrix.load(input_)).to_doc(), output)


@cli.command()
@click.option("--input", "input_", type=click.Path(exists=True), required=True)
@click.option("--d", type=int, required=True)
@click.option("--output", type=click.Path(), default=None)
def sym(input_, d, output):
    """Matrix of the d-th symmetric power of a square matrix."""
    _emit(sym_power_matrix(ExactMatrix.load(input_), d).to_doc(), output)


@cli.command()
@click.argument("identity", type=click.Choice(list(VERIFIERS)))
@click.option("--input", "input_", type=click.Path(exists=True), default=None)
@click.option("--n", type=int, default=None)
@click.option("--d", type=int, default=None)
@click.option(
    "--ring",
    type=click.Choice(["int", "mod_p"]),
    default=None,
    help="Ring of a generated matrix; int by default.",
)
@click.option("--modulus", type=int, default=None)
@click.option("--seed", type=int, default=0)
@click.option("--symbolic", is_flag=True, help="Verify as a polynomial identity.")
@click.option("--symbolic-cap", type=int, default=SYMBOLIC_CAP, show_default=True)
@click.option("--alpha", type=int, default=2, help="Scalar for the column lemma.")
@click.option("--src-col", type=int, default=0)
@click.option("--dst-col", type=int, default=1)
@click.option("--output", type=click.Path(), default=None)
def verify(identity, **opts):
    """Verify one identity; exit 0 iff the verdict matches expectation."""
    input_, symbolic, ring = opts["input_"], opts["symbolic"], opts["ring"]
    reads = _options_read(identity, input_, symbolic, ring)
    # a given option the run does not read, then a missing value, then a bad one
    ctx = click.get_current_context()
    for name, read in reads.items():
        if not read and ctx.get_parameter_source(name) is not ParameterSource.DEFAULT:
            run = ("builds its own matrix" if identity == "naive"
                   else "reads --input" if input_ is not None
                   else "is symbolic" if symbolic else f"is over {ring or 'int'}")
            flag = "--" + name.rstrip("_").replace("_", "-")
            error = BadRingError if name in ("ring", "modulus", "symbolic") else ShapeError
            raise error(f"verify {identity} {run}, so it does not read {flag}; drop it")
    if missing := [f"--{name}" for name in ("n", "d") if reads[name] and opts[name] is None]:
        alt = "" if input_ is not None or identity == "naive" else ", or --input"
        raise ShapeError(f"verify {identity} needs {' and '.join(missing)}{alt}")

    shape_order, check = VERIFIERS[identity]
    if input_ is not None:
        X = ExactMatrix.load(input_)
    else:  # None for naive, which builds its own matrix
        X = shape_order and _generated_matrix(identity, shape_order, **opts)
    report = check(X, opts)
    _emit(report.to_doc(), opts["output"])
    sys.exit(0 if report.ok else 1)


def _options_read(identity, input_, symbolic, ring):
    """Whether a verify run reads each option, in the order a given option
    that it does not read is reported."""
    generated = input_ is None and identity != "naive"
    return {
        "ring": generated and not symbolic,
        "modulus": generated and not symbolic and ring == "mod_p",
        "symbolic": generated,
        "input_": identity != "naive",
        "n": input_ is None,
        "d": input_ is None or identity == "sym",
        "seed": input_ is None and not symbolic,
        "symbolic_cap": symbolic,
        "alpha": identity == "lemma",
        "src_col": identity == "lemma",
        "dst_col": identity == "lemma",
    }


def _generated_matrix(identity, shape_order, n, d, ring, modulus, seed, symbolic,
                      symbolic_cap, **_):
    if n < 1 or d < 0:
        raise ShapeError(
            f"verify {identity} needs n >= 1 and d >= 0, got n={_show(n)}, d={_show(d)}"
        )
    shape, (top, k) = shape_order(n, d)
    if symbolic:
        # C(top, k) factor by factor until past the cap: the partial products
        # C(top - k + i, i) rise to it and at least double, as k <= top - k
        k, order, i = min(k, top - k), 1, 0
        while i < k and order <= symbolic_cap:
            i += 1
            order = order * (top - k + i) // i
        if order > symbolic_cap:
            name = _show(order) if i == k else f"C({_show(top)}, {_show(k)})"
            raise SymbolicCapError(
                f"symbolic order {name} exceeds cap {_show(symbolic_cap)}; raise --symbolic-cap"
            )
        return symbolic_matrix(*shape)
    field = PrimeField(DEFAULT_PRIME if modulus is None else modulus) if ring == "mod_p" else ZZ
    return random_matrix(field, *shape, seeded_rng("verify", identity, n, d, seed))


@cli.command()
@click.option("--input", "input_", type=click.Path(exists=True), required=True)
@click.option(
    "--method",
    type=click.Choice([METHOD_MINORS, METHOD_ETA]),
    default=METHOD_MINORS,
    show_default=True,
)
@click.option("--output", type=click.Path(), default=None)
def genpos(input_, method, output):
    """Test whether the rows of a matrix are points in general position."""
    cfg = PointConfiguration(ExactMatrix.load(input_))
    if method == METHOD_MINORS:
        verdict = in_general_position(cfg)
    else:
        verdict = in_general_position_via_eta(cfg)
    _emit(verdict.to_doc(), output)


@cli.command()
@click.option("--quick", is_flag=True, help="Reduced trial counts.")
def selftest(quick):
    """Run the full verification suite; exit 0 only on a clean pass."""
    ok = run_all(quick=quick, report=click.echo)
    sys.exit(0 if ok else 1)


def main():
    # exact results may run to any number of digits (3.10.7+ caps their text)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        cli.main(standalone_mode=False)
    except MvvandError as exc:
        click.echo(f"error:{exc.code}: {exc}", err=True)
        sys.exit(2)
    except click.ClickException as exc:
        exc.show()
        sys.exit(exc.exit_code)
    except click.exceptions.Abort:
        sys.exit(130)
    except OSError as exc:
        click.echo(f"error:io-error: {exc}", err=True)
        sys.exit(2)


if __name__ == "__main__":
    main()
