"""Command-line front end.

Everything reads and writes the shared JSON matrix format; verifiers write
report documents and use the exit status to signal whether the verdict
matched the identity's expected outcome (0 = expected), so CI can consume
them directly.  Errors exit nonzero with a single machine-parsable line
``error:<code>: <message>`` on stderr.
"""
from __future__ import annotations

import sys
from math import comb

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
from .rings import DEFAULT_PRIME, PrimeField, ZZ
from .selftest import run_all
from .vandermonde import (
    SYMBOLIC_CAP,
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

IDENTITIES = ("hdv", "dual", "lemma", "sym", "abstract", "naive")


def _emit(doc: dict, output: str | None) -> None:
    text = dumps_doc(doc)
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _numeric_ring(ring: str, modulus: int | None):
    if ring == "mod_p":
        return PrimeField(DEFAULT_PRIME if modulus is None else modulus)
    if modulus is not None:
        raise BadRingError(f"--modulus applies only to --ring mod_p, not {ring}")
    return ZZ


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
@click.argument("identity", type=click.Choice(IDENTITIES))
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
def verify(
    identity,
    input_,
    n,
    d,
    ring,
    modulus,
    seed,
    symbolic,
    symbolic_cap,
    alpha,
    src_col,
    dst_col,
    output,
):
    """Verify one identity; exit 0 iff the verdict matches expectation."""
    if (ring is not None or symbolic or modulus is not None) and (
        input_ is not None or identity == "naive"
    ):
        raise BadRingError(
            "--ring, --symbolic and --modulus apply only to generated matrices"
        )
    if symbolic and (ring is not None or modulus is not None):
        raise BadRingError("--symbolic verification runs over the polynomial ring")

    if identity == "naive":
        if input_ is not None:
            raise ShapeError("verify naive builds its own matrix from --n and --d; drop --input")
        if n is None or d is None:
            raise ShapeError("verify naive needs --n and --d")
    else:
        X = _matrix_for_verify(
            identity, input_, n, d, ring, modulus, seed, symbolic, symbolic_cap
        )
        if identity == "sym" and d is None:
            raise ShapeError("verify sym needs --d")
    _reject_unused_options(identity, input_, symbolic)

    if identity == "naive":
        report = demo_naive_failure(n, d, seed)
    elif identity == "hdv":
        report = verify_hdv(X)
    elif identity == "dual":
        report = verify_dual(X)
    elif identity == "lemma":
        report = verify_column_lemma(X, alpha, src_col, dst_col)
    elif identity == "sym":
        report = verify_sym_power(X, d)
    else:  # abstract
        report = verify_pairing(X)

    _emit(report.to_doc(), output)
    sys.exit(0 if report.ok else 1)


def _reject_unused_options(identity, input_, symbolic):
    """Raise a shape error for an option given on the command line that this
    run would ignore; an option left at its default is not given."""
    unused = {}
    if input_ is not None or symbolic:
        unused["seed"] = "--seed applies only to generated numeric matrices"
    if not symbolic:
        unused["symbolic_cap"] = "--symbolic-cap applies only with --symbolic"
    if identity != "lemma":
        for name in ("alpha", "src_col", "dst_col"):
            unused[name] = f"--{name.replace('_', '-')} applies only to verify lemma"
    ctx = click.get_current_context()
    for name, message in unused.items():
        if ctx.get_parameter_source(name) is not ParameterSource.DEFAULT:
            raise ShapeError(f"{message}; drop it")


def _matrix_for_verify(identity, input_, n, d, ring, modulus, seed, symbolic, cap):
    square = identity == "sym"
    if input_ is not None:
        # the shape of the file fixes n and d; for sym, --d is the power
        if n is not None or (d is not None and not square):
            flags = "--n" if square else "--n and --d"
            raise ShapeError(f"verify {identity} takes its shape from --input; drop {flags}")
        return ExactMatrix.load(input_)
    if n is None or d is None:
        raise ShapeError(f"verify {identity} needs --input or --n and --d")
    if n < 1 or d < 0:
        raise ShapeError(f"verify {identity} needs n >= 1 and d >= 0, got n={n}, d={d}")
    if square:
        shape = (n, n)
        order = comb(n + d - 1, d)
    else:
        shape = (n + d, n + 1)
        order = comb(n + d, n)
    if symbolic:
        if order > cap:
            raise SymbolicCapError(
                f"symbolic order {order} exceeds cap {cap}; raise --symbolic-cap"
            )
        return symbolic_matrix(*shape)
    rng = seeded_rng("verify", identity, n, d, seed)
    return random_matrix(_numeric_ring(ring or "int", modulus), *shape, rng)


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
