"""miniwhy: contract checking and weakest-precondition verification for the
MiniJML annotated mini-language.

Pipeline: parse -> typecheck -> (interpret with runtime checks | generate
obligations -> prove internally -> export residue as SMT-LIB 2 / XML /
s-expressions), with a corpus of annotated programs and a randomized /
exhaustive testing harness.

The package attributes `simplify` and `typecheck` are the functions of
those names, which hide the modules `miniwhy.simplify` and
`miniwhy.typecheck`. Reach a module with `from miniwhy.simplify import ...`
or `importlib.import_module("miniwhy.simplify")`.
"""

__version__ = "0.1.0"

from .errors import (ContractViolation, EvalError, ExecutionFault,
                     ExportError, MiniWhyError, ParseError, TypeCheckFailure,
                     VcgenError)
from .parser import parse
from .printer import expr_to_str, pretty_print
from .typecheck import TypedUnit, check_unit, typecheck
from .values import BINARY64, RATIONAL
from .interp import (CompiledTests, ExecutionOutcome, check_permut,
                     compile_unit, eval_formula, exec_method)
from .vcgen import (Obligation, ObligationSet, generate_obligations,
                    instantiate_on_trace, wp)
from .simplify import simplify
from .prover import ProofStatus, prove_internal
from .export import (ExportDoc, export_sexp, export_smtlib, export_xml,
                     validate)

__all__ = [
    "__version__",
    "parse", "pretty_print", "expr_to_str",
    "typecheck", "check_unit", "TypedUnit",
    "exec_method", "eval_formula", "CompiledTests", "check_permut",
    "compile_unit",
    "ExecutionOutcome", "RATIONAL", "BINARY64",
    "wp", "generate_obligations", "instantiate_on_trace",
    "Obligation", "ObligationSet",
    "simplify", "prove_internal", "ProofStatus",
    "export_smtlib", "export_xml", "export_sexp", "validate", "ExportDoc",
    "MiniWhyError", "ParseError", "TypeCheckFailure", "ContractViolation",
    "ExecutionFault", "EvalError", "VcgenError", "ExportError",
]
