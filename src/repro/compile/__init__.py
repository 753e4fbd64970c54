"""Constraint → QUBO compilation (the paper's Section V pipeline).

Compilation runs through the staged pipeline in
:mod:`repro.compile.pipeline` (lint → canonicalize → synthesize →
assemble); :func:`compile_program` is the public entry point and
``docs/compiler.md`` the narrative description.
"""

from .cache import Template, build_template, instantiate_template, template_key
from .closed_forms import closed_form_qubo
from .pipeline import (
    CACHE_DIR_ENV,
    PassProvenance,
    PipelineConfig,
    TemplateStore,
    run_pipeline,
)
from .program import ANCILLA_PREFIX, CompiledProgram, compile_program
from .synthesize import (
    GAP,
    MAX_ANCILLAS,
    SynthesisResult,
    synthesize_constraint_qubo,
    verify_constraint_qubo,
)
from .truthtable import TruthTable, build_truth_table
from .validate import (
    ATOL,
    ProgramValidationError,
    ValidationCapExceeded,
    verify_compiled_program,
)

__all__ = [
    "ANCILLA_PREFIX",
    "ATOL",
    "CACHE_DIR_ENV",
    "CompiledProgram",
    "GAP",
    "MAX_ANCILLAS",
    "PassProvenance",
    "PipelineConfig",
    "SynthesisResult",
    "Template",
    "TemplateStore",
    "TruthTable",
    "build_template",
    "build_truth_table",
    "closed_form_qubo",
    "compile_program",
    "instantiate_template",
    "run_pipeline",
    "synthesize_constraint_qubo",
    "template_key",
    "verify_constraint_qubo",
    "ProgramValidationError",
    "ValidationCapExceeded",
    "verify_compiled_program",
]
