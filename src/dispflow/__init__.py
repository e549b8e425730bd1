"""Displacement-error correction via nonlinear flows and convex relaxation,
with a parallel-beam tomography testbed."""

from .grid import Axis, ScalarField, diff, diff_matrix, norm_l2, norm_linf
from .flows import FlowParams, FlowState, StabilityError, evolve, flow_rhs, stable_dt
from .varsolve import (
    EnergyParams,
    IterTrace,
    convex_step,
    energy_D1,
    energy_D2,
    energy_R,
    fc_energy,
    iterate,
)
from .tomo import (
    AngularPerturbation,
    Sinogram,
    fbp,
    radon,
    radon_perturbed,
    sample_uniform_displacement,
    shepp_logan,
)
from .discrete import IntShiftField, block_assign_columns, jitter_correct_rows
from .metrics import MetricReport, interface_variance, metrics, strip_fwhm
from .fileio import read_image, write_image

__all__ = [
    "Axis",
    "ScalarField",
    "diff",
    "diff_matrix",
    "norm_l2",
    "norm_linf",
    "FlowParams",
    "FlowState",
    "StabilityError",
    "evolve",
    "flow_rhs",
    "stable_dt",
    "EnergyParams",
    "IterTrace",
    "convex_step",
    "energy_D1",
    "energy_D2",
    "energy_R",
    "fc_energy",
    "iterate",
    "AngularPerturbation",
    "Sinogram",
    "fbp",
    "radon",
    "radon_perturbed",
    "sample_uniform_displacement",
    "shepp_logan",
    "IntShiftField",
    "block_assign_columns",
    "jitter_correct_rows",
    "MetricReport",
    "interface_variance",
    "metrics",
    "strip_fwhm",
    "read_image",
    "write_image",
]

__version__ = "0.1.0"
