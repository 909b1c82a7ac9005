"""Joint far- and near-end minimum-processing speech enhancement."""

__version__ = "0.8.0"

from .beamform import BeamformerSet, build_beamformers
from .filterbank import Filterbank, allocate_targets, build_filterbank
from .metrics import EvalReport, asii, evaluate
from .pipeline import (EnhancementResult, Method, render, run_blind_concat,
                       run_joint, run_unprocessed)
from .scene import SceneConfig, SpectralStats, synthesize_scene
from .solver import BandSolution, BandStatus, SolverTerms, solve_band
from .stft import FrameParams, analyze, synthesize

__all__ = [
    "__version__",
    "BandSolution", "BandStatus", "BeamformerSet", "EnhancementResult",
    "EvalReport", "Filterbank", "FrameParams", "Method", "SceneConfig",
    "SolverTerms", "SpectralStats",
    "allocate_targets", "analyze", "asii", "build_beamformers",
    "build_filterbank", "evaluate", "render", "run_blind_concat",
    "run_joint", "run_unprocessed", "solve_band", "synthesize",
    "synthesize_scene",
]
