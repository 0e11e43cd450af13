"""Decompose bounded functions on [-1,1]^n into a small clipped-affine
network plus a residual that no small network correlates with."""

from clipreg.netcore import (
    DomainSpec,
    Layer,
    RepNet,
    RepCert,
    beta,
    pad_depth,
    compose_parallel,
    zero_net,
)
from clipreg.measure import (
    Quadrature,
    FunctionOracle,
    build_quadrature,
    inner,
    l2_norm_sq,
    sigma_l1,
    oracle_from_net,
    oracle_from_values,
)
from clipreg.adversary import (
    DictSpec,
    Budget,
    AdversaryResult,
    ascend,
    sigma_dr,
    invisibility_audit,
)
from clipreg.decomposer import (
    StagePick,
    EnergyTrace,
    DecompositionReport,
    stage_solve,
    decompose,
    certify_split,
    m_budget_for,
)

__all__ = [
    "DomainSpec", "Layer", "RepNet", "RepCert",
    "beta", "pad_depth", "compose_parallel", "zero_net",
    "Quadrature", "FunctionOracle", "build_quadrature", "inner",
    "l2_norm_sq", "sigma_l1", "oracle_from_net", "oracle_from_values",
    "DictSpec", "Budget", "AdversaryResult", "ascend",
    "sigma_dr", "invisibility_audit",
    "StagePick", "EnergyTrace", "DecompositionReport",
    "stage_solve", "decompose", "certify_split", "m_budget_for",
]
