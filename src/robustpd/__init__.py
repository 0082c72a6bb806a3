"""Robust primal-dual online algorithms with a verification harness.

The package implements online convex programming and welfare maximization
in the mixed input model, where an unknown subset of the steps is drawn
i.i.d. from a distribution and the rest is adversarial.  Both engines
drive their duals with a shifted, regularized follow-the-leader update
whose regret and iterate-size guarantees are checked empirically by the
harness, against exact brute-force offline optima.
"""

from robustpd.costs import (
    CostFunction,
    LinearPlusPower,
    SeparableGeneric,
    SumOfPowers,
    cost_from_config,
)
from robustpd.instances import (
    GeneratorParams,
    MixedInstance,
    generate,
    load_instance,
    sample_realization,
    save_instance,
)
from robustpd.oco import OcoState
from robustpd.ocp import FeasibleSet, run_loadbalance, run_ocp
from robustpd.oracles import opt_adv_ocp, opt_stoch_ocp, opt_stoch_welfare
from robustpd.welfare import run_welfare

__version__ = "0.1.0"

__all__ = [
    "CostFunction",
    "SumOfPowers",
    "LinearPlusPower",
    "SeparableGeneric",
    "cost_from_config",
    "OcoState",
    "FeasibleSet",
    "run_ocp",
    "run_loadbalance",
    "run_welfare",
    "MixedInstance",
    "GeneratorParams",
    "generate",
    "load_instance",
    "save_instance",
    "sample_realization",
    "opt_adv_ocp",
    "opt_stoch_ocp",
    "opt_stoch_welfare",
    "__version__",
]
