"""Generators reproducing every table and figure of the paper's evaluation.

Each ``figN`` module exposes functions named after the paper's panels
(``fig3a()``, ``fig3b()``, ...) returning :class:`repro.core.report.Table`
objects whose rows are the same series the paper plots; ``ablations``
isolates single mechanisms of the model (``ablation_lro()``, ...).
:data:`PANELS` is the one registry of them and the only way a table is
produced: ``repro figure <panel>`` (or ``all``), the golden digests, the
strict-audit gate and the claim tests in ``tests/claims/`` all look panels
up there. EXPERIMENTS.md records paper-vs-measured.
"""

from . import fig3, fig4, fig5, fig6, fig7, fig8, fig9, fig10, fig11, fig12, fig13
from . import ablations, tables

ALL_FIGURES = {
    "fig3": fig3,
    "fig4": fig4,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
    "tables": tables,
    "ablations": ablations,
}

#: Panel name -> generator: every ``fig*``, ``table*`` and ``ablation_*``
#: function of the figure modules.
PANELS = {
    name: getattr(module, name)
    for module in ALL_FIGURES.values()
    for name in dir(module)
    if name.startswith(("fig", "table", "ablation_")) and callable(getattr(module, name))
}

__all__ = ["ALL_FIGURES", "PANELS"] + list(ALL_FIGURES)
