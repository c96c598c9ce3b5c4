"""Generators reproducing every table and figure of the paper's evaluation.

Each ``figN`` module exposes functions named after the paper's panels
(``fig3a()``, ``fig3b()``, ...) returning :class:`repro.core.report.Table`
objects whose rows are the same series the paper plots. :data:`PANELS` is
the one registry of them: the CLI, the golden digests and the strict-audit
gate all look panels up there. ``benchmarks/`` runs one pytest-benchmark per
panel, and EXPERIMENTS.md records paper-vs-measured.
"""

from . import fig3, fig4, fig5, fig6, fig7, fig8, fig9, fig10, fig11, fig12, fig13
from . import tables

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
}

#: Panel name -> generator: every ``fig*`` function of the figure modules,
#: plus ``table1`` and ``table2``.
PANELS = {
    name: getattr(module, name)
    for module in ALL_FIGURES.values()
    for name in dir(module)
    if name.startswith("fig") and callable(getattr(module, name))
}
PANELS.update(table1=tables.table1, table2=tables.table2)

__all__ = ["ALL_FIGURES", "PANELS"] + list(ALL_FIGURES)
