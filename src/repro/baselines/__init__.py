"""Prior-work baselines (RASA, TMUL, STC, STA, S2TA, SIGMA) and Table I."""

from .catalog import GranularitySupport, TABLE_I, table1

__all__ = ["GranularitySupport", "TABLE_I", "table1"]
