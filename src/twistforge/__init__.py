"""twistforge: a desk-scale laboratory for the division-polynomial forgery
attack and fast serial-number verification on class-group-action quantum
money, with instrumented cost accounting at small primes."""

from .fp_arith import FpContext, MultCounter

__all__ = ["FpContext", "MultCounter"]
__version__ = "0.1.0"
