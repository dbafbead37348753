"""Floating-point format descriptions.

The paper works with IEEE 754 binary64 ("double precision", Fig. 2) plus a
family of *widened* binary formats used as accuracy references in the
Fig. 14 experiment: 68-bit and 75-bit variants that keep the 11-bit
exponent of binary64 but extend the mantissa ("The 68b and 75b variants
employ a larger mantissa for improved accuracy", Sec. IV-B).

Like the FPGA libraries the paper compares against (FloPoCo, Xilinx
CoreGen), *subnormals are not supported* -- values below the smallest
normal magnitude flush to zero (Sec. II: "Many existing floating-point
libraries for FPGAs omit subnormals ... an approach we will also follow").

A :class:`FloatFormat` is a frozen value object describing the bit layout;
all arithmetic lives in :mod:`repro.fp.value` and :mod:`repro.fp.ops`.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "FloatFormat",
    "BINARY32",
    "BINARY64",
    "EXTENDED68",
    "EXTENDED75",
    "format_by_name",
]


@dataclass(frozen=True)
class FloatFormat:
    """Bit layout of a binary floating-point format.

    Parameters
    ----------
    name:
        Human-readable identifier (``"binary64"`` etc.).
    exponent_bits:
        Width of the biased-exponent field ``E``.
    fraction_bits:
        Width of the stored fraction field ``M`` (excluding the implied
        leading 1 of normalized numbers).

    The represented value of a normal number is
    ``(-1)^S * 1.M * 2^(E - bias)`` with ``bias = 2^(exponent_bits-1) - 1``.
    """

    name: str
    exponent_bits: int
    fraction_bits: int

    def __post_init__(self) -> None:
        if self.exponent_bits < 2:
            raise ValueError("exponent field needs at least 2 bits")
        if self.fraction_bits < 1:
            raise ValueError("fraction field needs at least 1 bit")

    # -- derived layout properties ------------------------------------

    @property
    def bias(self) -> int:
        """Exponent bias (IEEE convention)."""
        return (1 << (self.exponent_bits - 1)) - 1

    @property
    def total_bits(self) -> int:
        """Total storage width: sign + exponent + fraction."""
        return 1 + self.exponent_bits + self.fraction_bits

    @property
    def significand_bits(self) -> int:
        """Significand width *including* the implied leading 1."""
        return self.fraction_bits + 1

    @property
    def emax(self) -> int:
        """Largest unbiased exponent of a finite normal number."""
        return self.bias

    @property
    def emin(self) -> int:
        """Smallest unbiased exponent of a normal number."""
        return 1 - self.bias

    @property
    def max_biased_exponent(self) -> int:
        """Largest biased exponent of a finite number (all-ones is Inf/NaN
        in packed IEEE encodings; our flag-based encoding still honours
        this bound so packed round-trips stay exact)."""
        return (1 << self.exponent_bits) - 2

    @property
    def fraction_mask(self) -> int:
        return (1 << self.fraction_bits) - 1

    @property
    def exponent_mask(self) -> int:
        return (1 << self.exponent_bits) - 1

    @property
    def ulp_exponent(self) -> int:
        """Scale of one unit in the last place of a number with unbiased
        exponent 0, i.e. ``2^ulp_exponent`` is the ULP at magnitude 1."""
        return -self.fraction_bits

    def describe(self) -> str:
        """One-line human-readable description of the layout."""
        return (
            f"{self.name}: 1s + {self.exponent_bits}e + "
            f"{self.fraction_bits}f = {self.total_bits}b, bias {self.bias}"
        )


#: IEEE 754 single precision.
BINARY32 = FloatFormat("binary32", exponent_bits=8, fraction_bits=23)

#: IEEE 754 double precision (Fig. 2 of the paper).
BINARY64 = FloatFormat("binary64", exponent_bits=11, fraction_bits=52)

#: 68-bit widened CoreGen-style format of Sec. IV-B (11b exponent kept,
#: fraction extended from 52 to 55 bits: 1 + 11 + 56 = 68).
EXTENDED68 = FloatFormat("extended68", exponent_bits=11, fraction_bits=56)

#: 75-bit widened format used as the golden reference in Fig. 14
#: (1 + 11 + 63 = 75).
EXTENDED75 = FloatFormat("extended75", exponent_bits=11, fraction_bits=63)

_REGISTRY = {
    fmt.name: fmt for fmt in (BINARY32, BINARY64, EXTENDED68, EXTENDED75)
}


def format_by_name(name: str) -> FloatFormat:
    """Look up one of the predefined formats by its canonical name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown format {name!r}; known: {sorted(_REGISTRY)}"
        ) from None
