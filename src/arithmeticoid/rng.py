"""Deterministic RNG for experiment reproducibility.

It lives apart from the layers that draw from it (szpiro's monodromy data and
theta lattice, the CLI's Witt check), so that loading one does not load another.
"""

_MASK = (1 << 64) - 1


class SplitMix64:
    """64-bit splitmix generator; identical streams on every platform.

    randrange uses plain modular reduction: the bias is < n / 2^64, far below
    anything our Monte-Carlo suites can resolve.
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        return self.next64() % n

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * (self.next64() / 2.0 ** 64)
