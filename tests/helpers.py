"""Small builders shared by the tests."""

from mpfusion.graph import MrfParams, Topology


def uniform_params(top: Topology, j_value: float, convention: str = "merged") -> MrfParams:
    """Same coupling on every edge."""
    return MrfParams(top, {e: j_value for e in top.edges}, convention)
