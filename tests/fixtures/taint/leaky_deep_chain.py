# module: repro.crypto.fixture_chain
# expect: TF502
"""Seeded deep leak: a key reaches print() twelve calls down.

Callers are defined before their callees, so each fixpoint round moves
the latent sink one hop up the chain; the finding at ``leak_key`` needs
every hop's summary, not just the first ten.
"""


def leak_key(key):
    """Hands the key to the top of the chain."""
    hop1(key)


def hop1(value):
    """Hop 1 of the chain."""
    hop2(value)


def hop2(value):
    """Hop 2 of the chain."""
    hop3(value)


def hop3(value):
    """Hop 3 of the chain."""
    hop4(value)


def hop4(value):
    """Hop 4 of the chain."""
    hop5(value)


def hop5(value):
    """Hop 5 of the chain."""
    hop6(value)


def hop6(value):
    """Hop 6 of the chain."""
    hop7(value)


def hop7(value):
    """Hop 7 of the chain."""
    hop8(value)


def hop8(value):
    """Hop 8 of the chain."""
    hop9(value)


def hop9(value):
    """Hop 9 of the chain."""
    hop10(value)


def hop10(value):
    """Hop 10 of the chain."""
    hop11(value)


def hop11(value):
    """Hop 11 of the chain."""
    hop12(value)


def hop12(value):
    """The latent sink at the bottom of the chain."""
    print(value)
