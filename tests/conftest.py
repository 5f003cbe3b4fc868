import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


@pytest.fixture
def corrupted_closed_form(monkeypatch):
    """`verify.wedderburn_closed_form` with one more copy of the first
    component, so every cross-validation reports a mismatch."""
    from metacyclic import verify

    real = verify.wedderburn_closed_form

    def corrupted(params):
        dec = real(params)
        first = dec.components[0]
        bumped = first._replace(multiplicity=first.multiplicity + 1)
        return dec._replace(components=(bumped,) + dec.components[1:])

    monkeypatch.setattr(verify, "wedderburn_closed_form", corrupted)


@pytest.fixture
def escaping_galois_image(monkeypatch):
    """`deep._codes` giving every degree-p character the image code -1,
    which no character has: codes are nonnegative."""
    from metacyclic import deep

    real = deep._codes

    def poisoned(chars, alpha, params):
        codes, images = real(chars, alpha, params)
        return codes, [-1 if ch.t == 1 else im for ch, im in zip(chars, images)]

    monkeypatch.setattr(deep, "_codes", poisoned)
