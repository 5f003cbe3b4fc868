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
    """`verify.sigma_on_character` sending every degree-p character under
    alpha = 2 to an image with u + p^m, which lies outside the list."""
    from metacyclic import verify

    real = verify.sigma_on_character

    def poisoned(ch, alpha, params):
        image = real(ch, alpha, params)
        if alpha == 2 and ch.t == 1:
            image = image._replace(u=image.u + params.p ** params.m)
        return image

    monkeypatch.setattr(verify, "sigma_on_character", poisoned)
