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
    """`deep._images` giving every degree-p character its true image with
    p^C added to l. No character has that tuple (labels are below p^(n-s)),
    yet it keeps t and the degree and agrees with the true image mod p^C,
    so only the check that each image is listed can reject it."""
    from metacyclic import deep

    real = deep._images

    def poisoned(chars, alpha, params):
        qc = params.p ** params.ambient_level
        images = real(chars, alpha, params)
        return [(t, l + qc, u, degree) if t == 1 else (t, l, u, degree)
                for t, l, u, degree in images]

    monkeypatch.setattr(deep, "_images", poisoned)
